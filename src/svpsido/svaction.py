"""Infinitesimal symmetry actions on linear Schrödinger operators.

A point is a(t) * (free evolution) + V(t, r).  Two actions are provided:
the weight-mu action on the full linear space, and its affine variant,
which fixes the slice a = 1.  They agree on the shift and phase families
and differ on the time family by first-order terms; the exact discrepancy
(-f' a on the coefficient, -f' V on the potential) is itself a verified
quantity, since it measures why only one of the two actions matches the
coadjoint picture.

The weight enters through a single term: -2i(mu - 1/4) M f'' a on the
potential row.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .ring import CoeffFn, I_M, M, coeff_from_table, mul_into
from .svalgebra import SvElement

__all__ = ["SchrodPoint", "d_sigma_tilde", "d_sigma_affine"]


class SchrodPoint:
    """Operator datum (a, V): evolution coefficient and potential."""

    __slots__ = ("a", "V")

    def __init__(self, a=None, V=None):
        if a is None:
            a = CoeffFn.zero()
        if V is None:
            V = CoeffFn.zero()
        if not isinstance(a, CoeffFn):
            a = CoeffFn.const(a)
        if not isinstance(V, CoeffFn):
            V = CoeffFn.const(V)
        if not a.is_t_only():
            raise ValueError("the evolution coefficient depends on t only")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "V", V)

    def __setattr__(self, *_):
        raise AttributeError("SchrodPoint is immutable")

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.V.is_zero()

    def __eq__(self, other):
        if not isinstance(other, SchrodPoint):
            return NotImplemented
        return self.a == other.a and self.V == other.V

    def __str__(self):
        return f"(a: {self.a} | V: {self.V})"

    __repr__ = __str__


_MINUS_ONE = CoeffFn.const(-1).terms.items()
_MINUS_TWO = CoeffFn.const(-2).terms.items()
_MINUS_HALF_X = CoeffFn.x_pow(1, Fraction(-1, 2)).terms.items()
_MINUS_HALF_M2_X2 = (Fraction(-1, 2) * M ** 2 * CoeffFn.x_pow(2)).terms.items()
_MINUS_TWO_M2_X = (-2 * M ** 2 * CoeffFn.x_pow(1)).terms.items()
_MINUS_TWO_M2 = (-2 * M ** 2).terms.items()


@functools.cache
def _weight(mu):
    """-2i(mu - 1/4) M = (1/2 - 2 mu) iM, as term items."""
    return (I_M * (Fraction(1, 2) - 2 * mu)).terms.items()


def _action(mu, X: SvElement, P: SchrodPoint, minus_v_transport, a_transport: bool) -> SchrodPoint:
    """Both actions share every row except two time-family switches:
    the weight of the f'V transport term and whether f' drags a.

    Each row is a sum of products of a factor made from X alone and one of
    a, V and their derivatives.  The factors are folded first; then every
    product is added into the one table of its row, which is wrapped once.
    """
    f, g = X.f, X.g
    fd = f.deriv("T")
    fdd = fd.deriv("T")
    # the factors of V, V_x and a on the potential row; the weight enters
    # only through the first term of the factor of a
    of_v: dict = {}
    of_vx: dict = {}
    of_a: dict = {}
    if f.terms:
        mul_into(of_v, fd.terms.items(), minus_v_transport)
        mul_into(of_vx, fd.terms.items(), _MINUS_HALF_X)
        mul_into(of_a, fdd.terms.items(), _weight(mu))
        mul_into(of_a, fdd.deriv("T").terms.items(), _MINUS_HALF_M2_X2)
    if g.terms:
        mul_into(of_vx, g.terms.items(), _MINUS_ONE)
        mul_into(of_a, g.deriv("T").deriv("T").terms.items(), _MINUS_TWO_M2_X)
    if X.h.terms:
        mul_into(of_a, X.h.deriv("T").terms.items(), _MINUS_TWO_M2)

    a, V = P.a.terms.items(), P.V.terms.items()
    a_row: dict = {}
    v_row: dict = {}
    if f.terms:
        minus_f = (-f).terms.items()  # the factor of a_t and of V_t
        mul_into(a_row, minus_f, P.a.deriv("T").terms.items())
        if a_transport:
            mul_into(a_row, (-fd).terms.items(), a)
        mul_into(v_row, minus_f, P.V.deriv("T").terms.items())
    mul_into(v_row, of_v.items(), V)
    if of_vx:
        mul_into(v_row, of_vx.items(), P.V.deriv("X").terms.items())
    mul_into(v_row, of_a.items(), a)
    return SchrodPoint(coeff_from_table(a_row), coeff_from_table(v_row))


def d_sigma_tilde(mu, X: SvElement, P: SchrodPoint) -> SchrodPoint:
    """Weight-mu action on the full linear space of operator data."""
    return _action(mu, X, P, _MINUS_TWO, a_transport=True)


def d_sigma_affine(mu, X: SvElement, P: SchrodPoint) -> SchrodPoint:
    """Affine variant: fixes the a = const slices, lighter V transport."""
    return _action(mu, X, P, _MINUS_ONE, a_transport=False)
