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

from fractions import Fraction

from .ring import CoeffFn, I_M, M
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


_HALF = CoeffFn.const(Fraction(1, 2))
_M2_HALF = Fraction(1, 2) * M ** 2
_TWO_M2 = 2 * M ** 2


def _action(mu, X: SvElement, P: SchrodPoint, v_transport: int, a_transport: bool) -> SchrodPoint:
    """Both actions share every row except two time-family switches:
    the weight of the f'V transport term and whether f' drags a."""
    a_row = CoeffFn.zero()
    v_row = CoeffFn.zero()
    f = X.f
    if not f.is_zero():
        fd = f.deriv("T")
        fdd = fd.deriv("T")
        fddd = fdd.deriv("T")
        # -2i(mu - 1/4) M f'' = (1/2 - 2 mu) iM f''
        wt = I_M * (_HALF - mu * 2)
        a_row = a_row - f * P.a.deriv("T")
        if a_transport:
            a_row = a_row - fd * P.a
        v_row = (
            v_row
            - f * P.V.deriv("T")
            - fd * CoeffFn.x_pow(1) * P.V.deriv("X") * _HALF
            + P.a * (fdd * wt - fddd * CoeffFn.x_pow(2) * _M2_HALF)
            - fd * P.V * v_transport
        )
    g = X.g
    if not g.is_zero():
        gdd = g.deriv("T").deriv("T")
        v_row = v_row - g * P.V.deriv("X") - P.a * gdd * CoeffFn.x_pow(1) * _TWO_M2
    if not X.h.is_zero():
        v_row = v_row - P.a * X.h.deriv("T") * _TWO_M2
    return SchrodPoint(a_row, v_row)


def d_sigma_tilde(mu, X: SvElement, P: SchrodPoint) -> SchrodPoint:
    """Weight-mu action on the full linear space of operator data."""
    return _action(mu, X, P, v_transport=2, a_transport=True)


def d_sigma_affine(mu, X: SvElement, P: SchrodPoint) -> SchrodPoint:
    """Affine variant: fixes the a = const slices, lighter V transport."""
    return _action(mu, X, P, v_transport=1, a_transport=False)
