"""Infinitesimal symmetry actions on linear Schrödinger operators.

A point is a(t) * (free evolution) + V(t, r).  Two actions are provided:
the weight-mu action on the full linear space, and its affine variant,
which fixes the slice a = 1.  They agree on the shift and phase families
and differ on the time family by first-order terms; the exact discrepancy
(-f' a on the coefficient, -f' V on the potential) is itself a verified
quantity, since it measures why only one of the two actions matches the
coadjoint picture.

The weight enters through a single term: -2i(mu - 1/4) M f'' a on the
potential row.  The loop factors of a generator depend on it, the weight
and the variant alone, so each element keeps them per weight and variant
and every later point only multiplies.
"""

from __future__ import annotations

from fractions import Fraction

from .ring import CoeffFn, I_M, M2, M2_HALF, Value, coeff_from_table, coeff_of, loop_of, product_into
from .svalgebra import SvElement

__all__ = ["SchrodPoint", "d_sigma_tilde", "d_sigma_affine"]


class SchrodPoint(Value):
    """Operator datum (a, V): evolution coefficient and potential."""

    __slots__ = ("a", "V")

    def __init__(self, a=None, V=None):
        object.__setattr__(self, "a", loop_of(a, "the evolution coefficient"))
        object.__setattr__(self, "V", CoeffFn.zero() if V is None else coeff_of(V))


_MINUS_ONE = CoeffFn.const(-1)
_MINUS_HALF_X = CoeffFn.x_pow(1, Fraction(-1, 2))
_MINUS_HALF_M2_X2 = -M2_HALF * CoeffFn.x_pow(2)
_MINUS_TWO_M2_X = -2 * M2 * CoeffFn.x_pow(1)
_MINUS_TWO_M2 = -2 * M2


# variant -> (factor of the f'V transport term, whether f' drags a)
_VARIANTS = {"tilde": (-2, True), "affine": (-1, False)}


def _factors(X: SvElement, mu, variant: str) -> tuple:
    """The loop factors of one action of X at weight mu, zero where X
    lacks a family: those of a_t and V_t, of a, and, on the potential
    row, of V, V_x and a.  They depend on X, mu and the variant alone, so
    _action keeps them on X (Value.kept) and every later point only
    multiplies."""
    minus_v_transport, a_transport = _VARIANTS[variant]
    f, g = X.f, X.g
    fd = f.deriv("T")
    fdd = fd.deriv("T")
    # the weight enters only through the first term of the factor of a
    # on the potential row, -2i(mu - 1/4) M = (1/2 - 2 mu) iM
    of_vx: dict = {}
    of_a: dict = {}
    product_into(of_vx, fd, _MINUS_HALF_X)
    product_into(of_a, fdd, I_M * (Fraction(1, 2) - 2 * mu))
    product_into(of_a, fdd.deriv("T"), _MINUS_HALF_M2_X2)
    product_into(of_vx, g, _MINUS_ONE)
    product_into(of_a, g.deriv("T").deriv("T"), _MINUS_TWO_M2_X)
    product_into(of_a, X.h.deriv("T"), _MINUS_TWO_M2)
    minus_fd = -fd if a_transport else CoeffFn.zero()
    return (-f, minus_fd, fd * minus_v_transport, coeff_from_table(of_vx),
            coeff_from_table(of_a))


def _action(mu, X: SvElement, P: SchrodPoint, variant: str) -> SchrodPoint:
    """Both actions share every row except two time-family switches:
    the weight of the f'V transport term and whether f' drags a.

    Each row is a sum of products of a loop factor made from X alone
    (_factors, kept on X per weight and variant) and one of a, V and
    their derivatives; every product is added into the one table of its
    row (ring.product_into), which is wrapped once.  A derivative of a or
    V is taken only where it and its loop factor are both nonzero.
    """
    minus_f, minus_fd, of_v, of_vx, of_a = X.kept(_factors, mu, variant)
    a, V = P.a, P.V
    a_row: dict = {}
    v_row: dict = {}
    if V.terms:
        if minus_f.terms:
            product_into(v_row, minus_f, V.deriv("T"))
        product_into(v_row, of_v, V)
        if of_vx.terms:
            product_into(v_row, of_vx, V.deriv("X"))
    if a.terms:
        if minus_f.terms:
            product_into(a_row, minus_f, a.deriv("T"))
        product_into(a_row, minus_fd, a)
        product_into(v_row, of_a, a)
    return SchrodPoint(coeff_from_table(a_row), coeff_from_table(v_row))


def d_sigma_tilde(mu, X: SvElement, P: SchrodPoint) -> SchrodPoint:
    """Weight-mu action on the full linear space of operator data."""
    return _action(mu, X, P, "tilde")


def d_sigma_affine(mu, X: SvElement, P: SchrodPoint) -> SchrodPoint:
    """Affine variant: fixes the a = const slices, lighter V transport."""
    return _action(mu, X, P, "affine")
