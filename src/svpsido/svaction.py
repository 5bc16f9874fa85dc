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

from .ring import CoeffFn, I_M, M2, M2_HALF, Value, coeff_from_table, coeff_of, loop_of, mul_into
from .svalgebra import SvElement

__all__ = ["SchrodPoint", "d_sigma_tilde", "d_sigma_affine"]


class SchrodPoint(Value):
    """Operator datum (a, V): evolution coefficient and potential."""

    __slots__ = ("a", "V")

    def __init__(self, a=None, V=None):
        object.__setattr__(self, "a", loop_of(a, "the evolution coefficient"))
        object.__setattr__(self, "V", CoeffFn.zero() if V is None else coeff_of(V))


_MINUS_ONE = CoeffFn.const(-1).terms.items()
_MINUS_TWO = CoeffFn.const(-2).terms.items()
_MINUS_HALF_X = CoeffFn.x_pow(1, Fraction(-1, 2)).terms.items()
_MINUS_HALF_M2_X2 = (-M2_HALF * CoeffFn.x_pow(2)).terms.items()
_MINUS_TWO_M2_X = (-2 * M2 * CoeffFn.x_pow(1)).terms.items()
_MINUS_TWO_M2 = (-2 * M2).terms.items()


# variant -> (factor of the f'V transport term, whether f' drags a)
_VARIANTS = {"tilde": (_MINUS_TWO, True), "affine": (_MINUS_ONE, False)}


def _into(row: dict, f: CoeffFn, items) -> None:
    """Add f times the term items into the row table, unless either is
    empty."""
    if f.terms and items:
        mul_into(row, f.terms.items(), items)


def _factors(X: SvElement, mu, variant: str) -> tuple:
    """The loop factors of one action of X at weight mu, as term items:
    those of a_t and V_t, of a, and, on the potential row, of V, V_x and
    a.  They depend on X, mu and the variant alone, so _action keeps them
    on X (Value.kept) and every later point only multiplies."""
    minus_v_transport, a_transport = _VARIANTS[variant]
    f, g = X.f, X.g
    fd = f.deriv("T")
    fdd = fd.deriv("T")
    # the weight enters only through the first term of the factor of a
    # on the potential row, -2i(mu - 1/4) M = (1/2 - 2 mu) iM
    of_v: dict = {}
    of_vx: dict = {}
    of_a: dict = {}
    _into(of_v, fd, minus_v_transport)
    _into(of_vx, fd, _MINUS_HALF_X)
    _into(of_a, fdd, (I_M * (Fraction(1, 2) - 2 * mu)).terms.items())
    _into(of_a, fdd.deriv("T"), _MINUS_HALF_M2_X2)
    _into(of_vx, g, _MINUS_ONE)
    _into(of_a, g.deriv("T").deriv("T"), _MINUS_TWO_M2_X)
    _into(of_a, X.h.deriv("T"), _MINUS_TWO_M2)
    minus_f = (-f).terms.items()
    minus_fd = (-fd).terms.items() if a_transport else ()
    return minus_f, minus_fd, of_v.items(), of_vx.items(), of_a.items()


def _action(mu, X: SvElement, P: SchrodPoint, variant: str) -> SchrodPoint:
    """Both actions share every row except two time-family switches:
    the weight of the f'V transport term and whether f' drags a.

    Each row is a sum of products of a loop factor made from X alone
    (_factors, kept on X per weight and variant) and one of a, V and
    their derivatives; every product is added into the one table of its
    row, which is wrapped once.  A zero a or V, a zero derivative of one,
    or a zero loop factor, forms no product.
    """
    minus_f, minus_fd, of_v, of_vx, of_a = X.kept(_factors, mu, variant)
    a, V = P.a.terms.items(), P.V.terms.items()
    a_row: dict = {}
    v_row: dict = {}
    if V:
        if minus_f and (vt := P.V.deriv("T").terms):
            mul_into(v_row, minus_f, vt.items())
        if of_v:
            mul_into(v_row, of_v, V)
        if of_vx and (vx := P.V.deriv("X").terms):
            mul_into(v_row, of_vx, vx.items())
    if a:
        if minus_f:
            if at := P.a.deriv("T").terms:
                mul_into(a_row, minus_f, at.items())
            if minus_fd:
                mul_into(a_row, minus_fd, a)
        if of_a:
            mul_into(v_row, of_a, a)
    return SchrodPoint(coeff_from_table(a_row), coeff_from_table(v_row))


def d_sigma_tilde(mu, X: SvElement, P: SchrodPoint) -> SchrodPoint:
    """Weight-mu action on the full linear space of operator data."""
    return _action(mu, X, P, "tilde")


def d_sigma_affine(mu, X: SvElement, P: SchrodPoint) -> SchrodPoint:
    """Affine variant: fixes the a = const slices, lighter V transport."""
    return _action(mu, X, P, "affine")
