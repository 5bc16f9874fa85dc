"""Infinitesimal symmetry actions on linear Schrödinger operators.

A point is a(t) * (free evolution) + V(t, r).  Two actions are provided:
the weight-mu action on the full linear space, and its affine variant,
which fixes the slice a = 1.  They agree on the shift and phase families
and differ on the time family by first-order terms; the exact discrepancy
(-f' a on the coefficient, -f' V on the potential) is itself a verified
quantity, since it measures why only one of the two actions matches the
coadjoint picture.

The weight enters through a single term: -2i(mu - 1/4) M f'' a on the
potential row.  The loop factors depend on the generator alone, so each
element keeps one tuple of them (Value.kept); the weight term and the
variant's two switches enter at the call, so every point only
multiplies and no memo key holds the weight.
"""

from __future__ import annotations

from fractions import Fraction

from .ring import (
    CoeffFn,
    I_M,
    M2,
    M2_HALF,
    MINUS_2I_M,
    Value,
    _rebuilt,
    coeff_from_table,
    coeff_of,
    loop_of,
    mul_into,
    product_into,
)
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
_HALF_I_M = I_M * Fraction(1, 2)


def _factors(X: SvElement) -> tuple:
    """The loop factors of both actions of X, zero where X lacks a
    family: those of a_t and V_t; of a (the shifted action's drag) and of
    V in either variant; and, on the potential row, of V_x, of a without
    the weight, and of mu a.  They depend on X alone, so _action keeps
    them on X (Value.kept) and every later point only multiplies."""
    f, g = X.f, X.g
    fd = f.deriv("T")
    fdd = fd.deriv("T")
    # -2i(mu - 1/4) M f'' = (iM/2) f'' + mu (-2iM f''): the first part
    # joins the factor of a, the second meets the weight at the call
    of_vx: dict = {}
    of_a: dict = {}
    product_into(of_vx, fd, _MINUS_HALF_X)
    product_into(of_a, fdd, _HALF_I_M)
    product_into(of_a, fdd.deriv("T"), _MINUS_HALF_M2_X2)
    product_into(of_vx, g, _MINUS_ONE)
    product_into(of_a, g.deriv("T").deriv("T"), _MINUS_TWO_M2_X)
    product_into(of_a, X.h.deriv("T"), _MINUS_TWO_M2)
    return (-f, -fd, fd * -2, coeff_from_table(of_vx), coeff_from_table(of_a),
            fdd * MINUS_2I_M)


def _action(mu, X: SvElement, P: SchrodPoint, shifted: bool) -> SchrodPoint:
    """Both actions share every row except two time-family switches,
    which shifted sets: the f'V transport term is -2 f' V (shifted) or
    -f' V (affine), and f' drags a (-f' a) in the shifted action only.

    Each row is a sum of products of a loop factor made from X alone
    (_factors, kept on X) and one of a, V and their derivatives; every
    product is added into the one table of its row (ring.product_into),
    which is wrapped once.  The weight mu, coerced as coeff_of takes it,
    meets the product of its factor and a in the same table.  A
    derivative of a or V is taken only where it and its loop factor are
    both nonzero.  The rows are t-only where a is, so the point is
    rebuilt past SchrodPoint's checks.
    """
    minus_f, minus_fd, minus_two_fd, of_vx, of_a, of_mu_a = X.kept(_factors)
    mu = coeff_of(mu)
    a, V = P.a, P.V
    a_row: dict = {}
    v_row: dict = {}
    if V.terms:
        if minus_f.terms:
            product_into(v_row, minus_f, V.deriv("T"))
        product_into(v_row, minus_two_fd if shifted else minus_fd, V)
        if of_vx.terms:
            product_into(v_row, of_vx, V.deriv("X"))
    if a.terms:
        if minus_f.terms:
            product_into(a_row, minus_f, a.deriv("T"))
        if shifted:
            product_into(a_row, minus_fd, a)
        product_into(v_row, of_a, a)
        if mu.terms and of_mu_a.terms:
            weighted: dict = {}
            mul_into(weighted, of_mu_a.terms.items(), a.terms.items())
            mul_into(v_row, mu.terms.items(), weighted.items())
    return _rebuilt(SchrodPoint, (coeff_from_table(a_row), coeff_from_table(v_row)))


def d_sigma_tilde(mu, X: SvElement, P: SchrodPoint) -> SchrodPoint:
    """Weight-mu action on the full linear space of operator data."""
    return _action(mu, X, P, True)


def d_sigma_affine(mu, X: SvElement, P: SchrodPoint) -> SchrodPoint:
    """Affine variant: fixes the a = const slices, lighter V transport."""
    return _action(mu, X, P, False)
