"""Symbol algebra in one space variable: Leibniz composition with
half-integer orders, validity floors, trace, and the derived identities
that every later module leans on.

Truncated results are never compared against invented constants.  Where a
closed form is not available, the check is metamorphic: recompose with
something that makes the answer exact (left-composition by d undoes d^-1,
squaring undoes the half-order), or compare two evaluation orders on the
common trusted range.
"""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import binom_twice, raise_floor, sym_scale, time_deriv
from svpsido import ring
from svpsido.halfint import EXACT, HalfInt, h
from svpsido.ring import CoeffFn, GaussRat
from svpsido.psido import (
    R,
    XI,
    Symbol,
    adler_trace,
    cap_order,
    differential_part,
    eq_trusted,
    sym_bracket,
    sym_mul,
)

F = Fraction


def mono(order, tpow=0, xpow=0, coeff=1, var=XI, floor=EXACT):
    return Symbol.monomial(var, h(order), CoeffFn.mono(tpow, xpow, coeff), floor)


D = mono(1)
D_HALF = mono("1/2")
D_INV = mono(-1)
X = mono(0, xpow=1)


# ---- generalized binomial ---------------------------------------------------
#
# Composition reads binom(a, j) (q)_j from ring._weights, the kernel's one
# weight cache; at q = j the falling factorial is j!, so the binomial is
# that weight over j!.  Each check is made on the cache and on the
# reference binomial, both of which take twice their upper argument.


def kernel_binom(a_twice: int, j: int) -> GaussRat:
    """binom(a, j) for a = a_twice / 2, read from the kernel's weight cache."""
    num, den = ring._weights(a_twice, j, j + 1)[j]
    return GaussRat(F(num, den * factorial(j)))


BINOMS = (kernel_binom, binom_twice)


def test_binom_at_integer_arguments():
    # (3 choose j)
    for binom in BINOMS:
        assert binom(6, 0) == GaussRat(1)
        assert binom(6, 2) == GaussRat(3)
        assert binom(6, 4) == GaussRat(0)


def test_binom_at_half_odd_arguments():
    # (1/2 choose 2) = (1/2)(-1/2)/2
    for binom in BINOMS:
        assert binom(1, 2) == GaussRat(F(-1, 8))
        assert binom(1, 3) == GaussRat(F(1, 16))


def test_binom_at_negative_one():
    for binom in BINOMS:
        for j in range(6):
            assert binom(-2, j) == GaussRat((-1) ** j)


def test_binom_pascal_recurrence():
    # C(a, j) = C(a-1, j) + C(a-1, j-1), valid for every half-integer a
    for binom in BINOMS:
        for twice in range(-7, 8):
            for j in range(1, 6):
                lhs = binom(twice, j)
                rhs = binom(twice - 2, j) + binom(twice - 2, j - 1)
                assert lhs == rhs, (binom.__name__, twice, j)


# ---- composition: exact cases -----------------------------------------------


def test_derivation_rule():
    # d o f = f*d + f', the order-one Leibniz identity
    f = Symbol.function(R, CoeffFn.mono(1, 3))
    d = mono(1, var=R)
    out = sym_mul(d, f)
    assert out.floor is EXACT
    assert out.coeff(h(1)) == CoeffFn.mono(1, 3)
    assert out.coeff(h(0)) == CoeffFn.mono(1, 2, 3)


def test_half_order_square_is_full_derivative():
    assert sym_mul(D_HALF, D_HALF) == D


def test_half_order_composed_with_x_terminates():
    # d^{1/2} o x = x*d^{1/2} + 1/2*d^{-1/2}: second x-derivative vanishes,
    # so the series is finite and the result exact
    out = sym_mul(D_HALF, X)
    assert out.floor is EXACT
    assert out.coeff(h("1/2")) == CoeffFn.x_pow(1)
    assert out.coeff(h("-1/2")) == CoeffFn.const(F(1, 2))
    assert len(out.terms) == 2


def test_inverse_derivative_against_x():
    # d^-1 o x = x*d^-1 - d^-2, again a finite series
    out = sym_mul(D_INV, X)
    assert out == mono(-1, xpow=1) - mono(-2)
    # left-composing with d undoes it
    assert sym_mul(D, out) == X


def test_exact_request_with_infinite_tail_is_refused():
    # d o x^-1 still terminates (the integer binomial runs out), but the
    # half-order series against x^-1 never does
    xinv = mono(0, xpow=-1)
    assert sym_mul(D, xinv) == mono(1, xpow=-1) - mono(0, xpow=-2)
    with pytest.raises(ValueError):
        sym_mul(D_HALF, xinv)


# ---- composition: truncated cases ---------------------------------------------


def test_inverse_derivative_against_x_inverse():
    # d^-1 o x^-1 has an infinite tail; ask for six usable orders and
    # verify by recomposition with d on the left
    xinv = mono(0, xpow=-1)
    out = sym_mul(D_INV, xinv, h(-7))
    assert out.floor == h(-7)
    back = sym_mul(D, out, h(-6))
    assert eq_trusted(back, xinv)


def test_half_order_against_x_inverse_recomposes():
    xinv = mono(0, xpow=-1)
    half = sym_mul(D_HALF, xinv, h(-5))
    twice = sym_mul(D_HALF, half, h("-9/2"))
    full = sym_mul(D, xinv, h("-9/2"))
    assert eq_trusted(twice, full)


def test_truncation_cut_floor():
    # both inputs exact, tail cut at the requested floor
    xinv = mono(0, xpow=-1)
    out = sym_mul(D_INV, xinv, h(-4))
    assert out.floor == h(-4)
    assert out.bottom() == h(-4)


def test_natural_termination_at_the_boundary_stays_exact():
    # d^-1 o x ends exactly at order -2; a floor of -2 must not cost exactness
    out = sym_mul(D_INV, X, h(-2))
    assert out.floor is EXACT


def test_floor_propagation_through_products():
    # floor(A o B) = max(req, floor_A + top_B, floor_B + top_A)
    A = Symbol(XI, {h(1): CoeffFn.x_pow(1)}, h(-3))
    B = mono(2, xpow=2)
    out = sym_mul(A, B, h(-10))
    assert out.floor == h(-1)  # -3 + 2
    out2 = sym_mul(B, A, h(-10))
    assert out2.floor == h(-1)
    out3 = sym_mul(A, B, h(0))
    assert out3.floor == h(0)


def test_zero_with_floor_keeps_floor_through_sums():
    A = Symbol(XI, {h(1): CoeffFn.x_pow(1)}, h(-3))
    z = A - A
    assert z.floor == h(-3)
    s = z + mono(0, xpow=2)
    assert s.floor == h(-3)


def test_product_with_zero_is_exact_zero():
    A = Symbol(XI, {h(1): CoeffFn.x_pow(1)}, h(-3))
    assert sym_mul(A, Symbol.zero(XI)).is_zero()


def test_product_with_a_truncated_zero_keeps_its_floor():
    # the unknown orders below -3 meet d^5 and reach up to order 2
    z = Symbol(R, {}, h(-3))
    d5 = Symbol.monomial(R, h(5), CoeffFn.one())
    assert sym_mul(z, d5).floor == h(2)
    assert sym_mul(d5, z, h(-10)).floor == h(2)
    assert sym_mul(z, z).floor == h(-6)
    assert sym_mul(z, Symbol.zero(R)).floor is EXACT


# compose_flat reads no floor bound when both operands are exact; a floored
# operand or a zero with a floor on either side still sets the floor
# max(req, floor_A + top_B, floor_B + top_A), and an exact zero still
# annihilates a floored operand


@pytest.mark.parametrize("product", [sym_mul, sym_bracket], ids=["mul", "bracket"])
def test_a_floored_operand_on_either_side_sets_the_floor(product):
    A = Symbol(XI, {h(1): CoeffFn.x_pow(1), h(-1): CoeffFn.x_pow(-1)}, h(-3))
    B = Symbol(XI, {h(2): CoeffFn.x_pow(2), h(0): CoeffFn.x_pow(-2)})
    zero = Symbol(XI, {}, h("-5/2"))
    for req, want in ((EXACT, h(-1)), (h(-10), h(-1)), (h(0), h(0))):
        assert product(A, B, req).floor == want  # -3 + 2
        assert product(B, A, req).floor == want
    assert product(zero, B).floor == h("-1/2")  # -5/2 + 2
    assert product(B, zero, h(-10)).floor == h("-1/2")
    assert product(zero, A).floor == h("-3/2")  # max(-5/2 + 1, -3 - 5/2)
    assert product(A, zero, h(-1)).floor == h(-1)
    for other in (A, zero):
        assert product(Symbol.zero(XI), other) == Symbol.zero(XI)
        assert product(other, Symbol.zero(XI)) == Symbol.zero(XI)


@pytest.mark.parametrize("product", [sym_mul, sym_bracket], ids=["mul", "bracket"])
@pytest.mark.parametrize("r_floor, xi_floor", [(EXACT, EXACT), (h(-2), EXACT),
                                               (EXACT, h(-2)), (h(-2), h(-3))])
def test_mixed_variables_raise_whether_exact_or_floored(product, r_floor, xi_floor):
    for r, xi in ((Symbol(R, {h(1): CoeffFn.x_pow(1)}, r_floor), mono(0, xpow=1, floor=xi_floor)),
                  (Symbol(R, {}, r_floor), Symbol(XI, {}, xi_floor))):
        with pytest.raises(ValueError, match="mixed symbol variables R and XI"):
            product(r, xi, h(-4))
        with pytest.raises(ValueError, match="mixed symbol variables XI and R"):
            product(xi, r)


# ---- scaling, projections, trace -----------------------------------------------


def test_scale_by_loop_function():
    out = sym_scale(mono(1, xpow=1), CoeffFn.t_pow(2))
    assert out.coeff(h(1)) == CoeffFn.mono(2, 1)


def test_scale_rejects_space_dependence():
    with pytest.raises(ValueError):
        sym_scale(D, CoeffFn.x_pow(1))


def test_differential_part_projects_to_nonnegative_orders():
    A = mono(1, xpow=1) + mono(-1, xpow=2)
    out = differential_part(A)
    assert out == mono(1, xpow=1)
    assert out.floor is EXACT


def test_differential_part_needs_trusted_orders():
    A = Symbol(XI, {h(1): CoeffFn.x_pow(1)}, h(1))
    with pytest.raises(ValueError):
        differential_part(A)


def test_trace_reads_the_residue_slot():
    A = mono(-1, tpow=2, xpow=-1, coeff=5)
    assert adler_trace(A) == CoeffFn.t_pow(2, 5)
    assert adler_trace(mono(-1, xpow=3)).is_zero()


def test_trace_requires_floor_below_minus_one():
    A = Symbol(XI, {h(0): CoeffFn.one()}, h(0))
    with pytest.raises(ValueError):
        adler_trace(A)


def test_trace_is_symmetric():
    A = mono(2, xpow=1)
    B = mono(-2, xpow=2)
    ab = sym_mul(A, B, h(-3))
    ba = sym_mul(B, A, h(-3))
    assert adler_trace(ab) == adler_trace(ba)


def test_trace_kills_brackets():
    pairs = [
        (mono(2, xpow=1), mono(-2, xpow=2)),
        (mono("3/2", xpow=-1), mono("-5/2", xpow=2)),
        (mono(1, tpow=1, xpow=-2), mono(-1, xpow=1)),
        (mono(0, xpow=3), mono(-1, xpow=-3)),
    ]
    for A, B in pairs:
        br = sym_bracket(A, B, h(-5))
        assert adler_trace(br).is_zero(), (A, B)


def test_projection_helpers():
    A = mono(2, xpow=1) + mono(-1, xpow=1)
    assert cap_order(A, 0) == mono(-1, xpow=1)
    assert raise_floor(A, -1).floor == h(-1)
    assert time_deriv(mono(1, tpow=3)).coeff(h(1)) == CoeffFn.t_pow(2, 3)


def test_eq_trusted_ignores_untrusted_orders():
    A = Symbol(XI, {h(0): CoeffFn.one(), h(-2): CoeffFn.x_pow(1)}, h(-1))
    B = Symbol(XI, {h(0): CoeffFn.one()}, h(-1))
    assert eq_trusted(A, B)
    assert A.top() == h(0)


# ---- structural laws over random symbols -----------------------------------------

orders = st.integers(min_value=-4, max_value=4).map(HalfInt)

coeff_monos = st.builds(
    CoeffFn.mono,
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=-2, max_value=2),
    st.sampled_from([1, -1, 2, F(1, 2)]),
)

symbols = st.dictionaries(orders, coeff_monos, min_size=1, max_size=2).map(
    lambda d: Symbol(XI, d)
)


@given(symbols, symbols, symbols)
@settings(max_examples=60, deadline=None)
def test_composition_is_associative(A, B, C):
    fl = h(-6)
    lhs = sym_mul(sym_mul(A, B, fl), C, fl)
    rhs = sym_mul(A, sym_mul(B, C, fl), fl)
    assert eq_trusted(lhs, rhs)


@given(symbols, symbols, symbols)
@settings(max_examples=40, deadline=None)
def test_bracket_satisfies_jacobi(A, B, C):
    fl = h(-5)
    s = sym_bracket(sym_bracket(A, B, fl), C, fl)
    s = s + sym_bracket(sym_bracket(B, C, fl), A, fl)
    s = s + sym_bracket(sym_bracket(C, A, fl), B, fl)
    assert eq_trusted(s, Symbol.zero(XI))


@given(symbols, symbols)
@settings(max_examples=60, deadline=None)
def test_truncation_is_sound(A, B):
    # a deeper floor must agree with a shallower one above the shallow floor
    deep = sym_mul(A, B, h(-8))
    shallow = sym_mul(A, B, h(-4))
    assert eq_trusted(deep, shallow)


@given(symbols, symbols)
@settings(max_examples=40, deadline=None)
def test_trace_of_bracket_vanishes_randomly(A, B):
    br = sym_bracket(A, B, h(-6))
    assert adler_trace(br).is_zero()


@given(symbols, symbols, symbols)
@settings(max_examples=40, deadline=None)
def test_product_distributes_over_sums(A, B, C):
    fl = h(-6)
    lhs = sym_mul(A, B + C, fl)
    rhs = sym_mul(A, B, fl) + sym_mul(A, C, fl)
    assert eq_trusted(lhs, rhs)


# ---- printing ----------------------------------------------------------------


def test_symbol_printing():
    A = mono(1, xpow=1) + mono("-1/2", coeff=F(1, 2))
    assert str(A) == "xi*d_xi + 1/2*d_xi^-1/2 | exact"
    B = Symbol(R, {h(0): CoeffFn.x_pow(1)}, h("-7/2"))
    assert str(B) == "r | floor=-7/2"
    assert str(Symbol.zero(XI)) == "0 | exact"
