"""Two-variable differential operators and the projective operator action."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import find, given, settings, strategies as st

from strategies import coeff_fns
from svpsido import diffop2
from svpsido.halfint import h
from svpsido.psido import R, Symbol
from svpsido.ring import CoeffFn, GaussRat, I_M, M
from svpsido.diffop2 import (
    DiffOp2,
    d_pi,
    dop_bracket,
    dop_from_r_symbol,
    dop_mul,
    free_evolution_op,
)
from svpsido.svalgebra import SvElement, phase_mode, shift_mode, sv_bracket, time_mode
from svpsido.textio import symbol_str


def test_leibniz_single_step():
    # d_r o r = r d_r + 1
    got = dop_mul(DiffOp2.d_r(), DiffOp2.function(CoeffFn.x_pow(1)))
    assert got == DiffOp2({(0, 1): CoeffFn.x_pow(1), (0, 0): CoeffFn.one()})


def test_leibniz_double_step():
    # d_t d_r o (t r) expands through both variables
    d = dop_mul(DiffOp2.d_t(), DiffOp2.d_r())
    f = DiffOp2.function(CoeffFn.t_pow(1) * CoeffFn.x_pow(1))
    got = dop_mul(d, f)
    tr = CoeffFn.t_pow(1) * CoeffFn.x_pow(1)
    expect = DiffOp2(
        {
            (1, 1): tr,
            (1, 0): CoeffFn.t_pow(1),
            (0, 1): CoeffFn.x_pow(1),
            (0, 0): CoeffFn.one(),
        }
    )
    assert got == expect


def test_negative_slots_rejected():
    with pytest.raises(ValueError):
        DiffOp2({(-1, 0): CoeffFn.one()})


def test_free_evolution_op_shape():
    op = free_evolution_op()
    assert op.coeff(1, 0) == GaussRat(0, -2) * M
    assert op.coeff(0, 2) == CoeffFn.const(-1)


coef = st.integers(min_value=-3, max_value=3)


def ops():
    def build(c1, i1, j1, c2, i2, j2, tp, xp):
        fn = CoeffFn.mono(tp, xp, c1)
        return DiffOp2({(i1, j1): fn, (i2, j2): CoeffFn.const(c2)})

    slots = st.integers(min_value=0, max_value=2)
    degs = st.integers(min_value=0, max_value=2)
    return st.builds(build, coef, slots, slots, coef, slots, slots, degs, degs)


@given(ops(), ops(), ops())
def test_mul_associative(a, b, c):
    assert dop_mul(dop_mul(a, b), c) == dop_mul(a, dop_mul(b, c))


@given(ops(), ops(), ops())
def test_bracket_jacobi(a, b, c):
    total = (
        dop_bracket(a, dop_bracket(b, c))
        + dop_bracket(b, dop_bracket(c, a))
        + dop_bracket(c, dop_bracket(a, b))
    )
    assert total.is_zero()


# ---- an oracle that applies operators to functions --------------------------

_gauss = st.builds(GaussRat, st.integers(-3, 3), st.integers(-2, 2))
_coeffs = coeff_fns((-2, 2), (-2, 2), (-1, 1), _gauss, max_size=2)
_powers = st.tuples(st.integers(0, 2), st.integers(0, 2))
_operators = st.dictionaries(_powers, _coeffs, max_size=3).map(DiffOp2)
# test functions f(t, r): Laurent polynomials, so every derivative is exact
_functions = coeff_fns((-3, 3), (-3, 3), (-1, 1), _gauss, min_size=1, max_size=3)


def applied(A: DiffOp2, f: CoeffFn) -> CoeffFn:
    """A f: each coefficient times its derivative of f, with CoeffFn's own
    derivatives, products and sums; no composition is formed."""
    out = CoeffFn.zero()
    for (i, j), c in A.terms.items():
        d = f
        for _ in range(i):
            d = d.deriv("T")
        for _ in range(j):
            d = d.deriv("X")
        out = out + c * d
    return out


def composes(A: DiffOp2, B: DiffOp2, f: CoeffFn) -> bool:
    return applied(dop_mul(A, B), f) == applied(A, applied(B, f))


@given(_operators, _operators, _functions)
@settings(max_examples=150, deadline=None)
def test_the_product_acts_as_the_composition(A, B, f):
    assert composes(A, B, f)


def test_the_oracle_kills_a_product_that_drops_a_leibniz_weight(monkeypatch):
    # the mutant weighs the terms with one derivative out of two by 1, not 2
    monkeypatch.setattr(diffop2, "comb", lambda n, k: 1 if (n, k) == (2, 1) else comb(n, k))
    r = CoeffFn.x_pow(1)
    A, B = DiffOp2({(0, 2): CoeffFn.one()}), DiffOp2.function(r * r)
    # d_r^2 o r^2 = r^2 d_r^2 + 4 r d_r + 2 sends r to 6 r; the mutant's 2 r d_r gives 4 r
    assert applied(dop_mul(A, B), r) == r * 4
    assert not composes(A, B, r)
    A, B, f = find(st.tuples(_operators, _operators, _functions), lambda abf: not composes(*abf),
                   settings=settings(max_examples=2000, database=None))
    assert not composes(A, B, f)


def test_sums_that_cancel_leave_no_entry():
    A = DiffOp2({(1, 0): CoeffFn.t_pow(2), (0, 1): CoeffFn.mono(1, 1), (0, 0): CoeffFn.one()})
    assert (A + (-A)).terms == {}
    assert (A - A).terms == {}
    assert dop_bracket(A, A).terms == {}


def test_a_product_whose_contributions_to_one_key_cancel_leaves_no_entry():
    # (r d_r - 1) o r = r^2 d_r + r - r: the two order-0 terms cancel
    r = CoeffFn.x_pow(1)
    got = dop_mul(DiffOp2({(0, 1): r, (0, 0): CoeffFn.const(-1)}), DiffOp2.function(r))
    assert got.terms == {(0, 1): r * r}


_t, _r = CoeffFn.t_pow(1), CoeffFn.x_pow(1)


@pytest.mark.parametrize("c, shown", [
    ((2 + M * M) * _t, "(2 + M^2)*t*d_r"),
    (CoeffFn.const(GaussRat(1, 1)), "(1 + i)*d_r"),
    (GaussRat(1, 1) * _t * _r, "(1 + i)*t*r*d_r"),
    ((1 + M) * _r * _r, "(1 + M)*r^2*d_r"),
    (1 + M, "(1 + M)*d_r"),
    (_t + _r, "(r + t)*d_r"),
    (-_t, "-t*d_r"),
    (M * _t, "M*t*d_r"),
])
def test_a_coefficient_is_wrapped_only_when_it_has_two_monomials(c, shown):
    # as symbol_str prints the same coefficient at d_r
    assert str(DiffOp2({(0, 1): c})) == shown
    assert symbol_str(Symbol(R, {h(1): c})) == f"{shown} | exact"
    assert str(DiffOp2({(1, 1): c})) == shown.replace("d_r", "d_t*d_r")


class TestOperatorAction:
    """d_pi intertwines the algebra bracket with the operator bracket."""

    def test_shift_pair_closes_on_phase(self):
        # the bracket of the two lowest shift operators is the constant iM
        mu = CoeffFn.zero()
        a = d_pi(mu, SvElement(g=CoeffFn.t_pow(1)))
        b = d_pi(mu, SvElement(g=CoeffFn.one()))
        got = dop_bracket(a, b)
        assert got == DiffOp2({(0, 0): I_M})
        assert got == d_pi(mu, phase_mode(0))

    @pytest.mark.parametrize("mu", [Fraction(0), Fraction(1, 4), Fraction(1)])
    def test_representation_property(self, mu):
        mus = CoeffFn.const(mu)
        basis = [
            time_mode(-1),
            time_mode(0),
            time_mode(2),
            shift_mode(h("-1/2")),
            shift_mode(h("3/2")),
            phase_mode(1),
        ]
        for X in basis:
            for Y in basis:
                lhs = dop_bracket(d_pi(mus, X), d_pi(mus, Y))
                rhs = d_pi(mus, sv_bracket(X, Y))
                assert lhs == rhs, (str(X), str(Y))

    def test_mu_term_present(self):
        # the weight enters only through the time part
        mu = CoeffFn.const(Fraction(1, 4))
        op = d_pi(mu, time_mode(1))  # f = t^2, f' = 2t
        zero_wt = d_pi(CoeffFn.zero(), time_mode(1))
        diff = op - zero_wt
        assert diff == DiffOp2({(0, 0): CoeffFn.t_pow(1, Fraction(-1, 2))})


def test_embedding_of_space_symbols():
    sym = Symbol(R, {h(2): CoeffFn.x_pow(1), h(0): CoeffFn.t_pow(1)})
    op = dop_from_r_symbol(sym)
    assert op == DiffOp2({(0, 2): CoeffFn.x_pow(1), (0, 0): CoeffFn.t_pow(1)})
    with pytest.raises(ValueError):
        dop_from_r_symbol(Symbol(R, {h(-1): CoeffFn.one()}))
