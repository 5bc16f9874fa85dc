"""Bilinear central terms on the order-capped symbol quotient.

Each functional reads only the order 1, 0, -1 slots of its two arguments,
so every check here runs on symbols with exactly those slots populated.
Oracles are short residue computations done by hand in the docstrings,
and a product-then-residue reference (tests/reference.py) that builds
every derivative, product and difference before it keeps the x^-1 slice.
"""

import itertools
import re
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import reference_cocycle
from strategies import coeff_fns
from svpsido.cocycles import (
    CocycleId,
    cocycle_identity_defect,
    cyclic_defect,
    eval_cocycle,
    quotient_bracket,
)
from svpsido.halfint import EXACT, HalfInt, h
from svpsido.psido import R, XI, Symbol, sym_bracket
from svpsido.ring import CoeffFn, GaussRat


def slot_symbol(**slots):
    """Build an R-symbol from order -> (t power, r power) pairs."""
    terms = {}
    for name, (qt, qr) in slots.items():
        order = {"up": h(1), "mid": h(0), "down": h(-1)}[name]
        terms[order] = CoeffFn.mono(qt, qr)
    return Symbol(R, terms)


def t_mono(power, value):
    return CoeffFn.t_pow(power, value)


class TestCuratedValues:
    """One hand-checked nonzero value per functional."""

    def test_third_derivative_pairing(self):
        # res((r^3)''' r^-1) = res(6 r^-1) = 6
        A = slot_symbol(up=(0, 3))
        B = slot_symbol(up=(0, -1))
        assert eval_cocycle(CocycleId.C0, A, B) == t_mono(0, 6)

    def test_second_derivative_cross_slot(self):
        # res((r^2)'' r^-1) = res(2 r^-1) = 2
        A = slot_symbol(up=(0, 2))
        B = slot_symbol(mid=(0, -1))
        assert eval_cocycle(CocycleId.C1, A, B) == t_mono(0, 2)

    def test_top_bottom_product(self):
        # res(r * r^-2) = 1
        A = slot_symbol(up=(0, 1))
        B = slot_symbol(down=(0, -2))
        assert eval_cocycle(CocycleId.C2, A, B) == t_mono(0, 1)

    def test_derived_top_bottom_product(self):
        # res((r^2)' r^-2) = res(2 r^-1) = 2
        A = slot_symbol(up=(0, 2))
        B = slot_symbol(down=(0, -2))
        assert eval_cocycle(CocycleId.C3, A, B) == t_mono(0, 2)

    def test_wronskian_of_middles(self):
        # res((r^-2)' r^2 - (r^2)' r^-2) = res(-2 r^-1 - 2 r^-1) = -4
        A = slot_symbol(mid=(0, 2))
        B = slot_symbol(mid=(0, -2))
        assert eval_cocycle(CocycleId.C4, A, B) == t_mono(0, -4)

    def test_middle_bottom_product(self):
        # res(r * r^-2) = 1
        A = slot_symbol(mid=(0, 1))
        B = slot_symbol(down=(0, -2))
        assert eval_cocycle(CocycleId.C5, A, B) == t_mono(0, 1)

    def test_loop_coefficients_multiply(self):
        # the t-dependence rides along: res picks up t^(a+b)
        A = slot_symbol(up=(1, 2))
        B = slot_symbol(down=(2, -2))
        assert eval_cocycle(CocycleId.C3, A, B) == t_mono(3, 2)

    def test_symmetric_clause(self):
        # with the order 1 slot on the right instead: res(f' g) again
        A = slot_symbol(down=(0, -2))
        B = slot_symbol(up=(0, 2))
        assert eval_cocycle(CocycleId.C3, A, B) == t_mono(0, -2)


def box():
    out = []
    for order in (h(1), h(0), h(-1)):
        for qr in (-2, -1, 0, 1, 2):
            out.append(Symbol(R, {order: CoeffFn.mono(0, qr)}))
    return out


@pytest.mark.parametrize("cid", list(CocycleId))
def test_antisymmetry(cid):
    els = box()
    for A, B in itertools.combinations_with_replacement(els, 2):
        assert eval_cocycle(cid, A, B) == -eval_cocycle(cid, B, A)


@pytest.mark.parametrize("cid", list(CocycleId))
def test_cocycle_identity(cid):
    # sum over cyclic rotations of c([A, B], C) vanishes identically
    els = [Symbol(R, {order: CoeffFn.mono(0, qr)})
           for order in (h(1), h(0), h(-1)) for qr in (-2, 0, 1, 2)]
    for A, B, C in itertools.combinations(els, 3):
        defect = cocycle_identity_defect(cid, A, B, C)
        assert defect.is_zero(), f"{A} {B} {C}: {defect}"


def test_identity_with_loop_coefficients():
    els = [Symbol(R, {h(1): CoeffFn.mono(1, 2)}),
           Symbol(R, {h(0): CoeffFn.mono(2, -1)}),
           Symbol(R, {h(-1): CoeffFn.mono(-1, -2)}),
           Symbol(R, {h(1): CoeffFn.mono(0, -1), h(-1): CoeffFn.mono(1, 1)})]
    for cid in CocycleId:
        for A, B, C in itertools.combinations(els, 3):
            assert cocycle_identity_defect(cid, A, B, C).is_zero()


# ---- against the product-then-residue reference ----------------------------


def _no_arithmetic(*args):
    raise AssertionError("the cocycle built a product, sum, derivative or residue")


fracs = st.builds(F, st.integers(min_value=-20, max_value=20), st.integers(min_value=1, max_value=6))
gauss = st.builds(GaussRat, fracs, fracs)
# x-powers -4..4 reach the zero of (q)_3 at q = 0, 1, 2 from both sides
slot_coeffs = coeff_fns((-2, 2), (-4, 4), (-1, 1), gauss, max_size=4)
slot_symbols = st.builds(
    lambda up, mid, down, floored: Symbol(
        R, {1: up, 0: mid, -1: down}, h(-1) if floored else EXACT
    ),
    slot_coeffs,
    slot_coeffs,
    slot_coeffs,
    st.booleans(),
)


@settings(max_examples=150, deadline=None)
@given(slot_symbols, slot_symbols)
@example(  # in c0, x^2 meets x^0 with (2)_3 = 0, x^3 meets x^-1 and x^-2 meets x^4
    Symbol(R, {1: CoeffFn({(0, 2, 0): GaussRat(1), (1, 3, 0): GaussRat(2), (0, -2, 1): GaussRat(0, 1)})}),
    Symbol(R, {1: CoeffFn({(0, 0, 0): GaussRat(3), (0, -1, 0): GaussRat(F(1, 2)), (-1, 4, -1): GaussRat(5)})}),
)
@example(  # A = B, one of them floored: every two-half cocycle cancels to 0
    Symbol(R, {1: CoeffFn.x_pow(1), -1: CoeffFn.x_pow(-2)}),
    Symbol(R, {1: CoeffFn.x_pow(1), -1: CoeffFn.x_pow(-2)}, h(-1)),
)
def test_eval_cocycle_matches_product_then_residue(A, B):
    want = {cid: reference_cocycle(cid, A, B) for cid in CocycleId}
    # c(A, B) + c(A, A) + c(B, B), as cyclic_defect sums its three values
    want_sum = {
        cid: want[cid] + reference_cocycle(cid, A, A) + reference_cocycle(cid, B, B)
        for cid in CocycleId
    }
    with pytest.MonkeyPatch.context() as mp:
        for name in ("__mul__", "__add__", "deriv", "residue"):
            mp.setattr(CoeffFn, name, _no_arithmetic)
        got = {cid: eval_cocycle(cid, A, B) for cid in CocycleId}
        got_sum = {cid: cyclic_defect(cid, A, B, B, A, A, B) for cid in CocycleId}
    # dict equality: same monomials, no zero left in, every x-power 0
    assert {cid: c.terms for cid, c in got.items()} == {cid: c.terms for cid, c in want.items()}
    assert {cid: c.terms for cid, c in got_sum.items()} == {
        cid: c.terms for cid, c in want_sum.items()
    }


def test_c2_is_the_coboundary_of_the_x_moment():
    """c2(A, B) = -res(x [A, B]_{-1}) on every pair of the loop box; c3,
    which is not a coboundary, fails it on 216 of the 3,969 pairs."""
    els = [
        Symbol(R, {h(k): CoeffFn.mono(s, p)})
        for s in (-1, 0, 2)
        for p in range(-3, 4)
        for k in (-1, 0, 1)
    ]
    x = CoeffFn.x_pow(1)
    misses = {CocycleId.C2: 0, CocycleId.C3: 0}
    for A, B in itertools.product(els, repeat=2):
        moment = -(x * quotient_bracket(A, B).coeff(-1)).residue("X")
        for cid in misses:
            misses[cid] += eval_cocycle(cid, A, B) != moment
    assert misses == {CocycleId.C2: 0, CocycleId.C3: 216}


class TestDomainGuards:
    @pytest.mark.parametrize(
        "D, message",
        [
            (Symbol(XI, {h(1): CoeffFn.one()}), "cocycles are defined on space symbols"),
            (Symbol(XI, {h(2): CoeffFn.one()}, h(0)), "cocycles are defined on space symbols"),
            (Symbol(R, {h(2): CoeffFn.one()}), "cocycles live on symbols of order <= 1"),
            (Symbol(R, {h(2): CoeffFn.one()}, h(0)), "cocycles live on symbols of order <= 1"),
            (
                Symbol(R, {h(1): CoeffFn.mono(0, 1)}, HalfInt(-1)),
                "slot at order -1 is untrusted; deepen the floor",
            ),
        ],
    )
    def test_trust_checks_keep_their_messages(self, D, message):
        # the first failing check names the error, on either side
        B = slot_symbol(down=(0, -2))
        for args in ((D, B), (B, D)):
            for evaluate in (reference_cocycle, eval_cocycle):
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    evaluate(CocycleId.C3, *args)

    def test_rejects_order_two(self):
        A = Symbol(R, {h(2): CoeffFn.one()})
        B = slot_symbol(up=(0, 1))
        with pytest.raises(ValueError):
            eval_cocycle(CocycleId.C2, A, B)

    def test_rejects_momentum_side_symbols(self):
        A = Symbol(XI, {h(1): CoeffFn.one()})
        with pytest.raises(ValueError):
            eval_cocycle(CocycleId.C0, A, A)

    def test_rejects_shallow_floor(self):
        # a floor above -1 hides the bottom slot the functionals read
        A = Symbol(R, {h(1): CoeffFn.mono(0, 1)}, floor=h(0))
        B = slot_symbol(down=(0, -2))
        with pytest.raises(ValueError):
            eval_cocycle(CocycleId.C2, A, B)

    @pytest.mark.parametrize("cid", ["c3", 3, None, CocycleId], ids=repr)
    def test_refuses_a_value_that_is_no_cocycle(self, cid):
        # a member's value, or anything else that is not a member
        A = slot_symbol(up=(0, 1), down=(0, -2))
        with pytest.raises(ValueError, match=f"^unknown cocycle {re.escape(repr(cid))}$"):
            eval_cocycle(cid, A, A)
        with pytest.raises(ValueError, match=f"^unknown cocycle {re.escape(repr(cid))}$"):
            cyclic_defect(cid, A, A, A, A, A, A)

    def test_members_keep_their_values(self):
        assert [c.value for c in CocycleId] == ["c0", "c1", "c2", "c3", "c4", "c5"]
        assert CocycleId("c3") is CocycleId.C3
        assert repr(CocycleId.C3) == "<CocycleId.C3: 'c3'>"

    def test_accepts_floor_minus_one(self):
        A = Symbol(R, {h(1): CoeffFn.mono(0, 1)}, floor=h(-1))
        B = slot_symbol(down=(0, -2))
        assert eval_cocycle(CocycleId.C2, A, B) == t_mono(0, 1)


def test_vanishes_on_nonnegative_powers():
    """Every functional needs an r^-1 residue, so pairs of symbols whose
    coefficients are polynomial in r pair to zero under C2, C3, C5."""
    els = [Symbol(R, {order: CoeffFn.mono(0, qr)})
           for order in (h(1), h(0)) for qr in (0, 1, 2)]
    for cid in (CocycleId.C2, CocycleId.C3, CocycleId.C5):
        for A, B in itertools.combinations(els, 2):
            assert eval_cocycle(cid, A, B).is_zero()


def test_bracket_compatibility_floor():
    """The identity defect evaluates brackets on the quotient: a floor at
    -1 keeps exactly the slots the functionals read."""
    A = Symbol(R, {h(1): CoeffFn.mono(0, 2)})
    B = Symbol(R, {h(-1): CoeffFn.mono(0, -2)})
    br = sym_bracket(A, B, h(-1))
    assert br.floor == h(-1)
    # and the identity still cancels through the truncation
    C = Symbol(R, {h(0): CoeffFn.mono(0, -1)})
    for cid in CocycleId:
        assert cocycle_identity_defect(cid, A, B, C).is_zero()
