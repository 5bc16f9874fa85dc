"""Bilinear central terms on the order-capped symbol quotient.

Each functional reads only the order 1, 0, -1 slots of its two arguments,
so every check here runs on symbols with exactly those slots populated.
Oracles are short residue computations done by hand in the docstrings.
"""

import itertools

import pytest

from svpsido.cocycles import CocycleId, cocycle_identity_defect, eval_cocycle
from svpsido.halfint import h
from svpsido.psido import R, XI, Symbol, sym_bracket
from svpsido.ring import CoeffFn


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


class TestDomainGuards:
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
