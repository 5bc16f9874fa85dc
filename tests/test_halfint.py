"""HalfInt hashing: equal numbers hash alike across int, Fraction and
HalfInt, and a HalfInt finds the dict entry of an equal int."""

import copy
import operator
import pickle
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from svpsido.halfint import HalfInt, h, order_str
from svpsido.suites import VerifyConfig

P = sys.hash_info.modulus


@given(st.integers() | st.integers(min_value=-(2**200), max_value=2**200))
def test_hash_matches_the_fraction_of_equal_value(t):
    assert hash(HalfInt(t)) == hash(F(t, 2))


@pytest.mark.parametrize(
    "t",
    [0, 1, -1, 2, -2, 3, -3, P, -P, P + 2, -(P + 2), 2 * P, -2 * P, 2 * P + 4, -(2 * P + 4),
     2**64 + 1, -(2**64) - 1, 2**65, -(2**65), 2**127 - 1, -(2**127) + 1],
)
def test_hash_at_the_edges(t):
    assert hash(HalfInt(t)) == hash(F(t, 2))


def test_values_whose_hash_would_be_minus_one():
    # -1 is reserved for errors, so -1 and -(P + 2)/2 hash to -2
    for t in (-2, -(P + 2), -(2 * P + 2)):
        assert hash(F(t, 2)) == -2
        assert hash(HalfInt(t)) == -2


def test_dict_lookup_across_int_and_halfint():
    # HalfInt compares equal to ints, so each finds the other's entry
    assert {HalfInt(4): "v"}[2] == "v"
    assert {-3: "w"}[HalfInt(-6)] == "w"
    assert {HalfInt(5): "h"}[HalfInt(5)] == "h"


# ---- small and large values ------------------------------------------------------

# values around twice order 256, past the highest order of a generator
# image (powers up to 64, doubled by the transform), and far beyond it
BOUND = 512
EDGES = [0, 1, -1, BOUND - 1, BOUND, -BOUND + 1, -BOUND]
OUTSIDE = [BOUND + 1, -BOUND - 1, BOUND + 2, -BOUND - 2, 10**6 + 1, -(10**30)]


@pytest.mark.parametrize("t", OUTSIDE)
def test_values_outside_the_bound_are_equal_but_distinct(t):
    a, b = HalfInt(t), HalfInt(t)
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert a.twice == t


@pytest.mark.parametrize("t", EDGES + OUTSIDE)
def test_hash_contract_on_both_sides_of_the_bound(t):
    assert hash(HalfInt(t)) == hash(F(t, 2))
    if t % 2 == 0:
        assert hash(HalfInt(t)) == hash(t // 2)


@pytest.mark.parametrize("t", [2, -2, BOUND, -BOUND, BOUND + 2, -BOUND - 2, 10**6])
def test_dict_lookups_on_both_sides_of_the_bound(t):
    n = t // 2
    assert {HalfInt(t): "v"}[n] == "v"
    assert {n: "w"}[HalfInt(t)] == "w"
    assert {HalfInt(t): "h"}[HalfInt(t)] == "h"
    assert {HalfInt(t + 1): "o"}[HalfInt(t + 1)] == "o"
    # order -1 and order -2 share a hash, as -1 and -2 do
    assert {HalfInt(-2): "a", HalfInt(-4): "b"}[HalfInt(-4)] == "b"


@pytest.mark.parametrize("t", [3, BOUND, BOUND + 1, -BOUND - 1])
def test_slots_cannot_be_assigned(t):
    x = HalfInt(t)
    for name in ("twice", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
    assert x.twice == t and HalfInt(t).twice == t


def test_non_int_twice_is_refused():
    for bad in (1.0, F(1), "2", None):
        with pytest.raises(TypeError):
            HalfInt(bad)


@pytest.mark.parametrize("t", EDGES + OUTSIDE)
def test_orders_print_from_their_twice_int(t):
    assert order_str(t) == str(HalfInt(t)) == str(F(t, 2))
    assert h(str(HalfInt(t))) == HalfInt(t)


# ---- copies and parsing ----------------------------------------------------------


def _pickled(x):
    return pickle.loads(pickle.dumps(x))


@pytest.mark.parametrize("t", [3, -7])
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, _pickled])
def test_copies_and_pickles_rebuild_an_equal_value(t, clone):
    # __setattr__ refuses, so a copy is built through __init__
    x = clone(HalfInt(t))
    assert type(x) is HalfInt and x == HalfInt(t) and x.twice == t


def test_a_config_that_holds_a_floor_pickles():
    cfg = VerifyConfig(floor=h("-9/2"))
    assert _pickled(cfg) == cfg


@pytest.mark.parametrize("text", ["-\u0667/\u0662", "-7/\u0662", "-\u0667/2", " -7 / 2 "])
def test_parse_reads_a_denominator_in_any_decimal_digits(text):
    # as the calculator's grammar reads d_xi^\u0667/\u0662
    assert HalfInt.parse(text) == HalfInt(-7)


@pytest.mark.parametrize("text", ["-7/3", "-7/\u0663", "-7/+2", "-7/2_0", "-7/", "-7/2/2"])
def test_parse_refuses_other_denominators(text):
    with pytest.raises(ValueError):
        HalfInt.parse(text)


# ---- ordering ---------------------------------------------------------------------

ORDERS = (operator.lt, operator.le, operator.gt, operator.ge)


@given(st.integers(min_value=-9, max_value=9), st.integers(min_value=-9, max_value=9))
def test_order_comparisons_agree_with_the_fraction(t, u):
    x, fx = HalfInt(t), F(t, 2)
    for other, value in ((HalfInt(u), F(u, 2)), (u, F(u))):
        for op in ORDERS:
            assert op(x, other) == op(fx, value) and op(other, x) == op(value, fx)


@pytest.mark.parametrize("other", [F(1, 2), 0.5, "1/2"])
@pytest.mark.parametrize("op", ORDERS)
def test_order_comparisons_with_other_types_raise(other, op):
    with pytest.raises(TypeError):
        op(HalfInt(1), other)
    with pytest.raises(TypeError):
        op(other, HalfInt(1))
