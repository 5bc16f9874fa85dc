"""HalfInt hashing: equal numbers hash alike across int, Fraction and HalfInt."""

import sys
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from svpsido.halfint import HalfInt

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
