"""Hypothesis strategies for CoeffFn values that several test files share.

Exponent ranges are inclusive (low, high) pairs.  Each file passes its own
ranges, coefficient strategy and sizes, so that each keeps the inputs its
oracle needs.
"""

from hypothesis import strategies as st

from svpsido.halfint import EXACT, HalfInt
from svpsido.psido import R, XI, Symbol
from svpsido.ring import CoeffFn


def coeff_fns(tpows, xpows, mpows, values, min_size=0, max_size=3):
    """CoeffFns of min_size to max_size monomials t^p x^q M^m with coefficients from values."""
    keys = st.tuples(st.integers(*tpows), st.integers(*xpows), st.integers(*mpows))
    return st.dictionaries(keys, values, min_size=min_size, max_size=max_size).map(CoeffFn)


def _from_rows(rows: dict) -> CoeffFn:
    """A CoeffFn from (t, x) -> {M-power: coefficient}."""
    return CoeffFn({(p, q, m): g for (p, q), row in rows.items() for m, g in row.items()})


def coeff_rows(tpows, xpows, masses, min_size=0, max_size=3):
    """CoeffFns of min_size to max_size (t, x) monomials, each a row M-power -> coefficient
    drawn from masses, so that one (t, x) monomial often carries several M-powers."""
    keys = st.tuples(st.integers(*tpows), st.integers(*xpows))
    return st.dictionaries(keys, masses, min_size=min_size, max_size=max_size).map(_from_rows)


@st.composite
def symbols(draw, coeffs, twice_orders=(-5, 5), max_orders=3, var=None, exact=False):
    """Symbols in both algebras, or in var alone when given, exact or
    floored: up to max_orders orders, each twice an int in twice_orders
    (even in the R algebra) with a coefficient from coeffs, and no floor
    or, unless exact, one in that range, which drops the orders below it."""
    if var is None:
        var = draw(st.sampled_from((R, XI)))
    twice = st.integers(*twice_orders)
    if var == R:
        twice = twice.map(lambda k: k - k % 2)
    rows = draw(st.dictionaries(twice.map(HalfInt), coeffs, max_size=max_orders))
    return Symbol(var, rows, EXACT if exact else draw(st.one_of(st.just(EXACT), twice.map(HalfInt))))
