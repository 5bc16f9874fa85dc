"""The int rows that each Symbol keeps for the composition and transform
kernels (psido.term_rows), and the edges of psido.symbol_from_tables.

A symbol flattens its terms on the first read and keeps the rows.  They
must equal a fresh flattening of its terms, on inputs and on every result
that the kernels wrap, and each operation that reads them must give the
same answer on a warmed operand as on a fresh copy that nothing has read.
The rows carry no sign, so the bracket's second product is checked against
the difference of the two products.
"""

from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from svpsido import transforms as tr
from svpsido.halfint import EXACT, HalfInt, h
from svpsido.kacmoody import GElement, g_bracket
from svpsido.psido import (
    R,
    XI,
    Symbol,
    cap_order,
    raise_floor,
    sym_add,
    sym_bracket,
    sym_mul,
    sym_neg,
    sym_sub,
    symbol_from_tables,
    term_rows,
)
from svpsido.ring import CoeffFn, GaussRat

REQ = h(-4)
C2 = GaussRat(2)

gauss = st.builds(
    GaussRat,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.sampled_from([0, 0, 1, F(-1, 2)]),
).filter(lambda g: not g.is_zero())
coeffs = st.dictionaries(
    st.tuples(st.integers(-1, 1), st.integers(-2, 2), st.integers(-1, 1)),
    gauss,
    min_size=1,
    max_size=3,
).map(CoeffFn)
floors = st.one_of(st.none(), st.integers(-6, 0).map(HalfInt))


def symbols(var, orders):
    """Symbols of 0 to 3 orders, exact or floored; a zero may carry a floor."""
    return st.builds(lambda terms, floor: Symbol(var, terms, floor),
                     st.dictionaries(orders, coeffs, max_size=3), floors)


momentum = symbols(XI, st.integers(-4, 4).map(HalfInt))
space = symbols(R, st.integers(-3, 1).map(HalfInt.of))  # order at most 1, as in GElement
loops = st.one_of(st.none(), coeffs.map(lambda c: c.x_slice(0)))  # t-only, maybe zero

FLOORED = Symbol(XI, {HalfInt(3): CoeffFn.x_pow(-1, 2), HalfInt(-1): CoeffFn.mono(1, 2)},
                 HalfInt(-3))
ZERO_WITH_FLOOR = Symbol(XI, {}, HalfInt(-2))
SPACE = Symbol(R, {HalfInt(2): CoeffFn.x_pow(1), HalfInt(-2): CoeffFn.x_pow(-1, F(1, 3))})


def flattened(X: Symbol) -> list:
    """X's rows, flattened afresh from its terms."""
    return [(k.twice, [(p, q, m, v._a, v._b, v._d) for (p, q, m), v in c.terms.items()])
            for k, c in X.terms.items()]


def fresh(X: Symbol) -> Symbol:
    return Symbol(X.var, dict(X.terms), X.floor)


def outcome(op, *args):
    """op's result, or the text of the ValueError it raised."""
    try:
        return op(*args)
    except ValueError as exc:
        return str(exc)


def same(got, want) -> bool:
    """Equal values, and equal symbols keep their orders in the same order."""
    if got != want:
        return False
    if isinstance(got, Symbol):
        return list(got.terms) == list(want.terms)
    if isinstance(got, GElement):
        return list(got.W.terms) == list(want.W.terms)
    return True


def check_rows(*syms):
    for X in syms:
        if isinstance(X, Symbol):
            rows = term_rows(X)
            assert rows == flattened(X)
            assert term_rows(X) is rows


OPS = (
    ("A o B", lambda A, B, P, Q, f, g: sym_mul(A, B, REQ)),
    ("B o A", lambda A, B, P, Q, f, g: sym_mul(B, A, REQ)),
    ("A o A", lambda A, B, P, Q, f, g: sym_mul(A, A, REQ)),
    ("[A, B]", lambda A, B, P, Q, f, g: sym_bracket(A, B, REQ)),
    ("g_bracket", lambda A, B, P, Q, f, g: g_bracket(GElement(f, P), GElement(g, Q), C2, REQ)),
    ("theta", lambda A, B, P, Q, f, g: tr.theta(A)),
    ("theta floored", lambda A, B, P, Q, f, g: tr.theta(A, REQ)),
    ("theta_t", lambda A, B, P, Q, f, g: tr.theta_t(A, REQ)),
    ("theta_inv", lambda A, B, P, Q, f, g: tr.theta_inv(P, REQ)),
)


@settings(max_examples=60, deadline=None)
@given(momentum, momentum, space, space, loops, loops)
@example(FLOORED, ZERO_WITH_FLOOR, SPACE, Symbol(R, {}, HalfInt(-2)), None, CoeffFn.t_pow(1))
@example(ZERO_WITH_FLOOR, FLOORED, Symbol(R, {}, HalfInt(-2)), SPACE, CoeffFn.t_pow(-1), None)
@example(FLOORED, FLOORED, SPACE, SPACE, None, None)
def test_warmed_and_fresh_operands_agree(A, B, P, Q, f, g):
    check_rows(A, B, P, Q)  # warms the operands
    for name, op in OPS:
        want = outcome(op, fresh(A), fresh(B), fresh(P), fresh(Q), f, g)
        got = outcome(op, A, B, P, Q, f, g)
        assert same(got, want), name
        if isinstance(got, GElement):
            check_rows(got.W, want.W)
        else:
            check_rows(got, want)
    # results that keep some of an operand's orders get rows of their own
    check_rows(sym_add(A, B), sym_sub(A, B), sym_neg(A), cap_order(A, 0), raise_floor(A, -1))


@settings(max_examples=60, deadline=None)
@given(momentum, momentum)
@example(FLOORED, ZERO_WITH_FLOOR)
def test_the_bracket_is_the_difference_of_its_products(A, B):
    term_rows(A)
    got = sym_bracket(A, B, REQ)
    assert got == sym_sub(sym_mul(A, B, REQ), sym_mul(B, A, REQ))
    check_rows(got)


def test_image_rows_match_their_terms():
    for q in range(-6, 7):
        check_rows(tr._theta_images.image(q))
    for n in range(-3, 4):
        check_rows(tr._inv_image(n, REQ))


# ---- symbol_from_tables --------------------------------------------------------------------


def test_an_order_past_the_interned_range_gets_an_equal_key():
    one = {(0, 0, 0): GaussRat(1)}
    X = symbol_from_tables(R, {600: dict(one), -600: dict(one), 2: dict(one)}, EXACT)
    keys = list(X.terms)
    assert keys == [HalfInt(600), HalfInt(-600), HalfInt(2)]
    assert all(k.__class__ is HalfInt for k in keys)
    assert keys[2] is HalfInt(2)  # interned
    assert X.coeff(h(300)) == CoeffFn.one() and X.coeff(h(-300)) == CoeffFn.one()
    assert X == Symbol(R, {h(300): 1, h(-300): 1, h(1): 1})


def test_empty_tables_and_orders_below_the_floor_are_dropped():
    one = {(0, 1, 0): GaussRat(1)}
    tables = {4: dict(one), 2: {}, 0: dict(one), -2: dict(one), -4: dict(one)}
    X = symbol_from_tables(XI, tables, HalfInt(-2))
    assert list(X.terms) == [HalfInt(4), HalfInt(0), HalfInt(-2)]
    assert X.floor == HalfInt(-2)
    assert symbol_from_tables(XI, tables, EXACT).terms.keys() == {
        HalfInt(4), HalfInt(0), HalfInt(-2), HalfInt(-4)}
    empty = symbol_from_tables(XI, {0: {}, -6: dict(one)}, HalfInt(-5))
    assert empty.is_zero() and empty.floor == HalfInt(-5)
