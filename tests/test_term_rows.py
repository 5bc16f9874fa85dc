"""The flat term dict that each Symbol stores (psido.Symbol.flat), the
int-keyed view built from it (Symbol.rows), psido.symbol_from_flat, and the retired
nested-table path (tests/reference.py) as an oracle for composition and
the transform.

A symbol keeps its terms in one dict from (twice the order, t, x, M) to
the reduced int triple (a, b, d) of a nonzero GaussRat, and its floor as
twice its value, the int Symbol.low (None for EXACT).  On inputs and on
every symbol that the kernels wrap (every Symbol._raw call, watched by
every_wrap_checked), each value in that dict must be such a triple
(d > 0, gcd(a, b, d) = 1, a or b nonzero), low must be None or an int,
no order may lie below it, the public floor must be the HalfInt of low
(None exactly when low is None), and the rows view
must equal a fresh grouping of it by twice the order, be kept once built
(also beside the quotient slots), share its triples, and agree with the
public accessors: terms (its HalfInt-keyed copy, which rebuilds the same
symbol through the public constructor), coeff, top and bottom.  Each operation must give the
same answer on an operand whose view was read as on a fresh copy, and the
same terms and floor as the per-order tables that composition and the
transform used before the flat dict.  The triple helpers and the
kernels' sums, after the one reducer, are checked against GaussRat
arithmetic, and the reducer on its own.
"""

import contextlib
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference as ref
from strategies import coeff_fns
from svpsido import transforms as tr
from svpsido.cocycles import _slots
from svpsido.halfint import EXACT, HalfInt, h
from svpsido.kacmoody import GElement, g_bracket
from svpsido.psido import (
    R,
    XI,
    Symbol,
    cap_order,
    sym_bracket,
    sym_mul,
    symbol_from_flat,
)
from svpsido.ring import (
    CoeffFn,
    GaussRat,
    gauss_of,
    leibniz_rows,
    reduce_flat,
    scale_into,
    transport_into,
    triple_of,
)

REQ = h(-4)
C2 = GaussRat(2)

gauss = st.builds(
    GaussRat,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.sampled_from([0, 0, 1, F(-1, 2)]),
).filter(lambda g: not g.is_zero())
coeffs = coeff_fns((-1, 1), (-2, 2), (-1, 1), gauss, min_size=1)
floors = st.one_of(st.none(), st.integers(-6, 0).map(HalfInt))


def symbols(var, orders, floor=floors):
    """Symbols of 0 to 3 orders, exact or floored; a zero may carry a floor."""
    return st.builds(lambda terms, floor: Symbol(var, terms, floor),
                     st.dictionaries(orders, coeffs, max_size=3), floor)


momentum = symbols(XI, st.integers(-4, 4).map(HalfInt))
space = symbols(R, st.integers(-3, 1).map(HalfInt.of))  # order at most 1, as in GElement
exact_momentum = symbols(XI, st.integers(-4, 4).map(HalfInt), st.none())
exact_space = symbols(R, st.integers(-3, 2).map(HalfInt.of), st.none())
loops = st.one_of(st.none(), coeffs.map(lambda c: c.x_slice(0)))  # t-only, maybe zero
requests = st.sampled_from([None, h(-2), REQ])

FLOORED = Symbol(XI, {HalfInt(3): CoeffFn.x_pow(-1, 2), HalfInt(-1): CoeffFn.mono(1, 2)},
                 HalfInt(-3))
ZERO_WITH_FLOOR = Symbol(XI, {}, HalfInt(-2))
SPACE = Symbol(R, {HalfInt(2): CoeffFn.x_pow(1), HalfInt(-2): CoeffFn.x_pow(-1, F(1, 3))})
MOMENTUM = Symbol(XI, {HalfInt(1): CoeffFn.x_pow(-2) + CoeffFn.mono(1, 1, 3),
                       HalfInt(-3): CoeffFn.x_pow(2, GaussRat(0, 1))})


def value(t: tuple) -> GaussRat:
    """The GaussRat (a + i*b)/d of a triple, through Fractions."""
    a, b, d = t
    return GaussRat(F(a, d), F(b, d))


def reduced(t) -> bool:
    """Whether t is a reduced nonzero triple of ints (a, b, d): d > 0,
    gcd(a, b, d) == 1 and a or b nonzero."""
    return (t.__class__ is tuple and len(t) == 3 and all(v.__class__ is int for v in t)
            and t[2] > 0 and gcd(*t) == 1 and (t[0] != 0 or t[1] != 0))


def grouped(X: Symbol) -> dict:
    """X's terms grouped afresh by twice the order, as rows() must give
    them."""
    out: dict = {}
    for (o, p, q, m), v in X.flat.items():
        out.setdefault(o, {})[(p, q, m)] = value(v)
    return {k: CoeffFn(c) for k, c in out.items()}


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


def check_flat(*syms):
    """An int floor or None, the public floor its HalfInt, only reduced
    nonzero triples and nothing below the floor in the flat dict; a kept
    rows view that equals a fresh grouping, shares the flat dict's
    triples, gives the cocycles' quotient slots where they are defined
    (and is refused where not), and agrees with terms, coeff, top
    and bottom, and a terms view that rebuilds the same symbol."""
    for X in syms:
        if isinstance(X, GElement):
            X = X.W
        if not isinstance(X, Symbol):
            continue
        low = X.low
        assert low is None or low.__class__ is int, low
        assert (X.floor is None) == (low is None)
        assert low is None or (X.floor.__class__ is HalfInt and X.floor.twice == low)
        for (o, p, q, m), v in X.flat.items():
            assert reduced(v), v
            assert low is None or o >= low
            assert X.var == XI or o % 2 == 0
        rows = X.rows()
        assert dict(rows) == grouped(X)
        assert list(rows) == list(grouped(X))
        assert X.rows() is rows
        assert all(rows[o].terms[(p, q, m)] is v for (o, p, q, m), v in X.flat.items())
        if X.var == R and all(o <= 2 for o in rows) and (low is None or low <= -2):
            up, mid, down = X.kept(_slots)
            assert [dict(s) for s in (up, mid, down)] == [
                rows[o].terms if o in rows else {} for o in (2, 0, -2)]
            assert X.kept(_slots)[0] is up
        else:
            with pytest.raises(ValueError):
                X.kept(_slots)
        assert X.rows() is rows
        view = X.terms
        assert list(view.items()) == [(HalfInt(o), c) for o, c in rows.items()]
        assert all(k.__class__ is HalfInt for k in view)
        assert all(X.coeff(HalfInt(o)) is c for o, c in rows.items())
        assert X.coeff(HalfInt(max(rows, default=0) + 1)) == CoeffFn.zero()
        assert X.top() == (HalfInt(max(rows)) if rows else None)
        assert X.bottom() == (HalfInt(min(rows)) if rows else None)
        assert Symbol(X.var, view, X.floor) == X


@contextlib.contextmanager
def every_wrap_checked():
    """Run check_flat, on leaving, on every symbol that Symbol._raw
    wrapped inside: each kernel result (psido.symbol_from_flat wraps
    through it) and each cut, projection and negation."""
    raw = Symbol.__dict__["_raw"].__func__
    wrapped = []

    def watched(var, flat, low):
        out = raw(var, flat, low)
        wrapped.append(out)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Symbol, "_raw", staticmethod(watched))
        yield
    check_flat(*wrapped)


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
    check_flat(A, B, P, Q)  # builds the operands' views
    with every_wrap_checked():
        for name, op in OPS:
            want = outcome(op, fresh(A), fresh(B), fresh(P), fresh(Q), f, g)
            got = outcome(op, A, B, P, Q, f, g)
            assert same(got, want), name
            check_flat(got, want)
        # results that keep some of an operand's terms
        check_flat(A + B, A - B, A - A, -A, cap_order(A, 0),
                   ref.raise_floor(A, -1))


@settings(max_examples=60, deadline=None)
@given(momentum, momentum)
@example(FLOORED, ZERO_WITH_FLOOR)
def test_the_bracket_is_the_difference_of_its_products(A, B):
    check_flat(A)  # a built view must not change the result
    with every_wrap_checked():
        got = sym_bracket(A, B, REQ)
        assert got == sym_mul(A, B, REQ) - sym_mul(B, A, REQ)
    check_flat(got)


def test_image_rows_match_their_terms():
    for q in range(-6, 7):
        check_flat(tr._theta_images.image(q))
    for n in range(-3, 4):
        check_flat(tr._inv_images.image(n, REQ.twice))


# ---- the flat path against the nested tables ------------------------------------------------


def agree(got, want):
    """Equal terms and floor (or the same error text), and a clean result."""
    assert got == want
    if isinstance(got, Symbol):
        assert got.floor == want.floor
    check_flat(got)


@settings(max_examples=80, deadline=None)
@given(momentum, momentum, requests)
@example(FLOORED, ZERO_WITH_FLOOR, None)
@example(ZERO_WITH_FLOOR, MOMENTUM, REQ)
@example(MOMENTUM, FLOORED, h(-2))
@example(MOMENTUM, MOMENTUM, None)
def test_composition_matches_the_nested_tables(A, B, req):
    # exact requests, floored ones, and operands that are zeros with a floor
    with every_wrap_checked():
        agree(outcome(sym_mul, A, B, req), outcome(ref.nested_sym_mul, A, B, req))
        agree(outcome(sym_mul, B, A, req), outcome(ref.nested_sym_mul, B, A, req))
        agree(outcome(sym_bracket, A, B, req), outcome(ref.nested_sym_bracket, A, B, req))


NUS = (GaussRat(0), GaussRat(F(1, 2)), GaussRat(2, -1))


@settings(max_examples=60, deadline=None)
@given(exact_momentum, momentum, exact_space, requests)
@example(MOMENTUM, FLOORED, SPACE, REQ)
@example(MOMENTUM, MOMENTUM, SPACE, None)
@example(Symbol(XI, {}), ZERO_WITH_FLOOR, Symbol(R, {}), h(-2))
def test_the_transform_matches_the_nested_tables(D, E, P, req):
    with every_wrap_checked():
        for nu in NUS:
            agree(outcome(tr.theta, D, req, nu), outcome(ref.nested_theta, D, req, nu))
        theta_t_req = REQ if req is None else req
        for nu in NUS[:2]:
            agree(outcome(tr.theta_t, E, theta_t_req, nu),
                  outcome(ref.nested_theta_t, E, theta_t_req, nu))
        agree(outcome(tr.theta_inv, P, req), outcome(ref.nested_theta_inv, P, req))


@settings(max_examples=60, deadline=None)
@given(space, space, loops, loops, requests.filter(lambda r: r is not None))
@example(SPACE, Symbol(R, {}, HalfInt(-2)), None, CoeffFn.t_pow(1), REQ)
@example(Symbol(R, {HalfInt(-2): CoeffFn.mono(2, 1)}, HalfInt(-4)), SPACE,
         CoeffFn.t_pow(-1), CoeffFn.t_pow(2), h(-2))
@example(  # a right operand of negative top: the left floor lies above the bracket's bound
    Symbol(R, {HalfInt(2): CoeffFn.x_pow(1), HalfInt(0): CoeffFn.mono(1, 1)}, HalfInt(-2)),
    Symbol(R, {HalfInt(-2): CoeffFn.x_pow(2)}), CoeffFn.t_pow(1), None, REQ)
def test_g_bracket_matches_the_nested_tables(P, Q, f, g, req):
    A, B = GElement(f, P), GElement(g, Q)
    with every_wrap_checked():
        agree(outcome(g_bracket, A, B, C2, req), outcome(ref.nested_g_bracket, A, B, C2, req))


@settings(max_examples=100, deadline=None)
@given(st.one_of(momentum, space))
def test_the_terms_view_round_trips_through_the_constructor(X):
    assert Symbol(X.var, X.terms, X.floor) == X
    assert Symbol(X.var, dict(X.terms), X.floor).terms == X.terms
    check_flat(X)


# ---- symbol_from_flat --------------------------------------------------------------------


def test_an_order_past_the_interned_range_gets_an_equal_key():
    one = (1, 0, 1)
    X = symbol_from_flat(R, {(600, 0, 0, 0): one, (-600, 0, 0, 0): one, (2, 0, 0, 0): one}, EXACT)
    keys = list(X.terms)
    assert keys == [HalfInt(600), HalfInt(-600), HalfInt(2)]
    assert all(k.__class__ is HalfInt for k in keys)
    assert X.coeff(h(300)) == CoeffFn.one() and X.coeff(h(-300)) == CoeffFn.one()
    assert X == Symbol(R, {h(300): 1, h(-300): 1, h(1): 1})


def test_empty_tables_and_orders_below_the_floor_are_dropped():
    one = (1, 0, 1)
    flat = {(4, 0, 1, 0): one, (0, 0, 1, 0): one, (-2, 0, 1, 0): one, (-4, 0, 1, 0): one}
    X = symbol_from_flat(XI, dict(flat), -2)  # twice the floor
    assert list(X.terms) == [HalfInt(4), HalfInt(0), HalfInt(-2)]
    assert X.floor == HalfInt(-2)
    assert symbol_from_flat(XI, dict(flat), EXACT).terms.keys() == {
        HalfInt(4), HalfInt(0), HalfInt(-2), HalfInt(-4)}
    empty = symbol_from_flat(XI, {(-6, 0, 1, 0): one}, -5)
    assert empty.is_zero() and empty.floor == HalfInt(-5)
    # an order whose terms all cancel leaves no entry in the view
    assert (X - X).terms == {} and (X - X).floor == HalfInt(-2)


# ---- the triple helpers, the kernels' sums and the reducer against GaussRat ------------------

nonzero = st.builds(
    GaussRat,
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
).filter(lambda g: not g.is_zero())
KEY = (2, 1, -1, 0)


def reduced_dict(acc: dict) -> dict:
    """acc after the one reducer, with no floor."""
    reduce_flat(acc, None)
    return acc


@settings(max_examples=200, deadline=None)
@given(nonzero, nonzero, nonzero, st.integers(1, 6))
@example(GaussRat(F(1, 2), 1), GaussRat(F(-1, 2), -1), GaussRat(1), 1)  # x + y cancels
@example(GaussRat(2), GaussRat(F(1, 2)), GaussRat(-1), 2)  # x * y + z cancels
@example(GaussRat(F(1, 6), F(1, 4)), GaussRat(F(3, 2), 3), GaussRat(0, F(-1, 8)), 4)
def test_triple_helpers_and_kernel_sums_match_gauss_arithmetic(x, y, z, k):
    # conversion both ways: the reduced triple over the lcm of the parts' denominators
    for g in (x, y, z):
        d = g.re.denominator * g.im.denominator // gcd(g.re.denominator, g.im.denominator)
        t = triple_of(g)
        assert t == (int(g.re * d), int(g.im * d), d) and reduced(t)
        assert gauss_of(t) == g and value(t) == g
    tx, ty, tz = triple_of(x), triple_of(y), triple_of(z)
    # a product, into an empty dict and onto a value it may cancel; the
    # scaled terms need not be reduced, the reduced sums must be
    want_product = {KEY: triple_of(x * y)}
    unreduced = (tx[0] * k, tx[1] * k, tx[2] * k)
    total = z + x * y
    want_sum = {} if total.is_zero() else {KEY: triple_of(total)}
    acc: dict = {}
    scale_into(acc, [((0, 1, -1, 0), unreduced)], 2, 0, 0, ty)
    assert reduced_dict(acc) == want_product
    acc = {KEY: tz}
    scale_into(acc, [((2, 0, -1, 1), tx)], 0, 1, -1, ty)
    assert reduced_dict(acc) == want_sum
    # a left term of order 0 has the Leibniz term j = 0 only: the same product
    acc = {}
    leibniz_rows(acc, {(0, 0, 0, 0): tx}, {(2, 1, -1, 0): ty}, None)
    assert reduced_dict(acc) == want_product
    acc = {KEY: tz}
    leibniz_rows(acc, {(0, 1, 0, 0): tx}, {(2, 0, -1, 0): ty}, 2)
    assert reduced_dict(acc) == want_sum
    # the transport term loop * d_t: d_t(x t^k) = k x t^(k-1)
    acc = {KEY: tz}
    transport_into(acc, CoeffFn.const(y).terms.items(), [((2, 2, -1, 0), tx)])
    total = z + x * y * 2
    assert reduced_dict(acc) == ({} if total.is_zero() else {KEY: triple_of(total)})


def test_the_reducer_drops_zeros_and_low_orders_and_keeps_the_order():
    acc = {
        (4, 0, 1, 0): (6, -4, 8),   # gcd 2
        (2, 0, 0, 0): (0, 0, 5),    # a cancelled sum
        (-2, 1, 0, 0): (3, 0, 9),   # gcd 3, at the floor
        (0, 0, -1, 1): (1, 2, 3),   # already reduced
        (-4, 0, 0, 0): (2, 0, 4),   # one order below the floor
        (-3, 0, 2, 0): (5, 5, 5),   # half an order below the floor
        (6, 0, 0, 0): (0, 7, 14),   # an imaginary part alone
    }
    reduce_flat(acc, -2)
    assert list(acc.items()) == [
        ((4, 0, 1, 0), (3, -2, 4)),
        ((-2, 1, 0, 0), (1, 0, 3)),
        ((0, 0, -1, 1), (1, 2, 3)),
        ((6, 0, 0, 0), (0, 1, 2)),
    ]
    # no floor cuts nothing; a dict of zeros empties
    acc = {(-40, 0, 0, 0): (4, 0, 2), (2, 0, 0, 0): (0, 0, 3)}
    reduce_flat(acc, None)
    assert list(acc.items()) == [((-40, 0, 0, 0), (2, 0, 1))]
    acc = {(0, 0, 0, 0): (0, 0, 1)}
    reduce_flat(acc, 0)
    assert acc == {}
    # a CoeffFn table, keyed (t, x, M), is reduced with no floor: no key
    # is read as an order, so a negative t-power stays
    acc = {
        (-3, 1, 0): (6, -4, 8),     # gcd 2
        (0, 0, 2): (0, 0, 7),       # a cancelled sum
        (1, -2, -1): (1, 2, 3),     # already reduced
        (-1, 0, 0): (0, 9, 3),      # an imaginary part alone
    }
    reduce_flat(acc, None)
    assert list(acc.items()) == [((-3, 1, 0), (3, -2, 4)), ((1, -2, -1), (1, 2, 3)),
                                 ((-1, 0, 0), (0, 3, 1))]


def test_the_reducer_keeps_unit_denominators_as_they_are():
    # gcd(a, b, 1) = 1, so a triple over 1 is reduced already
    acc = {
        (4, 0, 1, 0): (6, -4, 1),   # kept as it is
        (2, 0, 0, 0): (0, 0, 1),    # a cancelled sum over 1
        (0, 1, 0, 0): (4, 0, 2),    # gcd 2, down to a unit denominator
        (-2, 0, 2, 0): (0, 5, 1),   # a zero real part, kept as it is
        (-4, 0, 0, 0): (3, 0, 1),   # one order below the floor
    }
    reduce_flat(acc, -2)
    assert list(acc.items()) == [
        ((4, 0, 1, 0), (6, -4, 1)),
        ((0, 1, 0, 0), (2, 0, 1)),
        ((-2, 0, 2, 0), (0, 5, 1)),
    ]


triples = st.tuples(st.integers(-12, 12), st.integers(-12, 12),
                    st.one_of(st.just(1), st.integers(1, 12)))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(-6, 6), st.integers(-1, 1), st.integers(-2, 2),
                                 st.integers(-1, 1)), triples, max_size=8),
       st.one_of(st.none(), st.integers(-6, 6)))
def test_each_entry_the_reducer_keeps_is_its_input_reduced(acc, low):
    given_items = list(acc.items())
    reduce_flat(acc, low)
    assert list(acc) == [k for k, (a, b, _) in given_items
                         if (a or b) and (low is None or k[0] >= low)]
    for k, t in given_items:
        if k in acc:
            assert reduced(acc[k]) and value(acc[k]) == value(t)
