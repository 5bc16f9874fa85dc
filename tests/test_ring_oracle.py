"""Differential tests of the exact ring against independent oracles.

sympy evaluates every ring operation on expressions in which the
imaginary unit I and the mass M stay symbolic, and the Leibniz sum of a
symbol product with its own generalized binomials and derivatives.  The
transform's monomial map is checked against the sum of its shifted and
scaled generator images, built one Symbol per monomial, with deformed
images built as the series of the deformed generator image, composed
power by power, rather than by conjugation; the loop shift and theta_t
against their term-by-term forms, one CoeffFn sum per series term and one
theta call per momentum order; the Leibniz kernel against the weight
recurrence run once per left term.  All of these forms live in
tests/reference.py.  The six central cocycles
are checked against sympy's derivative, product and x^-1 coefficient.  A
Gaussian rational kept as a pair of Fractions, the textbook
representation, checks GaussRat component by component.
"""

from fractions import Fraction as F
from math import gcd

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import (
    leibniz_by_recurrence,
    leibniz_into,
    series_image,
    shift_by_terms,
    summed_images,
    theta_t_by_orders,
)
from strategies import coeff_rows
from svpsido.cocycles import CocycleId, eval_cocycle
from svpsido.halfint import EXACT, HalfInt
from svpsido import ring
from svpsido import transforms as tr
from svpsido.psido import (
    R,
    XI,
    Symbol,
    sym_add,
    sym_bracket,
    sym_mul,
    sym_neg,
    sym_sub,
)
from svpsido.ring import CoeffFn, GaussRat, M

T, X, MASS = sp.symbols("t x M")


# ---- conversions to sympy ---------------------------------------------------


def gauss_sp(g: GaussRat):
    return sp.Rational(g.re.numerator, g.re.denominator) + sp.I * sp.Rational(
        g.im.numerator, g.im.denominator
    )


def coeff_sp(c: CoeffFn):
    return sp.Add(*[gauss_sp(v) * T**p * X**q * MASS**m for (p, q, m), v in c.terms.items()])


def same(a, b) -> bool:
    return sp.expand(a - b) == 0


# ---- the Fraction-pair reference ------------------------------------------------


def pair(g: GaussRat):
    return (g.re, g.im)


def pair_add(u, v):
    return (u[0] + v[0], u[1] + v[1])


def pair_sub(u, v):
    return (u[0] - v[0], u[1] - v[1])


def pair_mul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def pair_inv(u):
    n = u[0] * u[0] + u[1] * u[1]
    return (u[0] / n, -u[1] / n)


# ---- strategies ------------------------------------------------------------------

fracs = st.builds(
    F,
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=1, max_value=12),
)
gauss = st.builds(GaussRat, fracs, fracs)
nonzero_gauss = gauss.filter(lambda g: not g.is_zero())
powers = st.integers(min_value=-2, max_value=2)
# M-power -> coefficient, for one (t, x) monomial or for a scalar
masses = st.dictionaries(powers, gauss, max_size=3)
scalars = masses.map(lambda d: CoeffFn({(0, 0, m): g for m, g in d.items()}))
units = st.builds(lambda k, g: g * M**k, st.integers(min_value=-3, max_value=3), nonzero_gauss)
monomials = st.builds(
    lambda p, q, m, g: CoeffFn({(p, q, m): g}), powers, powers, powers, nonzero_gauss
)


def coeffs_in(tpows, xpows):
    return coeff_rows(tpows, xpows, masses)


coeffs = coeffs_in((-2, 2), (-2, 2))
t_free = coeffs_in((0, 0), (-2, 2))
x_free = coeffs_in((-2, 2), (0, 0))


def reduced(g: GaussRat) -> bool:
    return g._d > 0 and gcd(g._a, g._b, g._d) == 1


# ---- GaussRat ----------------------------------------------------------------------


@given(gauss, gauss)
def test_gauss_ops_match_the_fraction_pair(x, y):
    for got, want in (
        (x + y, pair_add(pair(x), pair(y))),
        (x - y, pair_sub(pair(x), pair(y))),
        (x * y, pair_mul(pair(x), pair(y))),
        (-x, (-x.re, -x.im)),
    ):
        assert pair(got) == want
        assert reduced(got)
    assert (x == y) == (pair(x) == pair(y))
    if x == y:
        assert hash(x) == hash(y)


@given(nonzero_gauss)
def test_gauss_inverse_matches_the_fraction_pair(x):
    got = x.inv()
    assert pair(got) == pair_inv(pair(x))
    assert reduced(got)


@settings(max_examples=60, deadline=None)
@given(gauss, nonzero_gauss)
def test_gauss_ops_match_sympy(x, y):
    sx, sy = gauss_sp(x), gauss_sp(y)
    assert same(gauss_sp(x + y), sx + sy)
    assert same(gauss_sp(x - y), sx - sy)
    assert same(gauss_sp(x * y), sx * sy)
    assert same(gauss_sp(y.inv()), sp.expand_complex(1 / sy))


@given(fracs, fracs)
def test_gauss_keeps_the_fraction_constructor(re, im):
    g = GaussRat(re, im)
    assert (g.re, g.im) == (re, im)
    assert reduced(g)
    assert GaussRat(re) == re and GaussRat(re).is_zero() == (re == 0)


# a small pool, so that equal values of different types are drawn often
small_fracs = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
numbers = st.one_of(
    st.integers(-3, 3),
    small_fracs,
    small_fracs.map(GaussRat),
    st.builds(GaussRat, small_fracs, small_fracs),
)


@given(numbers, numbers)
@example(GaussRat(1), 1)
@example(GaussRat(F(-1, 2)), F(-1, 2))
@example(GaussRat(F(1, 2), 1), GaussRat(0, 1) + F(1, 2))
def test_equal_values_hash_equal(x, y):
    # ints, Fractions and GaussRats that are equal must hash equal, so
    # that any of them finds the others in a dict
    if x == y:
        assert hash(x) == hash(y)
        assert {x: "found"}.get(y) == "found"


# ---- scalars: values free of t and x ----------------------------------------------


@settings(max_examples=60, deadline=None)
@given(scalars, scalars)
def test_scalar_ops_match_sympy(a, b):
    sa, sb = coeff_sp(a), coeff_sp(b)
    assert same(coeff_sp(a + b), sa + sb)
    assert same(coeff_sp(a - b), sa - sb)
    assert same(coeff_sp(a * b), sa * sb)
    assert (a == b) == same(sa, sb)


@settings(max_examples=60, deadline=None)
@given(units, scalars)
def test_scalar_unit_inverse_matches_sympy(u, s):
    assert same(coeff_sp(u**-1), sp.radsimp(1 / coeff_sp(u)))
    assert same(coeff_sp(s * u**-1), coeff_sp(s) * sp.radsimp(1 / coeff_sp(u)))


def test_scalar_unit_inverse_refuses_non_monomials():
    for c in (CoeffFn.one() + M, CoeffFn.t_pow(1) + CoeffFn.x_pow(1), CoeffFn.zero()):
        for k in (-1, 2):
            with pytest.raises(ValueError):
                c**k


# ---- CoeffFn -----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(coeffs, coeffs)
def test_coeff_ops_match_sympy(f, g):
    sf, sg = coeff_sp(f), coeff_sp(g)
    assert same(coeff_sp(f + g), sf + sg)
    assert same(coeff_sp(f - g), sf - sg)
    assert same(coeff_sp(f * g), sf * sg)
    assert (f == g) == same(sf, sg)


def _no_negation(self):
    raise AssertionError("subtraction built a negated copy")


@settings(max_examples=60, deadline=None)
@given(coeffs, coeffs)
def test_coeff_subtraction_builds_no_negated_copy(f, g):
    sf, sg = coeff_sp(f), coeff_sp(g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CoeffFn, "__neg__", _no_negation)
        for got, want in ((f - g, sf - sg), (1 - f, 1 - sf), (f - 1, sf - 1), (f - f, 0)):
            assert same(coeff_sp(got), want)
            assert all(not v.is_zero() for v in got.terms.values())


def test_mass_value_zero_keeps_the_mass_free_terms():
    f = CoeffFn({(1, 0, 0): GaussRat(3), (1, 0, 2): GaussRat(5), (0, 1, 1): GaussRat(0, 1)})
    assert f.subs_m(GaussRat(0)) == CoeffFn.t_pow(1, 3)
    with pytest.raises(ZeroDivisionError):
        (f * M**-1).subs_m(GaussRat(0))


@settings(max_examples=60, deadline=None)
@given(monomials, st.integers(min_value=-3, max_value=3))
def test_monomial_powers_match_sympy(c, k):
    assert same(coeff_sp(c**k), sp.radsimp(coeff_sp(c) ** k))
    assert c**k * c**-k == CoeffFn.one()


@settings(max_examples=60, deadline=None)
@given(coeffs)
def test_coeff_calculus_matches_sympy(f):
    sf = sp.expand(coeff_sp(f))
    assert same(coeff_sp(f.deriv("T")), sp.diff(sf, T))
    assert same(coeff_sp(f.deriv("X")), sp.diff(sf, X))
    assert same(coeff_sp(f.residue("T")), sf.coeff(T, -1))
    assert same(coeff_sp(f.residue("X")), sf.coeff(X, -1))


@settings(max_examples=60, deadline=None)
@given(coeffs, nonzero_gauss, st.integers(min_value=-2, max_value=3))
def test_coeff_slices_and_mass_values_match_sympy(f, value, qmin):
    sf = sp.expand(coeff_sp(f))
    for q in range(-2, 3):
        assert same(coeff_sp(f.x_slice(q)), sf.coeff(X, q))
    kept = sp.Add(*[sf.coeff(X, q) * X**q for q in range(-2, qmin)])
    assert same(coeff_sp(f.drop_x_from(qmin)), kept)
    assert same(coeff_sp(f.subs_m(value)), sf.subs(MASS, gauss_sp(value)))


@settings(max_examples=60, deadline=None)
@given(t_free, x_free, units)
def test_coeff_substitutions_match_sympy(f, g, u):
    su = coeff_sp(u)
    assert same(coeff_sp(f.x_to_t(u)), coeff_sp(f).subs(X, su * T))
    assert same(coeff_sp(g.t_to_x(u)), coeff_sp(g).subs(T, su * X))
    if not f.is_t_only():
        with pytest.raises(ValueError):
            f.t_to_x(u)
    if not g.is_x_only():
        with pytest.raises(ValueError):
            g.x_to_t(u)


# ---- sym_mul against the Leibniz sum ------------------------------------------------------

exact_momentum_symbols = st.dictionaries(
    st.integers(min_value=-4, max_value=4).map(HalfInt),
    coeffs.filter(lambda c: not c.is_zero()),
    min_size=1,
    max_size=2,
).map(lambda terms: Symbol(XI, terms))
floors = st.integers(min_value=-8, max_value=4).map(HalfInt)
momentum_symbols = st.one_of(
    exact_momentum_symbols,
    # the constructor drops the stored orders below the floor
    st.builds(lambda S, floor: Symbol(XI, S.terms, floor), exact_momentum_symbols, floors),
    # a zero that carries a floor still stands for unknown orders below it
    floors.map(lambda floor: Symbol(XI, {}, floor)),
)


def leibniz_sp(A: Symbol, B: Symbol, floor: HalfInt) -> tuple:
    """sum_j binom(a, j) f (d/dx)^j g d^(a+b-j), cut below floor, and
    whether some term that does not vanish by itself was cut."""
    out: dict = {}
    cut = False
    for a, f in A.terms.items():
        for b, g in B.terms.items():
            gj = sp.expand(coeff_sp(g))
            j = 0
            while gj != 0:
                c = sp.binomial(sp.Rational(a.twice, 2), j)
                if c == 0:
                    break
                order = a + b - j
                if order < floor:
                    cut = True
                    break
                out[order] = out.get(order, 0) + c * coeff_sp(f) * gj
                j += 1
                gj = sp.diff(gj, X)
    return out, cut


def derived_floor(A: Symbol, B: Symbol, req: HalfInt):
    """max(req, A.floor + top(B), B.floor + top(A)), a zero operand counting
    with its floor in place of its top; EXACT for exact operands whose
    tails all end above req."""
    hi_a = max(A.terms) if A.terms else A.floor
    hi_b = max(B.terms) if B.terms else B.floor
    bounds = [req]
    if A.floor is not EXACT:
        bounds.append(A.floor + hi_b)
    if B.floor is not EXACT:
        bounds.append(B.floor + hi_a)
    floor = max(bounds)
    if len(bounds) == 1 and not leibniz_sp(A, B, floor)[1]:
        return EXACT
    return floor


def clean(P: Symbol) -> bool:
    """No zero coefficient, zero monomial or order below the floor."""
    return all(
        type(k) is HalfInt
        and type(c) is CoeffFn
        and c.terms
        and all(not v.is_zero() for v in c.terms.values())
        and (P.floor is EXACT or k >= P.floor)
        for k, c in P.terms.items()
    )


def _no_derivative(self, var):
    # the Leibniz weights come from the exponents: composition takes none
    raise AssertionError("composition took a derivative")


@settings(max_examples=60, deadline=None)
@given(momentum_symbols, momentum_symbols, st.integers(min_value=-6, max_value=-2).map(HalfInt))
@example(  # the order-0 terms cancel: (d - x^-1) o x = x d
    Symbol(XI, {HalfInt(2): CoeffFn.one(), HalfInt(0): -CoeffFn.x_pow(-1)}),
    Symbol(XI, {HalfInt(0): CoeffFn.x_pow(1)}),
    HalfInt(-4),
)
@example(  # a zero with a floor: the floor climbs to -3 + 2
    Symbol(XI, {HalfInt(2): CoeffFn.x_pow(-1)}),
    Symbol(XI, {}, HalfInt(-6)),
    HalfInt(-6),
)
@example(  # order 1/2 against x^2 + x^-1: the x^2 terms end at j = 3, above
    # the floor -3, and the x^-1 terms run on until the cut below it
    Symbol(XI, {HalfInt(1): CoeffFn.mono(1, 0, GaussRat(F(1, 2), 1))}),
    Symbol(XI, {HalfInt(0): CoeffFn.x_pow(2) + CoeffFn.x_pow(-1)}),
    HalfInt(-6),
)
@example(  # the binomials of order 2 end at j = 3, so x^-2 is no series
    Symbol(XI, {HalfInt(4): CoeffFn.one()}),
    Symbol(XI, {HalfInt(-1): CoeffFn.x_pow(-2) * M}),
    HalfInt(-4),
)
def test_sym_mul_matches_the_leibniz_sum(A, B, req):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CoeffFn, "deriv", _no_derivative)
        P = sym_mul(A, B, req)
    # the product skips the constructor's checks, so it must already pass them
    assert P == Symbol(P.var, P.terms, P.floor)
    assert clean(P)
    if (not A.terms and A.floor is EXACT) or (not B.terms and B.floor is EXACT):
        assert P.is_zero() and P.floor is EXACT
        return
    assert P.floor == derived_floor(A, B, req)
    trusted = req if P.floor is EXACT else P.floor
    want = leibniz_sp(A, B, trusted)[0]
    for order in set(P.terms) | set(want):
        if order >= trusted:
            assert same(coeff_sp(P.coeff(order)), want.get(order, 0)), order


def _two_products(A: Symbol, B: Symbol, req):
    """A o B - B o A as two products and a difference, or the ValueError
    that one of the products raises."""
    try:
        return sym_sub(sym_mul(A, B, req), sym_mul(B, A, req))
    except ValueError as exc:
        return exc


# d^-1 o x^-1 has an infinite tail, x^-1 o d^-1 = x^-1 d^-1 ends at once
_TAIL_ONE_WAY = (
    Symbol(XI, {HalfInt(0): CoeffFn.x_pow(-1)}),
    Symbol(XI, {HalfInt(-2): CoeffFn.one()}),
)


@settings(max_examples=60, deadline=None)
@given(
    momentum_symbols,
    momentum_symbols,
    st.one_of(st.none(), st.integers(min_value=-6, max_value=-2).map(HalfInt)),
)
@example(*_TAIL_ONE_WAY, None)
@example(*_TAIL_ONE_WAY, HalfInt(-4))
@example(*reversed(_TAIL_ONE_WAY), None)
@example(  # a zero with a floor on either side
    Symbol(XI, {HalfInt(2): CoeffFn.x_pow(-1)}),
    Symbol(XI, {}, HalfInt(-6)),
    HalfInt(-6),
)
@example(Symbol(XI, {}, HalfInt(-3)), Symbol(XI, {HalfInt(1): CoeffFn.x_pow(2)}), None)
@example(  # a coefficient whose x-powers end at different depths
    Symbol(XI, {HalfInt(-1): CoeffFn.one()}),
    Symbol(XI, {HalfInt(1): CoeffFn.x_pow(3) + CoeffFn.x_pow(-1)}),
    HalfInt(-6),
)
def test_sym_bracket_matches_the_two_products(A, B, req):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CoeffFn, "deriv", _no_derivative)
        want = _two_products(A, B, req)
        if isinstance(want, ValueError):
            with pytest.raises(ValueError, match=str(want)):
                sym_bracket(A, B, req)
            return
        got = sym_bracket(A, B, req)
    assert got == want  # values and floor
    assert clean(got)


def test_the_tail_example_terminates_one_way_only():
    A, B = _TAIL_ONE_WAY
    assert sym_mul(A, B).floor is EXACT
    with pytest.raises(ValueError, match="does not terminate"):
        sym_mul(B, A)


@settings(max_examples=60, deadline=None)
@given(momentum_symbols, momentum_symbols)
@example(Symbol(XI, {HalfInt(1): CoeffFn.one()}), Symbol(XI, {HalfInt(1): CoeffFn.one()}))
@example(  # the floor of a zero drops the orders of A below it
    Symbol(XI, {HalfInt(2): CoeffFn.one(), HalfInt(-5): CoeffFn.x_pow(1)}),
    Symbol(XI, {}, HalfInt(-2)),
)
def test_sym_sub_builds_no_negated_copy(A, B):
    want = sym_add(A, sym_neg(B))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CoeffFn, "__neg__", _no_negation)
        got = sym_sub(A, B)
    assert got == want  # values and floor
    assert clean(got)


# ---- the Leibniz kernel against the weight recurrence and the tail pre-scan --------------

TAIL_MESSAGE = "exact product requested but the Leibniz tail does not terminate"


def tail_prescan_raises(A: Symbol, B: Symbol, products, req) -> bool:
    """Whether composing the (left, right, sign) products of A and B must
    raise: the result is asked exact, both operands are exact and neither
    is zero, and some product has a left order that is no nonnegative
    integer and a right coefficient with a negative x-power."""
    if req is not None or A.floor is not EXACT or B.floor is not EXACT:
        return False
    if not A.terms or not B.terms:
        return False
    return any(
        any(not (a.is_integer and a.twice >= 0) for a in left.terms)
        and any((g.min_x_degree() or 0) < 0 for g in right.terms.values())
        for left, right, _ in products
    )


def _by_left_term(out: dict, f_terms, g_terms, low) -> bool:
    """leibniz_by_recurrence once per left term, in the kernel's order:
    every right monomial of one left term before the next left term."""
    cut = False
    for at, items in f_terms:
        for item in items:
            cut |= leibniz_by_recurrence(out, at, [item], g_terms, low)
    return cut


@pytest.mark.parametrize("at", range(-13, 14))
def test_cached_weights_match_sympy(at):
    a = sp.Rational(at, 2)
    for q in range(-6, 7):
        ws = ring._weights(at, q, 13)
        for j in range(13):
            num, den = ws[j]
            assert den > 0 and gcd(num, den) == 1
            assert sp.Rational(num, den) == sp.binomial(a, j) * sp.ff(q, j), (at, q, j)


def _kernel_inputs(draw_terms):
    """(f_terms, g_terms) for leibniz_into from the terms of two symbols."""
    left, right = draw_terms
    f_terms = [(a.twice, list(f.terms.items())) for a, f in left.items()]
    g_terms = [(b.twice, k, v) for b, g in right.items() for k, v in g.terms.items()]
    return f_terms, g_terms


kernel_side = st.dictionaries(st.integers(-8, 8).map(HalfInt), coeffs.filter(lambda c: c.terms),
                              min_size=1, max_size=3)
kernel_terms = st.tuples(kernel_side, kernel_side)


@settings(max_examples=80, deadline=None)
@given(kernel_terms, kernel_terms, st.integers(-24, 8))
def test_leibniz_into_matches_the_recurrence(first, second, low):
    got, want = {}, {}
    got_cut = want_cut = False
    # two products into one dict, the second negated as in a bracket
    for terms, sign in ((first, 1), (second, -1)):
        f_terms, g_terms = _kernel_inputs(terms)
        f_terms = [(at, [(k, v * sign) for k, v in items]) for at, items in f_terms]
        got_cut |= leibniz_into(got, f_terms, g_terms, low)
        want_cut |= _by_left_term(want, f_terms, g_terms, low)
    assert list(got.items()) == list(want.items())
    assert got_cut == want_cut


def _pair_with_end(at: int, q: int):
    """One left term x^0 d^(at/2) and one right monomial x^q d^0, and the
    twice-order of the pair's last term (None when the tail never ends)."""
    f_terms = [(at, [((0, 0, 0), GaussRat(1))])]
    g_terms = [(0, (0, q, 0), GaussRat(F(1, 3), 2))]
    ends = [n for n in (at // 2 + 1 if at >= 0 and at % 2 == 0 else None,
                        q + 1 if q >= 0 else None) if n is not None]
    last = at - 2 * (min(ends) - 1) if ends else None
    return f_terms, g_terms, last


@pytest.mark.parametrize("at", [4, 0, 3, -1, -4])
@pytest.mark.parametrize("q", [2, 0, -1, -3])
@pytest.mark.parametrize("where", ["at the last term", "one step below it", "above the first"])
def test_leibniz_into_cuts_where_the_recurrence_cuts(at, q, where):
    f_terms, g_terms, last = _pair_with_end(at, q)
    if last is None:
        # no natural end: put the floor 3 steps down instead
        last = at - 6
    # the tail ends exactly at the floor, its last term falls one step
    # below it, or its first term already lies below it
    low = {"at the last term": last, "one step below it": last + 2,
           "above the first": at + 1}[where]
    got, want = {}, {}
    got_cut = leibniz_into(got, f_terms, g_terms, low)
    want_cut = leibniz_by_recurrence(want, *f_terms[0], g_terms, low)
    assert list(got.items()) == list(want.items())
    assert got_cut == want_cut
    if where != "at the last term":
        assert got_cut
    if where == "above the first":
        assert not got


@pytest.mark.parametrize("at", [4, 0, 3, -1])
@pytest.mark.parametrize("q", [2, 0, -1])
def test_leibniz_into_without_a_floor(at, q):
    f_terms, g_terms, last = _pair_with_end(at, q)
    if last is None:
        with pytest.raises(ValueError) as exc:
            leibniz_into({}, f_terms, g_terms, None)
        assert str(exc.value) == TAIL_MESSAGE
        return
    got, want = {}, {}
    assert not leibniz_into(got, f_terms, g_terms, None)
    assert not leibniz_by_recurrence(want, *f_terms[0], g_terms, None)
    assert list(got.items()) == list(want.items())
    assert min(got)[0] == last


def _check_tail_error(compose, A, B, products, req):
    if tail_prescan_raises(A, B, products, req):
        with pytest.raises(ValueError) as exc:
            compose(A, B, req)
        assert str(exc.value) == TAIL_MESSAGE
    else:
        compose(A, B, req)


@settings(max_examples=80, deadline=None)
@given(momentum_symbols, momentum_symbols, st.one_of(st.none(), floors))
@example(*_TAIL_ONE_WAY, None)
@example(*reversed(_TAIL_ONE_WAY), None)
@example(  # the only non-terminating pair is the second left term's
    Symbol(XI, {HalfInt(2): CoeffFn.one(), HalfInt(-1): CoeffFn.one()}),
    Symbol(XI, {HalfInt(0): CoeffFn.x_pow(3) + CoeffFn.x_pow(-2)}),
    None,
)
def test_tail_errors_match_the_pre_scan(A, B, req):
    _check_tail_error(sym_mul, A, B, ((A, B, 1),), req)
    # in a bracket the only non-terminating pair may lie in the second product
    _check_tail_error(sym_bracket, A, B, ((A, B, 1), (B, A, -1)), req)


def test_a_bracket_raises_on_its_second_product():
    A, B = _TAIL_ONE_WAY
    assert not tail_prescan_raises(A, B, ((A, B, 1),), None)
    assert tail_prescan_raises(A, B, ((B, A, -1),), None)
    with pytest.raises(ValueError) as exc:
        sym_bracket(A, B)
    assert str(exc.value) == TAIL_MESSAGE


def _negated(flat: dict) -> dict:
    return {k: (-a, -b, d) for k, (a, b, d) in flat.items()}


@settings(max_examples=80, deadline=None)
@given(kernel_side, kernel_side, st.one_of(st.none(), st.integers(-24, 8)))
def test_leibniz_rows_with_sign_minus_one_negates_the_plus_one_sum(left, right, low):
    f, g = Symbol(XI, left).flat, Symbol(XI, right).flat
    plus, minus = {}, {}
    try:
        cut = ring.leibniz_rows(plus, f, g, low)
    except ValueError as exc:
        assert low is None and str(exc) == TAIL_MESSAGE
        with pytest.raises(ValueError) as again:
            ring.leibniz_rows(minus, f, g, low, -1)
        assert str(again.value) == TAIL_MESSAGE
        return
    assert ring.leibniz_rows(minus, f, g, low, -1) == cut
    assert list(minus.items()) == list(_negated(plus).items())


@pytest.mark.parametrize("sign", [1, -1])
def test_a_tail_that_does_not_end_raises_before_any_term_is_added(sign):
    # order -1 against x^-1 never ends; the terminating pair after it in
    # the right dict must not be reached, and acc keeps what it held
    f = {(-2, 0, 1, 0): (1, 0, 1)}
    g = {(0, 1, -1, 0): (2, 1, 3), (0, 0, 2, 0): (1, 0, 1)}
    acc = {(0, 1, 0, 0): (5, 0, 7)}
    with pytest.raises(ValueError) as exc:
        ring.leibniz_rows(acc, f, g, None, sign)
    assert str(exc.value) == TAIL_MESSAGE
    assert acc == {(0, 1, 0, 0): (5, 0, 7)}


def _recurrence(at: int, q: int, n: int) -> list:
    """binom(a, j) (q)_j for j < n as Fractions, a = at/2, step by step."""
    ws = [F(1)]
    for j in range(1, n):
        ws.append(ws[-1] * F(at - 2 * j + 2, 2 * j) * (q - j + 1))
    return ws


@pytest.mark.parametrize("at", [4, 3, 0, -1, -4])
@pytest.mark.parametrize("q", [3, 0, -2])
@pytest.mark.parametrize("grown", [False, True], ids=["cold cache", "cache grown past the pair"])
def test_every_weight_read_is_the_recurrence_prefix(at, q, grown):
    # a unit left term d^(at/2) and a unit right monomial x^q: the j-th
    # term of the pair is its weight at order at/2 - j and x-power q - j
    low = at - 10
    n = min(filter(None, [at // 2 + 1 if at >= 0 and at % 2 == 0 else None,
                          q + 1 if q >= 0 else None, (at - low) // 2 + 1]))
    key = (at, q)
    saved = ring._WEIGHTS.pop(key, None)
    try:
        if grown:
            ring._weights(at, q, n + 4)
        acc = {}
        ring.leibniz_rows(acc, {(at, 0, 0, 0): (1, 0, 1)}, {(0, 0, q, 0): (1, 0, 1)}, low)
        want = _recurrence(at, q, n)
        read = [F(a, d) for (_, _, _, _), (a, b, d) in sorted(acc.items(), reverse=True)]
        assert [k[0] for k in sorted(acc, reverse=True)] == [at - 2 * j for j, w in enumerate(want) if w]
        assert read == [w for w in want if w]
        assert ring._WEIGHTS[key][:n] == [(w.numerator, w.denominator) for w in want]
        # the trace pairing reads the same cache, one entry per hit
        for j, w in enumerate(_recurrence(at, q, n + 4)):
            sums = {}
            orders = {}
            ring.file_flat(orders, 0, {(at, 0, j - 1 - q, 0): (1, 0, 1)}.items())
            bt = 2 * (j - 1) - at
            ring.trace_pairs_into(sums, {(bt, -1, q, 0): (1, 0, 1)}.items(), list(orders.items()))
            assert ring.sum_value(sums.get(0, {})) == CoeffFn.const(w)
    finally:
        ring._WEIGHTS.pop(key, None)
        if saved is not None:
            ring._WEIGHTS[key] = saved


# ---- the central cocycles against sympy's derivative, product and residue ----------------


def cocycle_sp(cid: CocycleId, a, b):
    """The x^-1 coefficient of the expanded cocycle integrand, from the
    slots (order 1, 0, -1) of A and B as sympy expressions."""
    a1, a0, am = a
    b1, b0, bm = b
    d = sp.diff
    integrand = {
        CocycleId.C0: lambda: d(a1, X, 3) * b1,
        CocycleId.C1: lambda: d(a1, X, 2) * b0 - d(b1, X, 2) * a0,
        CocycleId.C2: lambda: a1 * bm - b1 * am,
        CocycleId.C3: lambda: d(a1, X) * bm - d(b1, X) * am,
        CocycleId.C4: lambda: d(b0, X) * a0 - d(a0, X) * b0,
        CocycleId.C5: lambda: a0 * bm - b0 * am,
    }[cid]()
    return sp.expand(integrand).coeff(X, -1)


# nonempty slots with x-powers -4..4, so that many pairs meet at x^-1
slot_coeffs = coeff_rows(
    (-2, 2), (-4, 4), st.dictionaries(powers, nonzero_gauss, min_size=1, max_size=1), min_size=1
)
slot_triples = st.tuples(slot_coeffs, slot_coeffs, slot_coeffs)


@settings(max_examples=24, deadline=None)
@given(slot_triples, slot_triples)
def test_cocycles_match_the_sympy_residue(a, b):
    A = Symbol(R, dict(zip((1, 0, -1), a)))
    B = Symbol(R, dict(zip((1, 0, -1), b)))
    a_sp = [coeff_sp(c) for c in a]
    b_sp = [coeff_sp(c) for c in b]
    for cid in CocycleId:
        assert same(coeff_sp(eval_cocycle(cid, A, B)), cocycle_sp(cid, a_sp, b_sp)), cid


# ---- the transform's monomial map against the sum of scaled images ---------------------------


def symbols_of(var, orders, xpows):
    """Exact symbols of 1 to 3 orders, each coefficient 1 to 3 terms whose
    x-powers lie in xpows."""
    coeffs_here = st.dictionaries(
        st.tuples(st.integers(-1, 1), st.integers(*xpows), st.integers(-1, 1)),
        nonzero_gauss,
        min_size=1,
        max_size=3,
    ).map(CoeffFn)
    terms = st.dictionaries(orders, coeffs_here, min_size=1, max_size=3)
    return terms.map(lambda t: Symbol(var, t))


transform_floors = st.sampled_from([HalfInt(-4), HalfInt(-7)])


deformations = [GaussRat(F(1, 2)), GaussRat(F(-1, 3)), GaussRat(0, 1), GaussRat(2, -1),
                GaussRat(1), GaussRat(-1)]


@settings(max_examples=80, deadline=None)
@given(
    symbols_of(XI, st.integers(-3, 3).map(HalfInt), (-2, 2)),
    st.sampled_from([GaussRat(0)] + deformations),
    transform_floors,
)
@example(Symbol(XI, {HalfInt(1): CoeffFn.x_pow(-2)}), GaussRat(1), HalfInt(-4))
# sums undeformed images down to xi^-67, past the bound on requested powers
@example(Symbol(XI, {HalfInt(0): CoeffFn.x_pow(-30)}), GaussRat(F(1, 2)), HalfInt(-7))
def test_theta_matches_the_sum_of_scaled_images(D, nu, req):
    # an undeformed image is exact, so nu = 0 is also checked without a floor
    for floor in ([req, EXACT] if nu.is_zero() else [req]):
        got = tr.theta(D, floor, nu=nu)
        want = summed_images(D, floor, R, lambda k: k + k, lambda q, w: series_image(nu, q, w))
        assert got == want  # floors included
        assert clean(got)
    # a deformed negative power is a series even where binom(nu, j) ends
    if not nu.is_zero() and any(key[1] < 0 for c in D.terms.values() for key in c.terms):
        assert got.floor == req


def test_conjugation_weights_match_sympy():
    nu = sp.Symbol("nu")
    for q in range(-4, 5):
        weights = tr._conjugation_weights(nu, q)
        for j in range(9):
            assert same(next(weights), sp.expand_func(sp.binomial(nu, j)) * sp.ff(q, j)), (q, j)


def test_conjugating_by_the_inverse_power_fails_the_series_reference(monkeypatch):
    # the control for the comparison above: conjugation by d_xi^-nu
    image = tr._conjugated_image
    monkeypatch.setattr(tr, "_conjugated_image", lambda nu, q, want: image(-nu, q, want))
    D = Symbol(XI, {HalfInt(1): CoeffFn.x_pow(-2), HalfInt(0): CoeffFn.x_pow(2)})
    req = HalfInt(-4)
    for nu in deformations:
        want = summed_images(D, req, R, lambda k: k + k, lambda q, w: series_image(nu, q, w))
        assert tr.theta(D, req, nu=nu) != want, nu


@settings(max_examples=40, deadline=None)
@given(symbols_of(R, st.integers(-2, 2).map(HalfInt.of), (-2, 2)), transform_floors)
def test_theta_inv_matches_the_sum_of_scaled_images(D, req):
    got = tr.theta_inv(D, req)
    want = summed_images(D, req, XI, lambda k: HalfInt(k.as_int()), tr._inv_image)
    assert got == want
    assert clean(got)


# ---- the loop shift and theta_t against their term-by-term forms -----------------------------


loop_free_momentum_symbols = st.builds(
    lambda terms, floor: Symbol(XI, terms, floor),
    st.dictionaries(
        st.integers(-3, 3).map(HalfInt), t_free.filter(lambda c: not c.is_zero()), max_size=3
    ),
    st.one_of(st.none(), st.integers(-6, 0).map(HalfInt)),
)


@settings(max_examples=40, deadline=None)
@given(
    loop_free_momentum_symbols,
    st.sampled_from([GaussRat(0), GaussRat(F(1, 2))]),
    st.sampled_from([HalfInt(-2), HalfInt(-4)]),
)
def test_loop_shift_and_theta_t_match_their_term_by_term_forms(E, nu, req):
    depth = tr.default_depth(req)
    for c in E.terms.values():
        got = tr.time_shift(c, depth)
        assert got == shift_by_terms(c, depth)
        assert all(not v.is_zero() for v in got.terms.values())
    got = tr.theta_t(E, req, nu=nu)
    assert got == theta_t_by_orders(E, req, nu)  # floors included
    assert clean(got)


def test_theta_t_makes_one_theta_call(monkeypatch):
    calls = []
    theta = tr.theta

    def counted(*args, **kwargs):
        calls.append(args)
        return theta(*args, **kwargs)

    monkeypatch.setattr(tr, "theta", counted)
    terms = {HalfInt(2): CoeffFn.x_pow(2), HalfInt(1): CoeffFn.x_pow(-1), HalfInt(-1): M}
    E = Symbol(XI, terms, HalfInt(-3))
    got = tr.theta_t(E, HalfInt(-4))
    assert len(calls) == 1
    assert got == theta_t_by_orders(E, HalfInt(-4), GaussRat(0))
