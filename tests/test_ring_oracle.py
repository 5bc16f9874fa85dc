"""Differential tests of the exact ring against independent oracles.

sympy evaluates every ring operation on expressions in which the
imaginary unit I and the mass M stay symbolic, and the Leibniz sum of a
symbol product with its own generalized binomials and derivatives.  The
transform's monomial map is checked against the sum of its shifted and
scaled generator images, built one Symbol per monomial; the loop shift
and theta_t against their term-by-term forms, one CoeffFn sum per series
term and one theta call per momentum order.  A
Gaussian rational kept as a pair of Fractions, the textbook
representation, checks GaussRat component by component.
"""

from fractions import Fraction as F
from math import gcd

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svpsido.halfint import EXACT, HalfInt, hmax
from svpsido import transforms as tr
from svpsido.psido import (
    R,
    XI,
    Symbol,
    binom_half,
    sym_add,
    sym_bracket,
    sym_mul,
    sym_neg,
    sym_scale,
    sym_sub,
)
from svpsido.ring import CoeffFn, GaussRat, I_HALF_OVER_M, M

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


def flat(d: dict) -> CoeffFn:
    """A CoeffFn from (t, x) -> {M-power: coefficient}."""
    return CoeffFn({(p, q, m): g for (p, q), row in d.items() for m, g in row.items()})


def coeffs_in(tpows, xpows):
    keys = st.tuples(st.integers(*tpows), st.integers(*xpows))
    return st.dictionaries(keys, masses, max_size=3).map(flat)


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
def test_sym_mul_matches_the_leibniz_sum(A, B, req):
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
def test_sym_bracket_matches_the_two_products(A, B, req):
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


# ---- the transform's monomial map against the sum of scaled images ---------------------------


def summed_images(D: Symbol, req, var: str, delta_of, image) -> Symbol:
    """The image of D as a sum over its monomials, one Symbol per monomial:
    sym_add of the image shifted by delta_of(k) and scaled by its x-slice,
    cut back to req when floored."""
    total = Symbol.zero(var)
    for k, c in D.terms.items():
        delta = delta_of(k)
        want = req if req is EXACT else req - delta
        for q in dict.fromkeys(key[1] for key in c.terms):
            img = image(q, want)
            floor = img.floor if img.floor is EXACT else img.floor + delta
            shifted = Symbol(var, {o + delta: v for o, v in img.terms.items()}, floor)
            total = sym_add(total, sym_scale(shifted, c.x_slice(q)))
    if req is EXACT or total.floor is EXACT or total.floor >= req:
        return total
    return Symbol(var, {k: v for k, v in total.terms.items() if k >= req}, req)


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


@settings(max_examples=40, deadline=None)
@given(
    symbols_of(XI, st.integers(-3, 3).map(HalfInt), (-2, 2)),
    st.sampled_from([GaussRat(0), GaussRat(F(1, 2))]),
    transform_floors,
)
def test_theta_matches_the_sum_of_scaled_images(D, nu, req):
    # an undeformed image is exact, so nu = 0 is also checked without a floor
    for floor in ([req, EXACT] if nu.is_zero() else [req]):
        got = tr.theta(D, floor, nu=nu)
        want = summed_images(D, floor, R, lambda k: k + k, tr._forward_cache(nu).image)
        assert got == want
        assert clean(got)


@settings(max_examples=40, deadline=None)
@given(symbols_of(R, st.integers(-2, 2).map(HalfInt.of), (-2, 2)), transform_floors)
def test_theta_inv_matches_the_sum_of_scaled_images(D, req):
    got = tr.theta_inv(D, req)
    want = summed_images(D, req, XI, lambda k: HalfInt(k.as_int()), tr._inv_image)
    assert got == want
    assert clean(got)


# ---- the loop shift and theta_t against their term-by-term forms -----------------------------


def shift_by_terms(f: CoeffFn, depth: int) -> CoeffFn:
    """xi -> xi + (i/2M) t, one CoeffFn sum per series term: the binomial
    series of each x-power, cut after x-degree depth for a negative one,
    times that power's coefficient."""
    out = CoeffFn.zero()
    for q in dict.fromkeys(key[1] for key in f.terms):
        series = CoeffFn.zero()
        for m in range((q if q >= 0 else depth) + 1):
            cf = binom_half(HalfInt.of(q), m)
            if cf.is_zero():
                break
            series = series + CoeffFn.mono(q - m, m, I_HALF_OVER_M ** (q - m) * cf)
        out = out + series * f.x_slice(q)
    return out


def theta_t_by_orders(E: Symbol, req: HalfInt, nu: GaussRat) -> Symbol:
    """theta_t as one theta call per shifted order, summed with sym_add,
    under the same floor rules: a cut series or a floored input raises the
    floor."""
    depth = tr.default_depth(req)
    floor, cut = req, False
    total = Symbol.zero(R)
    for kappa, c in E.terms.items():
        if (c.min_x_degree() or 0) < 0:
            cut = True
            floor = hmax(floor, kappa + kappa - depth)
        total = sym_add(total, tr.theta(Symbol(XI, {kappa: shift_by_terms(c, depth)}), req, nu=nu))
    if E.floor is not EXACT:
        floor = hmax(floor, E.floor + E.floor)
    if cut or E.floor is not EXACT:
        total = Symbol(R, total.terms, hmax(total.floor, floor))
    return total


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
