"""Differential tests of the exact ring against independent oracles.

sympy evaluates every ring operation on expressions in which the
imaginary unit I and the mass M stay symbolic, and the Leibniz sum of a
symbol product with its own generalized binomials and derivatives.  A
Gaussian rational kept as a pair of Fractions, the textbook
representation, checks GaussRat component by component.
"""

from fractions import Fraction as F
from math import gcd

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svpsido.halfint import EXACT, HalfInt
from svpsido.psido import XI, Symbol, sym_mul
from svpsido.ring import CoeffFn, GaussRat, Scalar

T, X, M = sp.symbols("t x M")


# ---- conversions to sympy ---------------------------------------------------


def gauss_sp(g: GaussRat):
    return sp.Rational(g.re.numerator, g.re.denominator) + sp.I * sp.Rational(
        g.im.numerator, g.im.denominator
    )


def scalar_sp(s: Scalar):
    return sp.Add(*[gauss_sp(v) * M**k for k, v in s.terms.items()])


def coeff_sp(c: CoeffFn):
    return sp.Add(*[scalar_sp(v) * T**p * X**q for (p, q), v in c.terms.items()])


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
scalars = st.dictionaries(st.integers(min_value=-2, max_value=2), gauss, max_size=3).map(Scalar)
units = st.builds(Scalar.m_pow, st.integers(min_value=-3, max_value=3), nonzero_gauss)
coeffs = st.dictionaries(
    st.tuples(st.integers(min_value=-2, max_value=2), st.integers(min_value=-2, max_value=2)),
    scalars,
    max_size=3,
).map(CoeffFn)


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


# ---- Scalar ------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(scalars, scalars)
def test_scalar_ops_match_sympy(a, b):
    sa, sb = scalar_sp(a), scalar_sp(b)
    assert same(scalar_sp(a + b), sa + sb)
    assert same(scalar_sp(a - b), sa - sb)
    assert same(scalar_sp(a * b), sa * sb)
    assert (a == b) == same(sa, sb)


@settings(max_examples=60, deadline=None)
@given(units, scalars)
def test_scalar_unit_inverse_matches_sympy(u, s):
    assert same(scalar_sp(u.unit_inv()), sp.radsimp(1 / scalar_sp(u)))
    assert same(scalar_sp(s / u), scalar_sp(s) * sp.radsimp(1 / scalar_sp(u)))


def test_scalar_unit_inverse_refuses_non_monomials():
    with pytest.raises(ZeroDivisionError):
        (Scalar.one() + Scalar.m_pow(1)).unit_inv()


# ---- CoeffFn -----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(coeffs, coeffs)
def test_coeff_ops_match_sympy(f, g):
    sf, sg = coeff_sp(f), coeff_sp(g)
    assert same(coeff_sp(f + g), sf + sg)
    assert same(coeff_sp(f - g), sf - sg)
    assert same(coeff_sp(f * g), sf * sg)
    assert (f == g) == same(sf, sg)


@settings(max_examples=60, deadline=None)
@given(coeffs)
def test_coeff_calculus_matches_sympy(f):
    sf = sp.expand(coeff_sp(f))
    assert same(coeff_sp(f.deriv("T")), sp.diff(sf, T))
    assert same(coeff_sp(f.deriv("X")), sp.diff(sf, X))
    assert same(coeff_sp(f.residue("T")), sf.coeff(T, -1))
    assert same(coeff_sp(f.residue("X")), sf.coeff(X, -1))


# ---- sym_mul against the Leibniz sum ------------------------------------------------------

momentum_symbols = st.dictionaries(
    st.integers(min_value=-4, max_value=4).map(HalfInt),
    coeffs.filter(lambda c: not c.is_zero()),
    min_size=1,
    max_size=2,
).map(lambda terms: Symbol(XI, terms))


def leibniz_sp(A: Symbol, B: Symbol, floor: HalfInt) -> dict:
    """sum_j binom(a, j) f (d/dx)^j g d^(a+b-j), cut below floor."""
    out: dict = {}
    for a, f in A.terms.items():
        for b, g in B.terms.items():
            gj = sp.expand(coeff_sp(g))
            j = 0
            while gj != 0 and a + b - j >= floor:
                c = sp.binomial(sp.Rational(a.twice, 2), j)
                if c == 0:
                    break
                order = a + b - j
                out[order] = out.get(order, 0) + c * coeff_sp(f) * gj
                j += 1
                gj = sp.diff(gj, X)
    return out


@settings(max_examples=40, deadline=None)
@given(momentum_symbols, momentum_symbols, st.integers(min_value=-6, max_value=-2).map(HalfInt))
@example(  # the order-0 terms cancel: (d - x^-1) o x = x d
    Symbol(XI, {HalfInt(2): CoeffFn.one(), HalfInt(0): -CoeffFn.x_pow(-1)}),
    Symbol(XI, {HalfInt(0): CoeffFn.x_pow(1)}),
    HalfInt(-4),
)
def test_sym_mul_matches_the_leibniz_sum(A, B, req):
    P = sym_mul(A, B, req)
    # the product skips the constructor's checks, so it must already pass them
    assert P == Symbol(P.var, P.terms, P.floor)
    assert all(type(k) is HalfInt and type(c) is CoeffFn for k, c in P.terms.items())
    trusted = req if P.floor is EXACT else P.floor
    want = leibniz_sp(A, B, trusted)
    for order in set(P.terms) | set(want):
        if order >= trusted:
            assert same(coeff_sp(P.coeff(order)), want.get(order, 0)), order
