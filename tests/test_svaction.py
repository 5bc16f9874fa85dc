"""Weighted actions on evolution-operator points.

A point (a, V) stands for the operator a(t) * (free evolution) + V(t, r).
Both action variants must represent the bracket; they differ only by a
transport term on (a, V), and that difference is pinned down exactly.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import reference_action
from strategies import coeff_fns
from svpsido.ring import CoeffFn, GaussRat, I_M, M
from svpsido.svaction import SchrodPoint, d_sigma_affine, d_sigma_tilde
from svpsido.svalgebra import SvElement, sv_basis, sv_bracket


WEIGHTS = (Fraction(0), Fraction(1, 4), Fraction(1))

gauss = st.builds(GaussRat, st.fractions(-3, 3, max_denominator=3), st.fractions(-3, 3, max_denominator=3))
loops = coeff_fns((-2, 3), (0, 0), (-1, 1), gauss)


def commutator(action, mu, X, Y, P):
    xy = action(mu, X, action(mu, Y, P))
    yx = action(mu, Y, action(mu, X, P))
    return xy - yx


class TestPoint:
    def test_scalar_coercion(self):
        P = SchrodPoint(a=1, V=CoeffFn.mono(1, 2))
        assert P.a == CoeffFn.one()

    def test_time_only_amplitude(self):
        with pytest.raises(ValueError):
            SchrodPoint(a=CoeffFn.mono(0, 1), V=CoeffFn.zero())

    def test_immutable(self):
        P = SchrodPoint(a=1, V=CoeffFn.zero())
        with pytest.raises(AttributeError):
            P.a = CoeffFn.zero()


class TestCuratedRows:
    P = SchrodPoint(a=CoeffFn.t_pow(1), V=CoeffFn.mono(1, 2))

    def test_time_row_weight_zero(self):
        f = CoeffFn.t_pow(2)
        out = d_sigma_tilde(Fraction(0), SvElement(f=f), self.P)
        # -f V. - f'/2 r V' - 2 f' V contribute (-1 - 2 - 4) t^2 r^2,
        # and the amplitude feeds i M f'' a / 2 = i M t
        expected_v = -CoeffFn.mono(2, 2, 7) + CoeffFn.t_pow(1, I_M)
        assert out.V == expected_v
        assert out.a == -CoeffFn.t_pow(2) - CoeffFn.t_pow(2, 2)

    def test_weight_quarter_kills_curvature_term(self):
        f = CoeffFn.t_pow(2)
        out0 = d_sigma_tilde(Fraction(0), SvElement(f=f), self.P)
        out4 = d_sigma_tilde(Fraction(1, 4), SvElement(f=f), self.P)
        assert out0.V - out4.V == CoeffFn.t_pow(1, I_M)
        assert out0.a == out4.a

    def test_cubic_tail(self):
        f = CoeffFn.t_pow(3)
        P = SchrodPoint(a=CoeffFn.one(), V=CoeffFn.zero())
        out = d_sigma_tilde(Fraction(1, 4), SvElement(f=f), P)
        # only the -M^2 r^2 f''' a / 2 tail survives at weight 1/4
        assert out.V == -CoeffFn.mono(0, 2, 3 * M ** 2)
        assert out.a == -CoeffFn.t_pow(2, 3)

    def test_shift_row(self):
        g = CoeffFn.t_pow(2)
        out = d_sigma_tilde(Fraction(0), SvElement(g=g), self.P)
        assert out.V == -CoeffFn.mono(3, 1, 2) - CoeffFn.mono(1, 1, 4 * M ** 2)
        assert out.a.is_zero()

    def test_phase_row(self):
        hf = CoeffFn.t_pow(2)
        out = d_sigma_tilde(Fraction(0), SvElement(h=hf), self.P)
        assert out.V == -CoeffFn.mono(2, 0, 4 * M ** 2)
        assert out.a.is_zero()


@pytest.mark.parametrize("mu", WEIGHTS, ids=str)
def test_tilde_represents_bracket(mu):
    els = [e for (_, _, e) in sv_basis(2)]
    P = SchrodPoint(a=CoeffFn.t_pow(1), V=CoeffFn.mono(1, 2))
    for X, Y in itertools.combinations(els, 2):
        direct = d_sigma_tilde(mu, sv_bracket(X, Y), P)
        assert commutator(d_sigma_tilde, mu, X, Y, P) == direct, (str(X), str(Y))


@pytest.mark.parametrize("mu", WEIGHTS, ids=str)
def test_affine_represents_bracket(mu):
    els = [e for (_, _, e) in sv_basis(2)]
    P = SchrodPoint(a=CoeffFn.t_pow(-1), V=CoeffFn.mono(2, 1))
    for X, Y in itertools.combinations(els, 2):
        direct = d_sigma_affine(mu, sv_bracket(X, Y), P)
        assert commutator(d_sigma_affine, mu, X, Y, P) == direct, (str(X), str(Y))


class TestVariantDiscrepancy:
    def test_time_rows_differ_by_transport(self):
        P = SchrodPoint(a=CoeffFn.t_pow(1), V=CoeffFn.mono(2, 1))
        for n in (-2, 0, 1, 3):
            f = CoeffFn.t_pow(n)
            fd = f.deriv("T")
            for mu in WEIGHTS:
                dt = d_sigma_tilde(mu, SvElement(f=f), P)
                da = d_sigma_affine(mu, SvElement(f=f), P)
                assert dt.a - da.a == -(P.a * fd)
                assert dt.V - da.V == -(fd * P.V)

    def test_other_rows_agree(self):
        P = SchrodPoint(a=CoeffFn.t_pow(1), V=CoeffFn.mono(2, 1))
        for X in (SvElement(g=CoeffFn.t_pow(2)), SvElement(h=CoeffFn.t_pow(-1))):
            for mu in WEIGHTS:
                assert d_sigma_tilde(mu, X, P) == d_sigma_affine(mu, X, P)


def test_kept_factors_follow_the_weight_and_the_variant():
    # the same basis objects keep their loop factors from one call to the
    # next, while the weight and the variant change, and back again
    els = [e for (_, _, e) in sv_basis(2)]
    points = (SchrodPoint(a=CoeffFn.t_pow(1), V=CoeffFn.mono(1, 2)),
              SchrodPoint(a=CoeffFn.one() + CoeffFn.t_pow(-2), V=CoeffFn.mono(-1, 3) + CoeffFn.t_pow(2)))
    for mu in (*WEIGHTS, Fraction(1, 4), Fraction(0), GaussRat(1, -2)):
        for action, variant in ((d_sigma_tilde, "tilde"), (d_sigma_affine, "affine")):
            for X in els:
                fresh = SvElement(X.f, X.g, X.h)
                for P in points:
                    got = action(mu, X, P)
                    assert got == reference_action(mu, X, P, variant), (str(X), mu, variant)
                    assert got == action(mu, fresh, P)


@given(st.builds(SvElement, loops, loops, loops),
       st.lists(st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1), Fraction(-2, 3)]),
                min_size=1, max_size=3),
       st.builds(SchrodPoint, loops, coeff_fns((-2, 2), (-2, 3), (-1, 1), gauss)))
@settings(max_examples=80, deadline=None)
def test_actions_match_the_per_call_reference(X, weights, P):
    for mu in weights:
        assert d_sigma_tilde(mu, X, P) == reference_action(mu, X, P, "tilde")
        assert d_sigma_affine(mu, X, P) == reference_action(mu, X, P, "affine")


def test_action_is_linear_in_the_point():
    X = SvElement(f=CoeffFn.t_pow(2), g=CoeffFn.t_pow(1), h=CoeffFn.one())
    P = SchrodPoint(a=CoeffFn.t_pow(1), V=CoeffFn.mono(1, 2))
    Q = SchrodPoint(a=CoeffFn.t_pow(-1), V=CoeffFn.mono(0, -1))
    both = P + Q
    for mu in WEIGHTS:
        lhs = d_sigma_tilde(mu, X, both)
        rp = d_sigma_tilde(mu, X, P)
        rq = d_sigma_tilde(mu, X, Q)
        assert lhs == rp + rq
