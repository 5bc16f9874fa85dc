"""Local functionals: variational calculus, brackets, Hamiltonian fields.

The central identity under test is that the generator functionals are
momentum pairings, so their Hamiltonian fields reproduce the coadjoint
rows exactly, and the bracket is a homomorphism up to exactly two
exceptional defect integrals whose measured signs are frozen here.
"""

import itertools
from fractions import Fraction

import pytest

from svpsido.halfint import h
from svpsido.kacmoody import GDual, coadjoint, embed_I, pairing
from svpsido.poisson import (
    FIELD_A,
    FIELD_V,
    FIELD_V0,
    FIELD_VM2,
    JetVar,
    LocalFunctional,
    evaluate,
    hamiltonian_vector,
    jet,
    lemma71_functional,
    n_preservation_check,
    poisson_bracket,
    substitute,
    total_derivative,
    variational_derivative,
)
from svpsido.psido import R, Symbol
from svpsido.ring import CoeffFn, GaussRat, M
from svpsido.svalgebra import SvElement, sv_basis, sv_bracket

C2 = GaussRat(2)
I_M_QUARTER = GaussRat(0, Fraction(1, 4)) * M
M2 = M ** 2


def npoint(v=None, vm2=None, v0=None, a=None):
    terms = {}
    if vm2 is not None:
        terms[h(-2)] = vm2
    if v0 is not None:
        terms[h(0)] = v0
    return GDual(v=v, V=Symbol(R, terms), a=a)


SLICE_POINTS = [npoint(v=CoeffFn.t_pow(1), vm2=CoeffFn.mono(1, -1),
                       v0=CoeffFn.t_pow(-1), a=CoeffFn.t_pow(-2)),
                npoint(vm2=CoeffFn.mono(-2, 2), v0=CoeffFn.one(), a=CoeffFn.t_pow(1))]
# space dependence in the shallow slot makes the defect integrals visible
LOOSE_POINTS = [npoint(v0=CoeffFn.mono(p, -1)) for p in range(-4, 2)]
LOOSE_POINTS.append(npoint(v=CoeffFn.t_pow(1), vm2=CoeffFn.mono(1, -1),
                           v0=CoeffFn.mono(-2, -1), a=CoeffFn.t_pow(-1)))


class TestJetVar:
    def test_guards(self):
        with pytest.raises(ValueError):
            JetVar("w")
        with pytest.raises(ValueError):
            JetVar(FIELD_VM2, -1)
        with pytest.raises(ValueError):
            JetVar(FIELD_V, 0, 1)

    def test_rendering(self):
        assert str(jet(FIELD_VM2)) == "V-2"
        assert str(jet(FIELD_V0, 1, 2)) == "dt(dr^2(V0))"
        assert str(jet(FIELD_A, 3)) == "dt^3(a)"


class TestFunctionalContainer:
    def test_monomials_merge_and_cancel(self):
        F = LocalFunctional([((jet(FIELD_V0),), CoeffFn.t_pow(1)),
                             ((jet(FIELD_V0),), -CoeffFn.t_pow(1))])
        assert F.is_zero()

    def test_class_mixing_rejected(self):
        with pytest.raises(ValueError):
            LocalFunctional.monomial(1, jet(FIELD_V), jet(FIELD_VM2))
        with pytest.raises(ValueError):
            LocalFunctional.monomial(1, jet(FIELD_V), jet(FIELD_A))

    def test_loop_coefficients_are_time_only(self):
        with pytest.raises(ValueError):
            LocalFunctional.monomial(CoeffFn.mono(0, 1), jet(FIELD_V))

    def test_sum_of_pure_classes_is_fine(self):
        F = LocalFunctional.monomial(1, jet(FIELD_V)).add(
            LocalFunctional.monomial(CoeffFn.mono(0, 1), jet(FIELD_VM2)))
        assert F.classes() == {"v", "pair"}

    def test_immutable(self):
        F = LocalFunctional.monomial(1, jet(FIELD_V0))
        with pytest.raises(AttributeError):
            F.terms = {}


class TestVariationalDerivative:
    def test_square(self):
        F = LocalFunctional.monomial(1, jet(FIELD_VM2), jet(FIELD_VM2))
        assert variational_derivative(F, FIELD_VM2) == \
            LocalFunctional.monomial(2, jet(FIELD_VM2))

    def test_self_transport_is_total(self):
        F = LocalFunctional.monomial(1, jet(FIELD_VM2), jet(FIELD_VM2, 0, 1))
        assert variational_derivative(F, FIELD_VM2).is_zero()

    def test_linear_jet(self):
        F = LocalFunctional.monomial(CoeffFn.mono(2, 1), jet(FIELD_V0))
        assert variational_derivative(F, FIELD_V0) == \
            LocalFunctional.monomial(CoeffFn.mono(2, 1))

    def test_integration_by_parts_sign(self):
        # d/dV of int c * dt(V) is -dc/dt
        F = LocalFunctional.monomial(CoeffFn.t_pow(3), jet(FIELD_V, 1))
        assert variational_derivative(F, FIELD_V) == \
            LocalFunctional.monomial(-CoeffFn.t_pow(2, 3))

    @pytest.mark.parametrize("var", ["T", "X"])
    def test_total_derivatives_die(self, var):
        mons = [LocalFunctional.monomial(CoeffFn.mono(1, 2),
                                         jet(FIELD_VM2, 1, 0), jet(FIELD_V0)),
                LocalFunctional.monomial(CoeffFn.mono(0, 1),
                                         jet(FIELD_VM2), jet(FIELD_VM2, 0, 2)),
                LocalFunctional.monomial(CoeffFn.mono(2, 0), jet(FIELD_V0, 2, 1)),
                LocalFunctional.monomial(CoeffFn.t_pow(1), jet(FIELD_V, 1), jet(FIELD_V))]
        for G in mons:
            D = total_derivative(G, var)
            for fld in (FIELD_VM2, FIELD_V0, FIELD_V, FIELD_A):
                assert variational_derivative(D, fld).is_zero()


class TestEvaluation:
    mu = npoint(v=CoeffFn.t_pow(1), vm2=CoeffFn.mono(1, -1),
                v0=CoeffFn.t_pow(2), a=CoeffFn.t_pow(-1))

    def test_pair_class_double_residue(self):
        # int int t^-2 r V-2 at V-2 = t r^-2: residues in both variables
        F = LocalFunctional.monomial(CoeffFn.mono(-2, 1), jet(FIELD_VM2))
        mu = npoint(vm2=CoeffFn.mono(1, -2))
        assert evaluate(F, mu) == CoeffFn.one()

    def test_loop_class_single_residue(self):
        F = LocalFunctional.monomial(CoeffFn.t_pow(-2), jet(FIELD_V))
        assert evaluate(F, self.mu) == CoeffFn.one()

    def test_quotient_semantics(self):
        base = LocalFunctional.monomial(CoeffFn.mono(-1, 0),
                                        jet(FIELD_VM2), jet(FIELD_V0))
        G = LocalFunctional.monomial(CoeffFn.mono(1, 2),
                                     jet(FIELD_VM2, 1, 0), jet(FIELD_V0))
        for var in ("T", "X"):
            shifted = base.add(total_derivative(G, var))
            assert evaluate(shifted, self.mu) == evaluate(base, self.mu)

    def test_substitute_applies_jets(self):
        F = LocalFunctional.monomial(CoeffFn.one(), jet(FIELD_VM2, 1, 1))
        got = substitute(F, npoint(vm2=CoeffFn.mono(2, 2)))
        assert got == CoeffFn.mono(1, 1, 4)


class TestGeneratorFunctionals:
    def test_phase_shape(self):
        F = lemma71_functional(SvElement(h=CoeffFn.t_pow(2)))
        assert F == LocalFunctional.monomial(
            CoeffFn.mono(1, 1, 2 * M2), jet(FIELD_V0))

    def test_constant_phase_gives_zero(self):
        assert lemma71_functional(SvElement(h=CoeffFn.one())).is_zero()

    def test_linear_shift_drops_curvature(self):
        F = lemma71_functional(SvElement(g=CoeffFn.t_pow(1)))
        assert F == LocalFunctional.monomial(-CoeffFn.t_pow(1), jet(FIELD_VM2))

    def test_time_family_has_all_three_rows(self):
        F = lemma71_functional(SvElement(f=CoeffFn.t_pow(2)))
        assert F.classes() == {"v", "pair"}
        assert variational_derivative(F, FIELD_V) == LocalFunctional.monomial(-CoeffFn.t_pow(2))
        assert variational_derivative(F, FIELD_VM2) == \
            LocalFunctional.monomial(-CoeffFn.mono(1, 1))
        assert variational_derivative(F, FIELD_V0) == \
            LocalFunctional.monomial(-CoeffFn.mono(0, 1, GaussRat(0, Fraction(1, 2)) * M))

    def test_functionals_are_momentum_pairings(self):
        pts = [npoint(v=CoeffFn.t_pow(-1)), npoint(vm2=CoeffFn.mono(-2, 1)),
               npoint(v0=CoeffFn.t_pow(-3)), npoint(a=CoeffFn.t_pow(1)),
               npoint(v=CoeffFn.t_pow(2), vm2=CoeffFn.mono(1, 1),
                      v0=CoeffFn.t_pow(-2), a=CoeffFn.one())]
        for _, _, X in sv_basis(2):
            F = lemma71_functional(X)
            IX = embed_I(X, h("-7/2"))
            for mu in pts:
                assert evaluate(F, mu) == pairing(mu, IX), str(X)


def test_hamiltonian_equals_coadjoint():
    pts = [npoint(v=CoeffFn.t_pow(p)) for p in (-2, 1)]
    pts += [npoint(v0=CoeffFn.t_pow(p)) for p in (-1, 2)]
    pts += [npoint(a=CoeffFn.t_pow(p)) for p in (-2, 0)]
    pts += [npoint(vm2=CoeffFn.mono(p, q)) for p in (-2, 0, 2) for q in (-2, -1, 1)]
    for _, _, X in sv_basis(2):
        F = lemma71_functional(X)
        for mu in pts:
            H = hamiltonian_vector(F, mu, C2)
            A = coadjoint(X, mu, C2)
            assert H.v == A.v and H.a == A.a and H.V == A.V, (str(X), str(mu))


class TestLoopClassRows:
    mu = npoint(v=CoeffFn.t_pow(1), vm2=CoeffFn.mono(1, 1),
                v0=CoeffFn.t_pow(2), a=CoeffFn.t_pow(-1))

    def test_loop_field(self):
        f = CoeffFn.t_pow(2)
        H = hamiltonian_vector(LocalFunctional.monomial(f, jet(FIELD_V)), self.mu, C2)
        assert H.v == self.mu.v * f.deriv("T") * 2 + self.mu.v.deriv("T") * f
        assert H.V.coeff(h(-2)) == (self.mu.V.coeff(h(-2)) * f).deriv("T")
        assert H.V.coeff(h(0)) == (self.mu.V.coeff(h(0)) * f).deriv("T")
        assert H.a == (self.mu.a * f).deriv("T")

    def test_central_field(self):
        psi = CoeffFn.t_pow(3)
        H = hamiltonian_vector(LocalFunctional.monomial(psi, jet(FIELD_A)), self.mu, C2)
        assert H.v == self.mu.a * psi.deriv("T")
        assert H.V.is_zero() and H.a.is_zero()


class TestBracket:
    def test_antisymmetry_and_diagonal(self):
        Fs = [lemma71_functional(SvElement(f=CoeffFn.t_pow(2))),
              lemma71_functional(SvElement(g=CoeffFn.t_pow(-1))),
              LocalFunctional.monomial(CoeffFn.mono(1, 1), jet(FIELD_VM2, 1, 0)),
              LocalFunctional.monomial(CoeffFn.t_pow(1), jet(FIELD_V, 1)),
              LocalFunctional.monomial(CoeffFn.t_pow(-1), jet(FIELD_A))]
        for F, G in itertools.combinations(Fs, 2):
            for mu in LOOSE_POINTS[:2] + SLICE_POINTS:
                assert poisson_bracket(F, G, mu, C2) == -poisson_bracket(G, F, mu, C2)
        for F in Fs:
            for mu in SLICE_POINTS:
                assert poisson_bracket(F, F, mu, C2).is_zero()

    def test_phase_phase_vanishes(self):
        F = lemma71_functional(SvElement(h=CoeffFn.t_pow(2)))
        G = lemma71_functional(SvElement(h=CoeffFn.t_pow(-1)))
        for mu in LOOSE_POINTS:
            assert poisson_bracket(F, G, mu, C2).is_zero()

    def test_central_class_decouples(self):
        F = lemma71_functional(SvElement(f=CoeffFn.t_pow(2)))
        A = LocalFunctional.monomial(CoeffFn.t_pow(2), jet(FIELD_A))
        B = LocalFunctional.monomial(CoeffFn.t_pow(-1), jet(FIELD_A))
        mu = SLICE_POINTS[0]
        assert poisson_bracket(A, B, mu, C2).is_zero()
        # a couples to the pair part only through the displayed c-term,
        # never to the central class directly
        assert poisson_bracket(F.part("pair"), A, mu, C2).is_zero()


def _defect(X, Y):
    """The frozen exceptional terms: (time, shift) pairs contribute
    -iM/4 int int g f'' V0, (shift, phase) pairs -M^2 int int u' g V0."""
    if not X.f.is_zero() and not Y.g.is_zero():
        fdd = X.f.deriv("T").deriv("T")
        return LocalFunctional.monomial(-(Y.g * fdd * I_M_QUARTER), jet(FIELD_V0))
    if not X.g.is_zero() and not Y.f.is_zero():
        return _defect(Y, X).neg()
    if not X.g.is_zero() and not Y.h.is_zero():
        return LocalFunctional.monomial(-(Y.h.deriv("T") * X.g * M2), jet(FIELD_V0))
    if not X.h.is_zero() and not Y.g.is_zero():
        return _defect(Y, X).neg()
    return LocalFunctional.zero()


def test_homomorphism_with_two_exceptions():
    els = [e for (_, _, e) in sv_basis(2)]
    exceptional_seen = 0
    for X, Y in itertools.combinations(els, 2):
        FX, FY = lemma71_functional(X), lemma71_functional(Y)
        FB = lemma71_functional(sv_bracket(X, Y))
        D = _defect(X, Y)
        for mu in LOOSE_POINTS + SLICE_POINTS:
            got = poisson_bracket(FX, FY, mu, C2)
            want = evaluate(FB, mu) + evaluate(D, mu)
            assert got == want, (str(X), str(Y), str(mu))
            if not D.is_zero() and not evaluate(D, mu).is_zero():
                exceptional_seen += 1
    assert exceptional_seen > 0


def test_defects_vanish_on_the_slice():
    X = SvElement(f=CoeffFn.t_pow(2))
    Y = SvElement(g=CoeffFn.t_pow(1))
    Z = SvElement(h=CoeffFn.t_pow(2))
    for mu in SLICE_POINTS:
        assert evaluate(_defect(X, Y), mu).is_zero()
        assert evaluate(_defect(Y, Z), mu).is_zero()
        lhs = poisson_bracket(lemma71_functional(X), lemma71_functional(Y), mu, C2)
        assert lhs == evaluate(lemma71_functional(sv_bracket(X, Y)), mu)


class TestPreservationCriterion:
    def test_curated(self):
        r = CoeffFn.mono(0, 1)
        assert n_preservation_check(
            LocalFunctional.monomial(r * r, jet(FIELD_VM2))) is False
        assert n_preservation_check(
            LocalFunctional.monomial(CoeffFn.one() + r, jet(FIELD_VM2))) is True
        assert n_preservation_check(
            LocalFunctional.monomial(1, jet(FIELD_VM2), jet(FIELD_VM2))) is False

    def test_jet_order_raises_the_bound(self):
        assert n_preservation_check(
            LocalFunctional.monomial(CoeffFn.mono(0, 2), jet(FIELD_VM2, 0, 1))) is True
        assert n_preservation_check(
            LocalFunctional.monomial(CoeffFn.mono(0, 3), jet(FIELD_VM2, 0, 1))) is False

    def test_loop_class_rejected(self):
        with pytest.raises(ValueError):
            n_preservation_check(LocalFunctional.monomial(1, jet(FIELD_V)))


def test_rendering():
    F = lemma71_functional(SvElement(h=CoeffFn.t_pow(2)))
    assert str(F) == "int int (2*M^2*t*r) * V0"
    assert "int (-t^2) * v" in str(lemma71_functional(SvElement(f=CoeffFn.t_pow(2))))
