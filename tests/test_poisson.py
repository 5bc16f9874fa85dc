"""Local functionals: variational calculus, brackets, Hamiltonian fields.

The central identity under test is that the generator functionals are
momentum pairings, so their Hamiltonian fields reproduce the coadjoint
rows exactly, and the bracket is a homomorphism up to exactly two
exceptional defect integrals whose measured signs are frozen here.
"""

import copy
import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    dispatched_hamiltonian_vector,
    dispatched_poisson_bracket,
    double_residue,
    npoint,
    reference_hamiltonian_vector,
    reference_poisson_bracket,
    t_residue,
)
from strategies import coeff_fns
from svpsido import poisson
from svpsido.halfint import h
from svpsido.kacmoody import coadjoint, embed_I, pairing
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
from svpsido.ring import CoeffFn, GaussRat, M
from svpsido.svalgebra import SvElement, sv_basis, sv_bracket

C2 = GaussRat(2)
I_M_QUARTER = GaussRat(0, Fraction(1, 4)) * M
M2 = M ** 2


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

    def test_copies_and_pickles_rebuild_the_jet(self):
        # they called __new__ with the whole tuple as the field
        J = jet(FIELD_V0, 1, 2)
        for out in (copy.copy(J), copy.deepcopy(J), pickle.loads(pickle.dumps(J))):
            assert out.__class__ is JetVar and out == J and str(out) == str(J)

    def test_is_its_field_order_tuple(self):
        J = jet(FIELD_V0, 1, 2)
        assert (J.field, J.i, J.j) == (FIELD_V0, 1, 2)
        assert J == (FIELD_V0, 1, 2) and hash(J) == hash((FIELD_V0, 1, 2))
        with pytest.raises(AttributeError):
            J.i = 3
        js = [jet(FIELD_V0, 1), jet(FIELD_VM2, 0, 2), jet(FIELD_V0), jet(FIELD_A, 2),
              jet(FIELD_V), jet(FIELD_VM2, 1)]
        assert [tuple(J) for J in sorted(js)] == sorted((J.field, J.i, J.j) for J in js)


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
        F = LocalFunctional.monomial(1, jet(FIELD_V)) + LocalFunctional.monomial(
            CoeffFn.mono(0, 1), jet(FIELD_VM2))
        assert F.classes() == {"v", "pair"}

    def test_immutable(self):
        F = LocalFunctional.monomial(1, jet(FIELD_V0))
        with pytest.raises(AttributeError):
            F.terms = {}

    def test_sub_cancels(self):
        F = LocalFunctional([((jet(FIELD_V0, 1), jet(FIELD_VM2)), CoeffFn.mono(1, 1)),
                             ((jet(FIELD_A),), CoeffFn.t_pow(2))])
        G = LocalFunctional.monomial(CoeffFn.t_pow(2), jet(FIELD_A))
        assert F - G == LocalFunctional.monomial(CoeffFn.mono(1, 1),
                                                 jet(FIELD_VM2), jet(FIELD_V0, 1))
        assert (F - F).is_zero()

    def test_multi_jet_rendering(self):
        F = LocalFunctional([
            ((jet(FIELD_VM2, 0, 2), jet(FIELD_V0, 1)), CoeffFn.mono(1, 1)),
            ((jet(FIELD_VM2), jet(FIELD_VM2)), 2),
            ((jet(FIELD_V, 1), jet(FIELD_V)), CoeffFn.t_pow(-1)),
            ((jet(FIELD_A),), 3),
            ((), CoeffFn.mono(0, -1)),
            ((jet(FIELD_V0, 0, 1), jet(FIELD_V0), jet(FIELD_VM2, 1, 1)), CoeffFn.mono(-2, 0)),
        ])
        assert str(F) == (
            "int int (r^-1)  +  int int (2) * V-2 * V-2  +  int int (t*r) * dr^2(V-2) * dt(V0)"
            "  +  int int (t^-2) * dt(dr(V-2)) * V0 * dr(V0)  +  int (3) * a"
            "  +  int (t^-1) * v * dt(v)")


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
            shifted = base + total_derivative(G, var)
            assert evaluate(shifted, self.mu) == evaluate(base, self.mu)

    def test_many_jet_monomials_match_the_residue_of_the_product(self):
        mu = npoint(v=CoeffFn.t_pow(1) + CoeffFn.t_pow(-2),
                    vm2=CoeffFn.mono(1, -1) + CoeffFn.mono(-1, 2, GaussRat(0, 1)),
                    v0=CoeffFn.t_pow(2) + CoeffFn.mono(0, -1), a=CoeffFn.t_pow(-1))
        monomials = [
            (CoeffFn.mono(-5, 2) + CoeffFn.t_pow(-1), (jet(FIELD_VM2), jet(FIELD_VM2, 0, 1), jet(FIELD_V0))),
            (CoeffFn.mono(-2, 4) + CoeffFn.mono(0, -3), (jet(FIELD_V0), jet(FIELD_VM2, 1, 0), jet(FIELD_V0, 0, 1), jet(FIELD_VM2))),
            (CoeffFn.t_pow(3) + CoeffFn.t_pow(-3), (jet(FIELD_V), jet(FIELD_V, 1), jet(FIELD_V))),
        ]
        for coeff, jets in monomials:
            F = LocalFunctional.monomial(coeff, *jets)
            product = substitute(F, mu)
            want = t_residue(product) if jets[0].field == FIELD_V else double_residue(product)
            assert not want.is_zero()
            assert evaluate(F, mu) == want
        total = LocalFunctional([(jets, coeff) for coeff, jets in monomials])
        assert evaluate(total, mu) == sum((evaluate(LocalFunctional.monomial(c, *js), mu)
                                           for c, js in monomials), CoeffFn.zero())

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
        pair = LocalFunctional([(js, c) for js, c in F.terms.items() if js[0].field != FIELD_V])
        assert poisson_bracket(pair, A, mu, C2).is_zero()


# ------------------------------------------- against the class-dispatched reference


_gauss = st.builds(GaussRat, st.integers(1, 3), st.sampled_from([0, 1, Fraction(-1, 2)]))


def _coeffs(tpows, xpows, min_size=0):
    return coeff_fns(tpows, xpows, (0, 1), _gauss, min_size=min_size)


def _dense(tpows, xpows):
    """Every monomial of the box, so that brackets often meet a residue."""
    keys = [(p, q, 0) for p in range(tpows[0], tpows[1] + 1)
            for q in range(xpows[0], xpows[1] + 1)]
    return st.lists(_gauss, min_size=len(keys), max_size=len(keys)).map(
        lambda vals: CoeffFn(dict(zip(keys, vals))))


_pair_jets = st.builds(JetVar, st.sampled_from([FIELD_VM2, FIELD_V0]),
                       st.integers(0, 2), st.integers(0, 1))
_pair_monomials = st.tuples(st.lists(_pair_jets, max_size=2), _coeffs((-1, 2), (0, 2), 1))
_loop_monomials = st.sampled_from([FIELD_V, FIELD_A]).flatmap(
    lambda fld: st.tuples(st.lists(st.builds(JetVar, st.just(fld), st.integers(0, 2)),
                                   min_size=1, max_size=2),
                          _coeffs((-2, 1), (0, 0), 1)))


@st.composite
def mixed_functionals(draw):
    """Sums of pair, v and a monomials, jet-free ones and total derivatives."""
    F = LocalFunctional(draw(st.lists(st.one_of(_pair_monomials, _loop_monomials),
                                      min_size=1, max_size=4)))
    for js, coeff in draw(st.lists(_pair_monomials, max_size=1)):
        F = F + total_derivative(LocalFunctional([(js, coeff)]), draw(st.sampled_from("TX")))
    for js, coeff in draw(st.lists(_loop_monomials, max_size=1)):
        F = F + total_derivative(LocalFunctional([(js, coeff)]), "T")
    return F


def _or_zero(slot):
    """A slot that is zero or drawn from slot, independently of the other
    slots, so that the products the formulas skip at a zero slot meet the
    references too."""
    return st.one_of(st.none(), slot)


_points = st.builds(npoint, v=_or_zero(_dense((-2, 1), (0, 0))),
                    vm2=_or_zero(_dense((-2, 1), (-1, 1))),
                    v0=_or_zero(_dense((-2, 1), (-1, 1))), a=_or_zero(_dense((-2, 1), (0, 0))))
_charges = st.sampled_from([GaussRat(0), GaussRat(Fraction(1, 3)), GaussRat(2), GaussRat(0, 1)])


@given(mixed_functionals(), mixed_functionals(), _points, _charges)
@settings(max_examples=150, deadline=None)
def test_formulas_match_the_class_dispatch(F, G, mu, c):
    assert poisson_bracket(F, G, mu, c) == dispatched_poisson_bracket(F, G, mu, c)
    assert hamiltonian_vector(F, mu, c) == dispatched_hamiltonian_vector(F, mu, c)


# Gaussian coefficients and M powers in every slot of the point that is
# not zero
_mass_gauss = st.builds(GaussRat, st.fractions(-3, 3, max_denominator=4),
                        st.fractions(-3, 3, max_denominator=4))


def _mass_coeffs(tpows, xpows):
    return coeff_fns(tpows, xpows, (-1, 2), _mass_gauss, min_size=1, max_size=6)


_mass_points = st.builds(npoint, v=_or_zero(_mass_coeffs((-2, 1), (0, 0))),
                         vm2=_or_zero(_mass_coeffs((-2, 1), (-3, 2))),
                         v0=_or_zero(_mass_coeffs((-2, 1), (-3, 2))),
                         a=_or_zero(_mass_coeffs((-2, 1), (0, 0))))


@given(mixed_functionals(), _mass_points, _charges)
@settings(max_examples=100, deadline=None)
def test_field_residues_match_the_products_at_mass_points(F, mu, c):
    # the v row reads res_x(V_-2 P_t + V_0 Q_t) from matching term pairs
    assert hamiltonian_vector(F, mu, c) == dispatched_hamiltonian_vector(F, mu, c)


# an int, a Fraction and Gaussian charges, and a charge with a mass power
_all_charges = st.sampled_from([2, Fraction(-1, 3), 0, GaussRat(0, 1),
                                GaussRat(Fraction(1, 2), -2), CoeffFn.const(3) * M])


@given(mixed_functionals(), mixed_functionals(), st.one_of(_points, _mass_points), _all_charges)
@settings(max_examples=150, deadline=None)
def test_bracket_and_field_match_the_whole_product_references(F, G, mu, c):
    assert poisson_bracket(F, G, mu, c) == reference_poisson_bracket(F, G, mu, c)
    assert hamiltonian_vector(F, mu, c) == reference_hamiltonian_vector(F, mu, c)


def test_bracket_at_builds_no_product_once_the_derivatives_are_taken(monkeypatch):
    F = lemma71_functional(SvElement(f=CoeffFn.t_pow(2), g=CoeffFn.t_pow(1)))
    G = lemma71_functional(SvElement(f=CoeffFn.t_pow(-1), h=CoeffFn.t_pow(2)))
    F = F + LocalFunctional.monomial(CoeffFn.t_pow(1), jet(FIELD_V), jet(FIELD_V, 1))
    G = G + LocalFunctional.monomial(CoeffFn.t_pow(-2), jet(FIELD_A))
    warm = [(poisson.derivatives_at(F, mu), poisson.derivatives_at(G, mu), mu)
            for mu in SLICE_POINTS + LOOSE_POINTS]
    want = [reference_poisson_bracket(F, G, mu, C2) for _, _, mu in warm]
    assert any(not value.is_zero() for value in want)
    calls = []
    real = CoeffFn.__mul__

    def counted(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(CoeffFn, "__mul__", counted)
    got = [poisson.bracket_at(df, dg, mu, C2) for df, dg, mu in warm]
    assert not calls
    monkeypatch.undo()
    assert got == want


# mutations of ring.triple_into, as seen from poisson: each must make the
# bracket differ from the reference somewhere on the points below
_KERNEL_MUTANTS = {
    "sign flipped": lambda k: lambda acc, f, g, h3, p, q, s: k(acc, f, g, h3, p, q, -s),
    "sign dropped": lambda k: lambda acc, f, g, h3, p, q, s: k(acc, f, g, h3, p, q, 1),
    "t target moved": lambda k: lambda acc, f, g, h3, p, q, s: k(acc, f, g, h3, p + 1, q, s),
    "x target moved": lambda k: lambda acc, f, g, h3, p, q, s: k(acc, f, g, h3, p, q - 1, s),
    "targets swapped": lambda k: lambda acc, f, g, h3, p, q, s: k(acc, f, g, h3, q, p, s),
}


def _bracket_mismatches():
    """(F, G, mu) triples on which the bracket differs from the reference."""
    els = [e for (_, _, e) in sv_basis(2)]
    loop = LocalFunctional.monomial(CoeffFn.t_pow(2), jet(FIELD_V), jet(FIELD_V, 1))
    central = LocalFunctional.monomial(CoeffFn.t_pow(2), jet(FIELD_A))
    funcs = [lemma71_functional(X) for X in els[::3]] + [loop, central + loop]
    out = []
    for F, G in itertools.combinations(funcs, 2):
        for mu in SLICE_POINTS + LOOSE_POINTS:
            if poisson_bracket(F, G, mu, C2) != reference_poisson_bracket(F, G, mu, C2):
                out.append((F, G, mu))
    return out


def test_the_reference_comparison_catches_every_kernel_mutant(monkeypatch):
    assert _bracket_mismatches() == []
    real = poisson.triple_into
    for name, mutate in _KERNEL_MUTANTS.items():
        monkeypatch.setattr(poisson, "triple_into", mutate(real))
        assert _bracket_mismatches(), name
    monkeypatch.undo()


def test_bracket_takes_each_derivative_once(monkeypatch):
    # four derivatives per functional; the class dispatch took twelve in all
    calls = []
    real = poisson.variational_derivative

    def counted(F, field):
        calls.append(field)
        return real(F, field)

    monkeypatch.setattr(poisson, "variational_derivative", counted)
    F = lemma71_functional(SvElement(f=CoeffFn.t_pow(2)))
    G = lemma71_functional(SvElement(f=CoeffFn.t_pow(-1)))
    poisson_bracket(F, G, SLICE_POINTS[0], C2)
    assert len(calls) == 8

def _defect(X, Y):
    """The frozen exceptional terms: (time, shift) pairs contribute
    -iM/4 int int g f'' V0, (shift, phase) pairs -M^2 int int u' g V0."""
    if not X.f.is_zero() and not Y.g.is_zero():
        fdd = X.f.deriv("T").deriv("T")
        return LocalFunctional.monomial(-(Y.g * fdd * I_M_QUARTER), jet(FIELD_V0))
    if not X.g.is_zero() and not Y.f.is_zero():
        return -_defect(Y, X)
    if not X.g.is_zero() and not Y.h.is_zero():
        return LocalFunctional.monomial(-(Y.h.deriv("T") * X.g * M2), jet(FIELD_V0))
    if not X.h.is_zero() and not Y.g.is_zero():
        return -_defect(Y, X)
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
