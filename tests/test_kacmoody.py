"""Centrally extended loop algebra of capped symbols, and its dual side.

The homomorphism test is the load-bearing one: embedding the momentum
realization must intertwine the symbol bracket with the extended bracket,
with the degree-one overflow reappearing as the reparametrization slot.
Dual-side oracles are hand-computed residues recorded inline.
"""

import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import (
    coadjoint_duality_defect,
    gauss_family_pair,
    npoint,
    quotient_nullity_defect,
    reference_coadjoint,
    reference_g_bracket,
    sym_scale,
    time_deriv,
)
from strategies import coeff_rows
from svpsido import kacmoody, suites
from svpsido.halfint import EXACT, h, hmax
from svpsido.kacmoody import (
    DualFamily,
    GDual,
    GElement,
    coadjoint,
    embed_I,
    embed_momentum_symbol,
    g_bracket,
    in_invariant_slice,
    pair_value,
    pairing,
)
from svpsido.psido import (
    R,
    XI,
    Symbol,
    adler_trace,
    sym_add,
    sym_bracket,
    sym_mul,
    sym_sub,
)
from svpsido.ring import CoeffFn, GaussRat, I_M, M, MINUS_2I_M
from svpsido.suites import VerifyConfig, run_suites
from svpsido.svaction import SchrodPoint, d_sigma_tilde
from svpsido.svalgebra import SvElement, phase_mode, shift_mode, sv_basis, time_mode
from svpsido.textio import scalar_str

REQ = h("-7/2")
C2 = GaussRat(2)

M2 = M ** 2


class TestContainers:
    def test_loop_coercion(self):
        A = GElement(w=3)
        assert A.w == CoeffFn.const(3)
        assert A.W.is_zero() and A.alpha.is_zero()

    def test_space_dependence_rejected(self):
        with pytest.raises(ValueError):
            GElement(w=CoeffFn.mono(0, 1))
        with pytest.raises(ValueError):
            GDual(a=CoeffFn.mono(1, 2))

    def test_order_cap(self):
        with pytest.raises(ValueError):
            GElement(W=Symbol(R, {h(2): CoeffFn.one()}))
        GElement(W=Symbol(R, {h(1): CoeffFn.one()}))

    def test_dual_depth_cap(self):
        with pytest.raises(ValueError):
            GDual(V=Symbol(R, {h(-3): CoeffFn.one()}))
        with pytest.raises(ValueError):
            GDual(V=Symbol(R, {h(-2): CoeffFn.one()}, floor=h(-2)))

    def test_momentum_side_rejected(self):
        with pytest.raises(ValueError):
            GElement(W=Symbol(XI, {h(1): CoeffFn.one()}))

    def test_immutable(self):
        A = GElement(w=1)
        with pytest.raises(AttributeError):
            A.w = CoeffFn.zero()

    def test_invariant_slice_membership(self):
        assert in_invariant_slice(npoint(vm2=CoeffFn.mono(2, 3), v0=CoeffFn.t_pow(1)))
        # an order -1 slot falls outside
        assert not in_invariant_slice(GDual(V=Symbol(R, {h(-1): CoeffFn.one()})))
        # space dependence in the order 0 slot falls outside
        assert not in_invariant_slice(npoint(v0=CoeffFn.mono(0, 1)))


class TestBracket:
    def test_loop_row(self):
        A = GElement(w=CoeffFn.t_pow(2))
        B = GElement(w=CoeffFn.t_pow(-1))
        out = g_bracket(A, B, C2, REQ)
        assert out.w == CoeffFn.const(-3)
        assert out.W.is_zero() and out.alpha.is_zero()

    def test_transport_row(self):
        A = GElement(w=CoeffFn.t_pow(1))
        B = GElement(W=Symbol(R, {h(0): CoeffFn.t_pow(2)}))
        out = g_bracket(A, B, C2, REQ)
        assert out.w.is_zero()
        assert out.W.coeff(h(0)) == CoeffFn.t_pow(2, 2)

    def test_central_row(self):
        A = GElement(W=Symbol(R, {h(1): CoeffFn.mono(0, 2)}))
        B = GElement(W=Symbol(R, {h(-1): CoeffFn.mono(0, -2)}))
        out = g_bracket(A, B, C2, REQ)
        # the pairing of the order 1 and order -1 slots feeds the center
        assert out.alpha == CoeffFn.const(4)
        out1 = g_bracket(A, B, GaussRat(1), REQ)
        assert out1.alpha == CoeffFn.const(2)

    @pytest.mark.parametrize(
        "W",
        [
            # top -1 with floor -1: the bracket against an order -2 symbol
            # is trusted to -3, so the zero transport term raises the floor
            Symbol(R, {h(-1): CoeffFn.mono(1, 1)}, h(-1)),
            Symbol(R, {}, h(-1)),  # a zero that carries a floor
            Symbol.zero(R),
        ],
    )
    def test_a_zero_loop_keeps_the_floor_of_its_term(self, W):
        # the transport terms as written before the zero ones were skipped
        def transported(A, B):
            out = sym_bracket(A.W, B.W, REQ)
            out = sym_add(out, sym_scale(time_deriv(B.W), A.w))
            return sym_sub(out, sym_scale(time_deriv(A.W), B.w))

        A = GElement(W=Symbol(R, {h(-2): CoeffFn.mono(2, 2)}))
        B = GElement(w=CoeffFn.t_pow(3), W=W)
        for X, Y in ((A, B), (B, A)):
            out = g_bracket(X, Y, C2, REQ)
            want = transported(X, Y)
            assert out.W == want
            assert out.W.floor == want.floor
        if W.floor is not EXACT:
            assert g_bracket(A, B, C2, REQ).W.floor == h(-1)

    def test_antisymmetry(self):
        els = [
            GElement(w=CoeffFn.t_pow(1)),
            GElement(W=Symbol(R, {h(1): CoeffFn.mono(1, 1)})),
            GElement(W=Symbol(R, {h(-1): CoeffFn.mono(0, -2)})),
            GElement(alpha=CoeffFn.t_pow(2)),
        ]
        for A, B in itertools.combinations(els, 2):
            lhs = g_bracket(A, B, C2, REQ)
            rhs = g_bracket(B, A, C2, REQ)
            assert lhs.w == -rhs.w and lhs.alpha == -rhs.alpha
            dW = sym_sub(lhs.W, sym_sub(Symbol.zero(R), rhs.W))
            assert dW.top() is None

    def test_center_is_central(self):
        A = GElement(alpha=CoeffFn.t_pow(3))
        B = GElement(w=CoeffFn.t_pow(1), W=Symbol(R, {h(1): CoeffFn.mono(0, -1)}))
        out = g_bracket(B, A, C2, REQ)
        # only the transport of the central coordinate survives
        assert out.W.is_zero()
        assert out.alpha == CoeffFn.t_pow(3, 3)

    def test_jacobi_spot(self):
        els = [
            GElement(w=CoeffFn.t_pow(2)),
            GElement(W=Symbol(R, {h(1): CoeffFn.mono(0, 2)})),
            GElement(W=Symbol(R, {h(-1): CoeffFn.mono(1, -2)})),
            GElement(w=CoeffFn.t_pow(-1), W=Symbol(R, {h(0): CoeffFn.mono(0, -1)})),
        ]
        deep = REQ - 1
        for A, B, C in itertools.combinations(els, 3):
            total = None
            for X, Y, Z in ((A, B, C), (B, C, A), (C, A, B)):
                inner = g_bracket(Y, Z, C2, deep)
                term = g_bracket(X, inner, C2, REQ)
                total = term if total is None else total.add(term)
            assert total.w.is_zero() and total.alpha.is_zero()
            assert total.W.top() is None


class TestPairing:
    def test_loop_coupling(self):
        assert pairing(npoint(v=CoeffFn.t_pow(-1)), GElement(w=1)) == CoeffFn.one()

    def test_symbol_coupling(self):
        mu = npoint(vm2=CoeffFn.one())
        A = GElement(W=Symbol(R, {h(1): CoeffFn.mono(-1, -1)}))
        assert pairing(mu, A) == CoeffFn.one()

    def test_central_coupling(self):
        mu = npoint(a=CoeffFn.t_pow(-1))
        assert pairing(mu, GElement(alpha=1)) == CoeffFn.one()

    def test_residue_selects_single_mode(self):
        mu = npoint(v=CoeffFn.t_pow(2))
        assert pairing(mu, GElement(w=CoeffFn.t_pow(1))).is_zero()
        assert pairing(mu, GElement(w=CoeffFn.t_pow(-3))) == CoeffFn.one()


def composed_pairing(mu, A):
    """Oracle: compose V o W down to order -1 and take the Adler trace."""
    integrand = mu.v * A.w + mu.a * A.alpha + adler_trace(sym_mul(mu.V, A.W, h(-1)))
    return integrand.residue("T").x_slice(0)


gauss = st.builds(GaussRat, st.integers(-3, 3), st.sampled_from([0, 1, Fraction(-1, 2)]))
# the M-terms of one (t, x) monomial: M-power -> coefficient
masses = st.dictionaries(st.integers(-1, 2), gauss, min_size=1, max_size=2)


def coeff_fns(tpows, xpows, min_size=0):
    return coeff_rows(tpows, xpows, masses, min_size=min_size, max_size=6)


# narrow power ranges, so that most draws meet a t^-1 x^-1 monomial
loops = coeff_fns((-3, 2), (0, 0))
space_coeffs = coeff_fns((-1, 0), (-2, 2), min_size=2)
dual_symbols = st.dictionaries(st.integers(-2, 2), space_coeffs, min_size=1, max_size=3)
dual_points = st.one_of(
    st.builds(npoint, v=loops, vm2=space_coeffs, v0=loops, a=loops),
    st.builds(GDual, loops, dual_symbols.map(lambda d: Symbol(R, d)), loops),
)
elements = st.builds(
    lambda w, terms, floor, alpha: GElement(w, Symbol(R, terms, floor), alpha),
    loops,
    st.dictionaries(st.integers(-3, 1), space_coeffs, min_size=1, max_size=3),
    st.one_of(st.none(), st.integers(-5, 1)),
    loops,
)


@given(dual_points, elements)
@settings(max_examples=200, deadline=None)
def test_pairing_matches_the_composed_trace(mu, A):
    try:
        want = composed_pairing(mu, A)
    except ValueError:
        with pytest.raises(ValueError, match="trace not determined"):
            pairing(mu, A)
        return
    assert pairing(mu, A) == want


# repeats come from drawing with replacement out of a small pool, and the
# narrow power ranges make distinct points share monomials
dual_families = st.lists(dual_points, min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=6)
)


@given(dual_families, elements)
@example(
    # a repeated point, and an order 0 slot that floor 0 leaves undetermined
    [npoint(vm2=CoeffFn.one()), npoint(vm2=CoeffFn.one(), v0=CoeffFn.t_pow(1)),
     npoint(vm2=CoeffFn.one())],
    GElement(W=Symbol(R, {h(1): CoeffFn.mono(-1, -1)}, h(0)), alpha=1),
)
@settings(max_examples=100, deadline=None)
def test_family_pairs_every_point_like_the_composed_trace(points, A):
    got = DualFamily(points).pair(A)
    assert len(got) == len(points)
    for mu, value in zip(points, got):
        try:
            want = composed_pairing(mu, A)
        except ValueError:
            assert value is None
        else:
            assert value == want


# three pairing terms with denominators 3, 4 and 6 that cancel exactly: the
# central slot gives 1/3, W's order -1 term 1/4 * (2)_1 = 1/2 and its order
# -2 term -5/6, all on the point's x^-2 d monomial or its a slot
_CANCELLING = (
    [GDual(V=Symbol(R, {h(1): CoeffFn.x_pow(-2)}), a=CoeffFn.one())],
    GElement(W=Symbol(R, {h(-1): CoeffFn.mono(-1, 2, Fraction(1, 4)),
                          h(-2): CoeffFn.mono(-1, 1, Fraction(-5, 6))}),
             alpha=CoeffFn.t_pow(-1, Fraction(1, 3))),
)


@given(dual_families, elements)
@example(*_CANCELLING)
@example(
    # Gaussian coefficients on the M-powers 0 (from W) and 1 (from alpha)
    [npoint(vm2=CoeffFn.const(GaussRat(Fraction(1, 2), 1)) * M,
            a=CoeffFn.t_pow(1, GaussRat(Fraction(3, 5), Fraction(-2, 5))) * M2)],
    GElement(W=Symbol(R, {h(1): CoeffFn.mono(-1, -1, GaussRat(2, Fraction(-1, 3))) * M ** -1}),
             alpha=CoeffFn.t_pow(-2, Fraction(1, 7)) * M ** -1),
)
@example(
    # floor -1 leaves the order 1 point undetermined and pairs the others
    [npoint(vm2=CoeffFn.one()), GDual(V=Symbol(R, {h(1): CoeffFn.x_pow(-2)})),
     npoint(a=CoeffFn.one())],
    GElement(W=Symbol(R, {h(1): CoeffFn.mono(-1, -1), h(-1): CoeffFn.mono(-1, 2)}, h(-1)),
             alpha=CoeffFn.t_pow(-1)),
)
@settings(max_examples=150, deadline=None)
def test_family_pairs_every_point_like_the_gauss_walk(points, A):
    family = DualFamily(points)
    want = gauss_family_pair(points, A)
    assert family.pair(A) == want
    sums: dict = {}
    family.add_into(A, sums)
    for n, row in sums.items():
        value = pair_value(row)
        assert family.is_zero(row) == value.is_zero()
        if want[n] is not None:
            assert value == want[n]


def test_sums_over_different_denominators_test_zero():
    points, A = _CANCELLING
    family = DualFamily(points)
    sums: dict = {}
    family.add_into(A, sums)
    assert list(sums) == [0]
    assert family.is_zero(sums[0])
    assert pair_value(sums[0]).is_zero()
    assert family.pair(A) == gauss_family_pair(points, A) == [CoeffFn.zero()]
    # the central slot alone does not cancel
    partial: dict = {}
    family.add_into(GElement(alpha=A.alpha), partial)
    assert not family.is_zero(partial[0])
    assert pair_value(partial[0]) == CoeffFn.const(Fraction(1, 3))
    # nor does a sum whose real parts cancel and whose imaginary part stays
    imaginary = GElement(W=A.W, alpha=CoeffFn.t_pow(-1, GaussRat(Fraction(1, 3), 1)))
    sums = {}
    family.add_into(imaginary, sums)
    assert not family.is_zero(sums[0])
    assert pair_value(sums[0]) == CoeffFn.const(GaussRat(0, 1))
    assert family.pair(imaginary) == gauss_family_pair(points, imaginary)


@pytest.mark.parametrize(
    "points, floor",
    [
        # the slice points reach top order 0
        ([mu for _, mu in suites._slice_points(2)], h(-1)),
        ([npoint(v=CoeffFn.t_pow(1), a=CoeffFn.one()), npoint(v=CoeffFn.t_pow(-1))], EXACT),
        ([GDual(V=Symbol(R, {h(1): CoeffFn.one(), h(-2): CoeffFn.x_pow(1)}))], h(-2)),
    ],
)
def test_family_floor_is_the_shallowest_floor_that_determines_every_trace(points, floor):
    family = DualFamily(points)
    assert family.floor == floor
    W = Symbol(R, {h(1): CoeffFn.mono(-1, -1)}, floor)
    assert all(value is not None for value in family.pair(GElement(W=W)))
    if floor is not EXACT:
        shallower = Symbol(R, {h(1): CoeffFn.mono(-1, -1)}, floor + h("1/2"))
        assert None in family.pair(GElement(W=shallower))


@pytest.mark.parametrize("floor", [h(-1), h("-3/2"), REQ])
def test_brackets_at_the_family_floor_pair_like_brackets_at_the_suite_floor(floor):
    # theorem61's duality and nullity pairs on its range 2 box
    n = 2
    ptab = DualFamily(mu for _, mu in suites._slice_points(n))
    demand = hmax(floor, ptab.floor)
    lifts = [embed_I(X, floor) for _, X in suites._labeled_basis(n)]
    for k in suites._degrees(n):
        for kap in (h("-1/2"), h(-1), h("-3/2")):
            E = Symbol(XI, {kap: CoeffFn.t_pow(k).t_to_x(MINUS_2I_M)})
            lifts.append(embed_momentum_symbol(E, floor))
    for X in lifts:
        for _, Y in suites._duality_probes(n):
            got = ptab.pair(g_bracket(X, Y, C2, demand))
            assert got == ptab.pair(g_bracket(X, Y, C2, floor)), (str(X), str(Y))


@functools.cache
def _duality_lifts(n: int) -> tuple:
    """theorem61's lifts on the range n box, each embedded at the suite
    floor and at the floor of the slice family: the basis through embed_I,
    whose time modes have w != 0, and the quotient directions through
    embed_momentum_symbol."""
    lifts = []
    for floor in (REQ, DualFamily(mu for _, mu in suites._slice_points(n)).floor):
        lifts += [embed_I(X, floor) for _, X in suites._labeled_basis(n)]
        for k in suites._degrees(n):
            for kap in (h("-1/2"), h(-1), h("-3/2")):
                E = Symbol(XI, {kap: CoeffFn.t_pow(k).t_to_x(MINUS_2I_M)})
                lifts.append(embed_momentum_symbol(E, floor))
    return tuple(lifts)


def _values(sums: dict) -> dict:
    """The nonzero values of a table of pairing sums, by point."""
    values = {n: pair_value(row) for n, row in sums.items()}
    return {n: value for n, value in values.items() if not value.is_zero()}


def _lift_pool(moving: bool):
    lifts = _duality_lifts(2)
    return st.sampled_from([X for X in lifts if not X.w.is_zero()] if moving else lifts)


def _probe_pool(order):
    probes = [Y for _, Y in suites._duality_probes(2)]
    return st.sampled_from([Y for Y in probes if order is None or Y.W.top() == h(order)])


# drawn on first use, since building the lifts embeds 58 elements; about half
# the draws take a time-mode lift, whose w != 0 adds the transport term
# w d_t Y.W, and about half an order -2 probe, whose transport term lies
# below a floor of -1
duality_lifts = st.deferred(lambda: st.one_of(_lift_pool(True), _lift_pool(False)))
duality_probes = st.deferred(lambda: st.one_of(_probe_pool(-2), _probe_pool(None)))
# order 1 monomial points: every transport term of those lifts against the
# order -2 probes meets one of them
order_one_points = [GDual(V=Symbol(R, {h(1): CoeffFn.mono(p, q)}))
                    for p in range(-5, 4) for q in range(-3, 2)]


@given(duality_lifts, duality_probes, st.sampled_from([REQ, h(-1), h(-2)]),
       st.lists(dual_points, max_size=2))
@example(
    # the lift of time[0] has w = -t, and the probe's order -2 term lies
    # below the floor -1: its transport term -t d^-2 is added into the
    # bracket's dict, which the wrap drops, and it meets the order 1 point
    # t^-2 x^-1 d, which that floor leaves undetermined
    embed_I(time_mode(0), REQ),
    GElement(W=Symbol(R, {h(-2): CoeffFn.t_pow(1)})),
    h(-1),
    [],
)
@settings(max_examples=60, deadline=None)
def test_bracket_tables_pair_like_the_wrapped_bracket(X, Y, floor, extra):
    # the slice points of theorem61, and points of higher order
    points = [mu for _, mu in suites._slice_points(2)] + order_one_points + extra
    family = DualFamily(points)
    w, flat, low, alpha = kacmoody.bracket_tables(X, Y, C2, floor)
    B = g_bracket(X, Y, C2, floor)
    got: dict = {}
    family.add_tables_into(got, w, flat, low, alpha)
    want: dict = {}
    family.add_into(B, want)
    # at every point, undetermined ones too, the tables sum what the
    # wrapped bracket sums: no term that the wrap drops below the floor
    values = _values(got)
    assert values == _values(want)
    undetermined = family.undetermined_at(low)
    assert undetermined == family.undetermined(B)
    for m, value in enumerate(family.pair(B)):
        if m in undetermined:
            assert value is None
        else:
            assert value == values.get(m, CoeffFn.zero())


def test_theorem61_names_the_first_undetermined_trace():
    # floor -1 is too shallow for some brackets against the order -2
    # points; pinned from the one-point-at-a-time pairing loop
    (rep,) = run_suites(["theorem61"], VerifyConfig(floor=h(-1), index_range=2, threads=1))
    assert (rep.cases, rep.passed) == (4311, 4061)
    first = rep.failures[0]
    assert first.inputs == "duality: X = time[-2], probe W = t^-2*r^-2*d_r | exact"
    assert first.lhs == "raised ValueError: trace not determined at this truncation"
    assert first.rhs == "a finished check"


def _doubled(table: dict) -> dict:
    return {k: (2 * a, 2 * b, d) for k, (a, b, d) in table.items()}


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda w, flat, low, alpha: (w, flat, low, _doubled(alpha)),
        lambda w, flat, low, alpha: (w, _doubled(flat), low, alpha),
    ],
    ids=["central slot doubled", "loop slot doubled"],
)
def test_theorem61_reports_the_defect_of_the_first_point_it_fails_at(monkeypatch, corrupt):
    # a corrupted bracket breaks the duality; each failure must name what
    # pairing the points one by one finds first.  The corruption goes into
    # the slot tables, which theorem61 pairs unwrapped and g_bracket (the
    # reference defect's bracket) wraps
    tables = kacmoody.bracket_tables

    def corrupted(A, B, c, req_floor):
        return corrupt(*tables(A, B, c, req_floor))

    monkeypatch.setattr(suites, "bracket_tables", corrupted)
    monkeypatch.setattr(kacmoody, "bracket_tables", corrupted)
    n = 2
    cfg = VerifyConfig(index_range=n, threads=1)
    (rep,) = run_suites(["theorem61"], cfg)
    failures = [f for f in rep.failures if f.inputs.startswith("duality")]
    assert failures and len(failures) == len(rep.failures)
    basis = dict(suites._labeled_basis(n))
    probes = dict(suites._duality_probes(n))
    points = suites._slice_points(n)
    for failure in failures:
        lx, ly = failure.inputs[len("duality: X = "):].split(", probe ")
        for lm, mu in points:
            d = coadjoint_duality_defect(basis[lx], mu, probes[ly], cfg.c, cfg.floor)
            if not d.is_zero():
                break
        else:
            pytest.fail(f"no point has a defect for {failure.inputs}")
        assert failure.lhs == f"defect {scalar_str(d)} at {lm}"
        assert failure.rhs == "0"


class TestEmbedding:
    def test_time_slot_recovery(self):
        f = CoeffFn.t_pow(2)
        E = embed_I(SvElement(f=f), REQ)
        assert E.w == -f
        assert E.alpha.is_zero()

    def test_phase_image_is_exact(self):
        E = embed_I(SvElement(h=CoeffFn.t_pow(1)), REQ)
        expected = Symbol(R, {h(0): CoeffFn.t_pow(1, I_M),
                              h(-1): CoeffFn.mono(0, 1, M2)})
        assert E.W.floor is EXACT
        assert E.W == expected
        assert E.w.is_zero()

    def test_shift_image_is_exact(self):
        E = embed_I(SvElement(g=CoeffFn.t_pow(1)), REQ)
        expected = Symbol(R, {h(1): -CoeffFn.t_pow(1),
                              h(0): CoeffFn.mono(0, 1, I_M)})
        assert E.W == expected
        assert E.w.is_zero()

    def test_order_cap_guard(self):
        with pytest.raises(ValueError):
            embed_momentum_symbol(Symbol(XI, {h(2): CoeffFn.one()}), REQ)

    def test_space_side_rejected(self):
        with pytest.raises(ValueError):
            embed_momentum_symbol(Symbol(R, {h(1): CoeffFn.one()}), REQ)


def test_bracket_homomorphism():
    """Embedding intertwines the momentum symbol bracket with the extended
    bracket; the center never fires because images carry no negative
    space powers.  Runs over all basis pairs within range 2."""
    from svpsido.transforms import j_map

    deep = h(Fraction(REQ.twice, 2) - 2)
    els = [e for (_, _, e) in sv_basis(2)]
    emb = {}
    jm = {}
    for i, X in enumerate(els):
        jm[i] = j_map(X)
        emb[i] = embed_momentum_symbol(jm[i], deep)
    for i, j in itertools.combinations(range(len(els)), 2):
        lhs = g_bracket(emb[i], emb[j], C2, REQ)
        rhs = embed_momentum_symbol(sym_bracket(jm[i], jm[j], REQ), REQ)
        assert lhs.w == rhs.w, (str(els[i]), str(els[j]))
        assert lhs.alpha.is_zero() and rhs.alpha.is_zero()
        dW = sym_sub(lhs.W, rhs.W)
        if dW.floor is EXACT:
            assert dW.is_zero(), (str(els[i]), str(els[j]), str(dW))
        else:
            assert dW.floor <= REQ
            assert dW.top() is None, (str(els[i]), str(els[j]), str(dW))


class TestCoadjoint:
    def test_time_rows(self):
        # f = t^2 against a fully populated point, center at 2
        f = CoeffFn.t_pow(2)
        mu = npoint(v=CoeffFn.t_pow(1), vm2=CoeffFn.mono(1, -2),
                    v0=CoeffFn.t_pow(2), a=CoeffFn.t_pow(1))
        out = coadjoint(SvElement(f=f), mu, C2)
        t = CoeffFn.t_pow
        assert out.v == -t(1) - t(2, 5)
        assert out.V.coeff(h(-2)) == -CoeffFn.mono(2, -2, 3) + t(1, I_M)
        assert out.V.coeff(h(0)) == -t(3, 4) + t(2, 2)
        assert out.a == -t(2, 3)

    def test_shift_rows(self):
        g = CoeffFn.t_pow(2)
        vm2 = CoeffFn.mono(1, -1) + CoeffFn.mono(0, 2)
        mu = npoint(vm2=vm2, a=CoeffFn.t_pow(1))
        out = coadjoint(SvElement(g=g), mu, C2)
        assert out.v == -CoeffFn.t_pow(2, 2)
        expected = CoeffFn.mono(3, -2) - CoeffFn.mono(2, 1, 2) - CoeffFn.mono(1, 1, 4 * M2)
        assert out.V.coeff(h(-2)) == expected
        assert out.V.coeff(h(0)).is_zero() and out.a.is_zero()

    def test_phase_row(self):
        hf = CoeffFn.t_pow(2)
        mu = npoint(vm2=CoeffFn.mono(1, 1), a=CoeffFn.t_pow(1))
        out = coadjoint(SvElement(h=hf), mu, C2)
        assert out.v.is_zero() and out.a.is_zero()
        assert out.V.coeff(h(-2)) == -CoeffFn.mono(2, 0, 4 * M2)

    def test_slice_guard(self):
        mu = GDual(V=Symbol(R, {h(-1): CoeffFn.one()}))
        with pytest.raises(ValueError):
            coadjoint(time_mode(0), mu, C2)

    def test_slice_stability(self):
        pts = [npoint(v=CoeffFn.t_pow(1)), npoint(vm2=CoeffFn.mono(2, -2)),
               npoint(v0=CoeffFn.t_pow(-1)), npoint(a=CoeffFn.t_pow(2))]
        for _, _, X in sv_basis(2):
            for mu in pts:
                assert in_invariant_slice(coadjoint(X, mu, C2))

    def test_matches_direct_action_at_center_two(self):
        pts = [npoint(vm2=CoeffFn.mono(1, 1), a=CoeffFn.t_pow(1)),
               npoint(vm2=CoeffFn.mono(-1, -2)),
               npoint(a=CoeffFn.one())]
        for _, _, X in sv_basis(2):
            for mu in pts:
                out = coadjoint(X, mu, C2)
                act = d_sigma_tilde(Fraction(0), X, SchrodPoint(a=mu.a, V=mu.V.coeff(h(-2))))
                assert out.V.coeff(h(-2)) == act.V, str(X)
                assert out.a == act.a, str(X)

    def test_center_one_breaks_the_match(self):
        seen = 0
        pts = [npoint(vm2=CoeffFn.mono(1, 1), a=CoeffFn.t_pow(1)),
               npoint(a=CoeffFn.one())]
        for _, _, X in sv_basis(2):
            for mu in pts:
                out = coadjoint(X, mu, GaussRat(1))
                act = d_sigma_tilde(Fraction(0), X, SchrodPoint(a=mu.a, V=mu.V.coeff(h(-2))))
                if out.V.coeff(h(-2)) != act.V or out.a != act.a:
                    seen += 1
        assert seen > 0


def ref_coadjoint_v(X: SvElement, mu: GDual) -> CoeffFn:
    """The v row of the coadjoint action, with res_x(r V_-2) and res_x(V_-2)
    read off the full products."""
    v, vm2 = mu.v, mu.V.coeff(h(-2))
    out = CoeffFn.zero()
    if not X.f.is_zero():
        fd = X.f.deriv("T")
        fdd = fd.deriv("T")
        out = (out - fdd * (CoeffFn.x_pow(1) * vm2).residue("X") * Fraction(1, 2)
               - (X.f * v.deriv("T") + fd * v * 2))
    if not X.g.is_zero():
        out = out - X.g.deriv("T") * vm2.residue("X")
    return out


@given(
    st.builds(SvElement, loops, loops, loops),
    st.builds(npoint, v=loops, vm2=coeff_fns((-2, 2), (-4, 3), min_size=1), v0=loops, a=loops),
    gauss,
)
@settings(max_examples=100, deadline=None)
def test_coadjoint_v_row_matches_the_product_residues(X, mu, c):
    assert coadjoint(X, mu, c).v == ref_coadjoint_v(X, mu)


# ---- against the slot-by-slot references -------------------------------------


def _outcome(fn, *args):
    """fn's value, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as err:
        return ("ValueError", str(err))


charges = st.sampled_from([2, Fraction(1, 3), GaussRat(0, 1), GaussRat(Fraction(-1, 2), 2), 0])
loops_or_zero = st.one_of(st.just(CoeffFn.zero()), loops)
# zero and nonzero W, exact or floored, at floors above and below -1
bracket_elements = st.builds(
    lambda w, terms, floor, alpha: GElement(w, Symbol(R, terms, floor), alpha),
    loops_or_zero,
    st.dictionaries(st.integers(-3, 1), space_coeffs, max_size=3),
    st.one_of(st.none(), st.sampled_from([h(0), h(-1), h("-3/2"), h(-2), h(-3), h(-5)])),
    loops_or_zero,
)


@given(bracket_elements, bracket_elements, charges,
       st.sampled_from([h(-1), h("-3/2"), h(-2), REQ, h(-5)]))
@example(  # a floored zero W against a loop: the floor survives the zero loop
    GElement(W=Symbol(R, {h(-2): CoeffFn.mono(2, 2)})),
    GElement(w=CoeffFn.t_pow(3), W=Symbol(R, {}, h(-1))),
    GaussRat(0, 1), REQ,
)
@example(  # both exact and every tail ends by itself: the result is exact
    GElement(w=CoeffFn.t_pow(1), W=Symbol(R, {h(1): CoeffFn.mono(1, 2)})),
    GElement(W=Symbol(R, {h(0): CoeffFn.mono(-1, 1), h(-1): CoeffFn.mono(0, 1)}),
             alpha=CoeffFn.t_pow(2)),
    Fraction(1, 3), REQ,
)
@settings(max_examples=200, deadline=None)
def test_g_bracket_matches_the_slot_by_slot_reference(A, B, c, floor):
    got = _outcome(g_bracket, A, B, c, floor)
    want = _outcome(reference_g_bracket, A, B, c, floor)
    assert got == want
    if isinstance(want, GElement):
        assert (got.W.floor is EXACT) == (want.W.floor is EXACT)
        assert got.W.floor == want.W.floor


def test_g_bracket_pinned_examples_cover_both_floor_kinds():
    exact = g_bracket(GElement(w=CoeffFn.t_pow(1), W=Symbol(R, {h(1): CoeffFn.mono(1, 2)})),
                      GElement(W=Symbol(R, {h(0): CoeffFn.mono(-1, 1)})), C2, REQ)
    assert exact.W.floor is EXACT and not exact.W.is_zero()
    floored = g_bracket(GElement(W=Symbol(R, {h(-2): CoeffFn.mono(2, 2)})),
                        GElement(w=CoeffFn.t_pow(3), W=Symbol(R, {}, h(-1))), C2, REQ)
    assert floored.W.floor == h(-1)


@given(
    st.builds(SvElement, loops_or_zero, loops_or_zero, loops_or_zero),
    st.builds(npoint, v=loops, vm2=coeff_fns((-2, 2), (-4, 3), min_size=1), v0=loops, a=loops),
    charges,
)
@settings(max_examples=150, deadline=None)
def test_coadjoint_matches_the_row_by_row_reference(X, mu, c):
    assert coadjoint(X, mu, c) == reference_coadjoint(X, mu, c)


def test_kept_coadjoint_factors_follow_the_charge():
    # the same basis objects keep their loop factors from one call to the
    # next, while the charge changes: theorem61's negative control reuses
    # the basis at c = 1 after its rows at c = 2
    basis = [X for _, X in suites._labeled_basis(2)]
    points = [mu for _, mu in suites._slice_points(2)]
    for c in (GaussRat(2), GaussRat(1), GaussRat(Fraction(1, 3)), CoeffFn.const(2)):
        for X in basis:
            fresh = SvElement(X.f, X.g, X.h)
            for mu in points:
                got = coadjoint(X, mu, c)
                assert got == reference_coadjoint(X, mu, c), (str(X), str(mu), c)
                assert got == coadjoint(fresh, mu, c)


def duality_probes():
    Ys = [GElement(W=Symbol(R, {h(k): CoeffFn.mono(qt, qr)}))
          for k in (-2, -1, 0, 1) for qr in (-2, -1, 1) for qt in (-1, 2)]
    Ys.append(GElement(w=CoeffFn.t_pow(1)))
    Ys.append(GElement(alpha=CoeffFn.t_pow(-2)))
    return Ys


class TestDuality:
    Xs = [time_mode(-2), time_mode(1), shift_mode(h("-3/2")), shift_mode(h("1/2")),
          phase_mode(-1), phase_mode(2)]
    mus = [npoint(v=CoeffFn.t_pow(1)), npoint(vm2=CoeffFn.mono(2, -2)),
           npoint(v0=CoeffFn.t_pow(2)), npoint(a=CoeffFn.t_pow(-1)),
           npoint(v=CoeffFn.t_pow(-2), vm2=CoeffFn.mono(1, -1),
                  v0=CoeffFn.t_pow(-1), a=CoeffFn.t_pow(2))]

    @pytest.mark.parametrize("X", Xs, ids=str)
    def test_defect_vanishes(self, X):
        for mu in self.mus:
            for Y in duality_probes():
                d = coadjoint_duality_defect(X, mu, Y, C2, REQ)
                assert d.is_zero(), (str(mu), str(Y), str(d))

    def test_defect_vanishes_at_any_center(self):
        # the dual rows carry the center symbolically, so duality is an
        # identity in c rather than a c = 2 coincidence
        mu = npoint(vm2=CoeffFn.mono(1, -1), a=CoeffFn.one())
        Y = GElement(W=Symbol(R, {h(1): CoeffFn.mono(-1, -1)}))
        for c in (GaussRat(1), GaussRat(Fraction(-7, 3)), GaussRat(0, 1)):
            for X in self.Xs:
                assert coadjoint_duality_defect(X, mu, Y, c, REQ).is_zero()


class TestQuotientNullity:
    def test_deep_orders_pair_to_zero(self):
        mus = [npoint(v=CoeffFn.t_pow(1)), npoint(vm2=CoeffFn.mono(1, -1)),
               npoint(v0=CoeffFn.t_pow(2), a=CoeffFn.t_pow(-1))]
        for kappa in (h("-1/2"), h(-1), h("-3/2")):
            for fn in (CoeffFn.one(), CoeffFn.t_pow(2), CoeffFn.t_pow(-1)):
                for mu in mus:
                    for Y in duality_probes()[::4]:
                        val = quotient_nullity_defect(fn, kappa, mu, Y, REQ)
                        assert val.is_zero(), (kappa, str(fn), str(mu), str(Y))

    def test_rejects_visible_orders(self):
        with pytest.raises(ValueError):
            quotient_nullity_defect(CoeffFn.one(), h(0), npoint(v=CoeffFn.one()),
                                    GElement(w=1), REQ)
