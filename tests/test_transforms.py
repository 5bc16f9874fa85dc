"""The non-local transform, the loop shift, and the generator factory.

Oracle strategy: inverse-pair products must multiply to 1, round trips
must reproduce the input on the trusted window, the trace must pull back
through the residue slot, and the frozen low-order expansions are checked
coefficient by coefficient against hand-derived loop functions.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies
from reference import gauss_shift_series, sym_scale
from svpsido.halfint import EXACT, HalfInt, h, hmax, max_low
from svpsido.psido import (
    R,
    XI,
    Symbol,
    adler_trace,
    differential_part,
    eq_trusted,
    sym_bracket,
    sym_mul,
    symbol_from_flat,
)
from svpsido.ring import (
    CoeffFn,
    GaussRat,
    I_M,
    M,
    MINUS_2I_M,
    TWO_I_M,
    coeff_from_table,
    scale_into,
)
from svpsido.diffop2 import DiffOp2, d_pi, dop_from_r_symbol, dop_mul, free_evolution_op
from svpsido.svalgebra import SvElement, shift_mode, sv_basis, sv_bracket, time_mode
from svpsido import transforms as tr

ONE_R = Symbol.function(R, CoeffFn.one())
ONE_XI = Symbol.function(XI, CoeffFn.one())


def xi_mono(q, kappa="0", coeff=1):
    return Symbol(XI, {h(kappa): CoeffFn.x_pow(q, coeff)})


class TestForward:
    def test_momentum_image(self):
        assert tr.theta(xi_mono(1)) == Symbol(R, {h(-1): CoeffFn.x_pow(1, Fraction(1, 2))})

    def test_inverse_momentum_image(self):
        # the symbol of 2 d_r o r^-1
        got = tr.theta(xi_mono(-1))
        assert got == Symbol(R, {h(1): CoeffFn.x_pow(-1, 2), h(0): CoeffFn.x_pow(-2, -2)})
        assert got.floor is EXACT

    def test_order_doubling(self):
        got = tr.theta(Symbol(XI, {h("3/2"): CoeffFn.one()}))
        assert got == Symbol(R, {h(3): CoeffFn.one()})

    def test_undeformed_images_are_exact(self):
        for q in range(-3, 4):
            assert tr.theta(xi_mono(q)).floor is EXACT

    def test_halves_stay_off_limits(self):
        with pytest.raises(ValueError):
            tr.theta(Symbol(R, {h(0): CoeffFn.one()}))

    def test_floored_input_rejected(self):
        D = Symbol(XI, {h(0): CoeffFn.x_pow(-1)}, h(-2))
        with pytest.raises(ValueError):
            tr.theta(D)

    @pytest.mark.parametrize("nu", [GaussRat(0), GaussRat(Fraction(3, 2)), GaussRat(0, 1)])
    def test_inverse_pair_products(self, nu):
        floor = h(-6)
        a = tr.theta(xi_mono(1), floor, nu=nu)
        b = tr.theta(xi_mono(-1), floor, nu=nu)
        assert eq_trusted(sym_mul(a, b, floor), ONE_R)
        assert eq_trusted(sym_mul(b, a, floor), ONE_R)

    def test_deformed_inverse_needs_floor(self):
        with pytest.raises(ValueError):
            tr.theta(xi_mono(-1), nu=GaussRat(1))

    def test_power_chain_consistency(self):
        floor = h(-6)
        one = tr.theta(xi_mono(1), floor)
        for q in (2, 3):
            direct = tr.theta(xi_mono(q), floor)
            chained = tr.theta(xi_mono(q - 1), floor)
            assert eq_trusted(direct, sym_mul(chained, one, floor))
        minus = tr.theta(xi_mono(-1), floor)
        for q in (-2, -3):
            direct = tr.theta(xi_mono(q), floor)
            chained = tr.theta(xi_mono(q + 1), floor)
            assert eq_trusted(direct, sym_mul(chained, minus, floor))

    def test_multiplicativity_on_disjoint_powers(self):
        # theta(xi^2 d^(1/2)) = theta(xi^2) o theta(d^(1/2))
        lhs = tr.theta(Symbol(XI, {h("1/2"): CoeffFn.x_pow(2)}))
        rhs = sym_mul(
            tr.theta(xi_mono(2)), tr.theta(Symbol(XI, {h("1/2"): CoeffFn.one()}))
        )
        assert lhs == rhs

    def test_trace_pullback(self):
        # Tr theta(a d^q) = 2 delta(q, -1) res(a)
        floor = h(-8)
        A = Symbol(XI, {h(-1): CoeffFn.x_pow(-1, Fraction(5, 3))})
        assert adler_trace(tr.theta(A, floor)) == CoeffFn.const(Fraction(10, 3))
        B = Symbol(XI, {h(-2): CoeffFn.x_pow(-1)})
        assert adler_trace(tr.theta(B, floor)).is_zero()
        C = Symbol(XI, {h(-1): CoeffFn.x_pow(-2)})
        assert adler_trace(tr.theta(C, floor)).is_zero()

    def test_algebra_homomorphism(self):
        # theta(A o B) = theta(A) o theta(B) whenever the product is exact
        floor = h(-5)
        lefts = [
            Symbol(XI, {h("1/2"): CoeffFn.x_pow(1)}),
            Symbol(XI, {h(1): CoeffFn.x_pow(-1)}),
            Symbol(XI, {h("-3/2"): CoeffFn.one()}),
            Symbol(XI, {h(0): CoeffFn.x_pow(2)}),
        ]
        rights = [
            Symbol(XI, {h(0): CoeffFn.x_pow(2)}),
            Symbol(XI, {h(1): CoeffFn.x_pow(1)}),
            Symbol(XI, {h("1/2"): CoeffFn.one()}),
            Symbol(XI, {h("-1/2"): CoeffFn.x_pow(3)}),
        ]
        for A in lefts:
            for B in rights:
                prod = sym_mul(A, B)  # polynomial right factors terminate
                assert prod.floor is EXACT
                lhs = tr.theta(prod, floor)
                rhs = sym_mul(tr.theta(A, floor), tr.theta(B, floor), floor)
                assert eq_trusted(lhs, rhs)

    def test_euler_grading_doubles(self):
        # every image term of xi^q d^kappa has space weight 2(q - kappa)
        for nu in (GaussRat(0), GaussRat(Fraction(1, 2))):
            for q in (-2, 0, 2):
                for tw in (-3, 0, 2):
                    kappa = h(Fraction(tw, 2))
                    img = tr.theta(
                        Symbol(XI, {kappa: CoeffFn.x_pow(q)}), h(-5), nu=nu
                    )
                    want = 2 * (Fraction(q) - kappa.as_fraction())
                    for k, c in img.terms.items():
                        for (_, n, _) in c.terms:
                            assert Fraction(n) - k.as_fraction() == want


class TestInverse:
    def test_base_images(self):
        assert tr.theta_inv(Symbol(R, {h(1): CoeffFn.one()})) == Symbol(
            XI, {h("1/2"): CoeffFn.one()}
        )
        assert tr.theta_inv(Symbol(R, {h(0): CoeffFn.x_pow(1)})) == Symbol(
            XI, {h("1/2"): CoeffFn.x_pow(1, 2)}
        )

    def test_inverse_space_power_is_a_series(self):
        got = tr.theta_inv(Symbol(R, {h(0): CoeffFn.x_pow(-1)}), h(-3))
        assert got.floor == h(-3)
        assert got.coeff(h("-1/2")) == CoeffFn.x_pow(-1, Fraction(1, 2))
        with pytest.raises(ValueError):
            tr.theta_inv(Symbol(R, {h(0): CoeffFn.x_pow(-1)}))

    def test_round_trip_from_momentum_side(self):
        floor = h(-4)
        for q in (-2, 0, 1, 2):
            for tw in (-1, 0, 3):
                D = Symbol(XI, {h(Fraction(tw, 2)): CoeffFn.x_pow(q, GaussRat(0, 1))})
                back = tr.theta_inv(tr.theta(D), floor)
                assert eq_trusted(back, D), (q, tw)

    def test_round_trip_from_space_side(self):
        for n in (0, 1, 2):
            for k in (0, 1, 2):
                D = Symbol(R, {h(k): CoeffFn.x_pow(n)})
                img = tr.theta_inv(D)
                assert img.floor is EXACT
                assert tr.theta(img) == D

    def test_inverse_pair_product(self):
        floor = h(-4)
        a = tr.theta_inv(Symbol(R, {h(0): CoeffFn.x_pow(1)}))
        b = tr.theta_inv(Symbol(R, {h(0): CoeffFn.x_pow(-1)}), floor)
        assert eq_trusted(sym_mul(a, b, floor), ONE_XI)
        assert eq_trusted(sym_mul(b, a, floor), ONE_XI)


def _round_trip(floor):
    return tr.theta_inv(tr.theta(xi_mono(-3, kappa=3)), floor)


def _deformed_image(floor):
    return tr.theta(xi_mono(-2, kappa=2), floor, nu=GaussRat(Fraction(1, 2)))


class TestRequestedFloor:
    """Answers honour the requested floor whatever the caches hold."""

    @staticmethod
    def _fresh_caches(monkeypatch):
        monkeypatch.setattr(tr, "_inv_images", tr.ThetaImageCache(tr._inv_build))
        monkeypatch.setattr(tr, "_theta_images", tr.ThetaImageCache(tr._theta_build))

    @pytest.mark.parametrize(
        "compute, req",
        [(_round_trip, h("-7/2")), (_deformed_image, h(-4))],
        ids=["theta_inv-theta", "deformed-theta"],
    )
    def test_cold_warm_and_deep_agree(self, monkeypatch, compute, req):
        self._fresh_caches(monkeypatch)
        cold = compute(req)
        compute(h(-14))
        warm = compute(req)
        self._fresh_caches(monkeypatch)
        deep = compute(h(-14))
        cut = Symbol(deep.var, {k: c for k, c in deep.terms.items() if k >= req}, req)
        assert cold.floor == req
        assert cold == warm == cut

    def test_round_trip_is_the_identity_at_the_request(self, monkeypatch):
        self._fresh_caches(monkeypatch)
        assert _round_trip(h("-7/2")) == Symbol(XI, xi_mono(-3, kappa=3).terms, h("-7/2"))

    def test_images_asked_above_the_request(self, monkeypatch):
        # negative orders shift the images down, so the images are asked
        # for at floors above the request: up to 2 and 5 here
        self._fresh_caches(monkeypatch)
        D = xi_mono(3, kappa=-1, coeff=Fraction(-3, 4) * M)
        assert tr.theta_inv(tr.theta(D), h("-3/2")) == D
        nu = GaussRat(Fraction(1, 2))
        assert tr.theta(xi_mono(-2, kappa=-3), h(-1), nu=nu) == Symbol(R, {}, h(-1))


# exact momentum symbols: 1 to 3 half-integer orders, each coefficient 1 to
# 3 terms with x-powers from -3 to 2
xi_symbols = st.dictionaries(
    st.integers(-3, 3).map(HalfInt),
    st.dictionaries(
        st.tuples(st.integers(-1, 1), st.integers(-3, 2), st.integers(-1, 1)),
        st.integers(-3, 3).filter(bool).map(GaussRat),
        min_size=1,
        max_size=3,
    ).map(CoeffFn),
    min_size=1,
    max_size=3,
).map(lambda terms: Symbol(XI, terms))


class TestUndeformedImagesIgnoreTheCache:
    """At nu = 0 every image is a finite composition, so a floored request
    gets the same exact answer on a cold cache and on a warm one."""

    def test_a_shallow_request_before_and_after_an_exact_one(self, monkeypatch):
        TestRequestedFloor._fresh_caches(monkeypatch)
        D = Symbol(XI, {h("-3/2"): CoeffFn.x_pow(-2), h("1/2"): CoeffFn.x_pow(-2),
                        h("3/2"): CoeffFn.x_pow(-2)})
        cold = tr.theta(D, h(-2))
        assert tr.theta(D) == cold
        assert tr.theta(D, h(-2)) == cold
        assert cold.floor is EXACT and len(cold.terms) == 8

    @settings(max_examples=30, deadline=None)
    @given(xi_symbols, st.sampled_from([h(-2), h("-7/2"), h(-4)]))
    def test_drawn_symbols(self, D, req):
        with pytest.MonkeyPatch.context() as mp:
            TestRequestedFloor._fresh_caches(mp)
            cold = tr.theta(D, req)
            tr.theta(D)
            assert tr.theta(D, req) == cold
            assert cold.floor is EXACT


def scaled_map(D, low, var, image):
    """The monomial map as one ring.scale_into per term of D into one dict,
    wrapped by symbol_from_flat: the construction that the map's own loop
    must match term for term, in insertion order."""
    out = EXACT
    flat: dict = {}
    for (kt, p, q, m), v in D.flat.items():
        dt = kt + kt if var == R else kt // 2
        img = image(q, low if low is EXACT else low - dt)
        if img.low is not EXACT:
            out = max_low(out, img.low + dt)
        scale_into(flat, img.flat.items(), dt, p, m, v)
    if out is not EXACT:
        out = max_low(out, low)
    return symbol_from_flat(var, flat, out)


def exact_symbols(var, tpows):
    """Exact symbols of var: tests/strategies.symbols with the floor dropped."""
    values = st.sampled_from([GaussRat(1), GaussRat(-1), GaussRat(Fraction(1, 2)), GaussRat(0, 1),
                              GaussRat(2, Fraction(-1, 3))])
    drawn = strategies.symbols(strategies.coeff_fns(tpows, (-3, 3), (-1, 1), values, 1, 3))
    return drawn.filter(lambda S: S.var == var).map(lambda S: Symbol(var, S.terms))


class TestMapMatchesScaledSums:
    """theta, theta_t and theta_inv give the values, floor and insertion
    order of scaled_map, on cold caches and then on warm ones."""

    @staticmethod
    def outcomes(D, E, S, req, nu):
        calls = (lambda: tr.theta(D, req, nu=nu), lambda: tr.theta_t(E, req, nu=nu),
                 lambda: tr.theta_inv(S, req))
        found = []
        for call in calls:
            try:
                got = call()
            except ValueError as exc:
                found.append(str(exc))
            else:
                found.append((got.var, got.floor, list(got.flat.items())))
        return found

    @settings(max_examples=40, deadline=None)
    @given(exact_symbols(XI, (-1, 1)), exact_symbols(XI, (0, 0)), exact_symbols(R, (-1, 1)),
           st.sampled_from([EXACT, h(-1), h("-7/2"), h(-6)]),
           st.sampled_from([GaussRat(0), GaussRat(Fraction(1, 2))]))
    def test_drawn_exact_symbols(self, D, E, S, req, nu):
        passes = {}
        for form in ("loop", "scaled"):
            with pytest.MonkeyPatch.context() as mp:
                TestRequestedFloor._fresh_caches(mp)
                if form == "scaled":
                    mp.setattr(tr, "_map_monomials", scaled_map)
                passes[form] = [self.outcomes(D, E, S, req, nu) for _ in ("cold", "warm")]
        assert passes["loop"] == passes["scaled"]


class TestImageBounds:
    def test_largest_power_is_built_without_recursion(self, monkeypatch):
        monkeypatch.setattr(tr, "_theta_images", tr.ThetaImageCache(tr._theta_build))
        img = tr.theta(xi_mono(tr.MAX_IMAGE_POWER))
        assert img.floor is EXACT
        assert img.top() == h(-tr.MAX_IMAGE_POWER)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_powers_beyond_the_bound_are_refused(self, sign):
        with pytest.raises(ValueError, match="bounded"):
            tr.theta(xi_mono(sign * (tr.MAX_IMAGE_POWER + 1)))
        with pytest.raises(ValueError, match="bounded"):
            tr.theta_inv(Symbol(R, {h(0): CoeffFn.x_pow(sign * (tr.MAX_IMAGE_POWER + 1))}), h(-2))

    def test_fills_below_the_deepest_image_floor_are_refused(self):
        # each negative power asks its neighbour half an order deeper, so
        # r^-4 at one order above the bound needs r^-1 half an order below
        floor = tr.DEEPEST_IMAGE_FLOOR + 1
        with pytest.raises(ValueError, match="built down to"):
            tr.theta_inv(Symbol(R, {h(0): CoeffFn.x_pow(-4)}), floor)

    def test_the_deepest_inverse_floor_is_served_cold(self, monkeypatch):
        # r^-1 at the bound asks r^0 half an order deeper, but r^0's image
        # is exact, so no floor is built past the bound
        monkeypatch.setattr(tr, "_inv_images", tr.ThetaImageCache(tr._inv_build))
        S = tr.theta_inv(Symbol(R, {h(0): CoeffFn.x_pow(-1)}), tr.DEEPEST_IMAGE_FLOOR)
        assert S.floor == tr.DEEPEST_IMAGE_FLOOR

    @pytest.mark.parametrize("nu", [GaussRat(Fraction(1, 2)), GaussRat(2, -1), GaussRat(1)])
    def test_deformed_inverse_images_need_a_floor_above_the_bound(self, nu):
        # xi^-1 at order 0 asks its image down to the floor itself
        with pytest.raises(ValueError, match="built down to order -48 at most"):
            tr.theta(xi_mono(-1), tr.DEEPEST_IMAGE_FLOOR - 2, nu=nu)
        with pytest.raises(ValueError, match="deformed inverse image is a series; give a floor"):
            tr.theta(xi_mono(-1), nu=nu)
        # the deepest floor itself is served, also where the sum reaches
        # undeformed powers past the bound, and a nonnegative power needs no floor
        assert tr.theta(xi_mono(-1), tr.DEEPEST_IMAGE_FLOOR, nu=nu).floor == tr.DEEPEST_IMAGE_FLOOR
        assert tr.theta(xi_mono(-20), tr.DEEPEST_IMAGE_FLOOR + 20, nu=nu).floor == h(-28)
        assert tr.theta(xi_mono(2), nu=nu).floor is EXACT


class TestLoopShift:
    def test_int_series_matches_the_gauss_series(self):
        # the same reduced triples, in the same order, as the series built
        # from GaussRat products
        for q in range(-8, 9):
            for depth in range(11):
                want = list(gauss_shift_series(q, depth).terms.items())
                assert tr._shift_series(q, depth) == want, (q, depth)

    def test_square_expansion(self):
        got = tr.time_shift(CoeffFn.x_pow(2), 8)
        expect = (
            CoeffFn.mono(2, 0, Fraction(-1, 4) * M ** -2)
            + CoeffFn.mono(1, 1, GaussRat(0, 1) * M ** -1)
            + CoeffFn.x_pow(2)
        )
        assert got == expect

    def test_inverse_power_series_head(self):
        got = tr.time_shift(CoeffFn.x_pow(-1), 3)
        assert {k: v for k, v in got.terms.items() if k[:2] == (-1, 0)} == {(-1, 0, 1): (0, -2, 1)}
        assert {k: v for k, v in got.terms.items() if k[:2] == (-2, 1)} == {(-2, 1, 2): (4, 0, 1)}
        # only ascending nonnegative momentum powers remain
        assert (got.min_x_degree() or 0) >= 0
        assert max(q for _, q, _ in got.terms) == 3

    def test_left_inverse(self):
        for q in (-2, -1, 0, 1, 3):
            f = CoeffFn.x_pow(q, Fraction(7, 2))
            assert tr.time_shift_inverse(tr.time_shift(f, 6)) == f

    def test_product_oracle(self):
        # shifted xi^-1 times shifted xi is 1 up to the cut degree
        depth = 6
        prod = tr.time_shift(CoeffFn.x_pow(-1), depth) * tr.time_shift(
            CoeffFn.x_pow(1), depth
        )
        assert prod.drop_x_from(depth) == CoeffFn.one()

    def test_space_values_rejected(self):
        with pytest.raises(ValueError):
            tr.time_shift(CoeffFn.t_pow(1), 4)

    def test_symbol_level_wrapper(self):
        D = Symbol(XI, {h("1/2"): CoeffFn.x_pow(1)})
        got = tr.time_shift_symbol(D, 4)
        assert got.coeff(h("1/2")) == tr.time_shift(CoeffFn.x_pow(1), 4)


class TestGeneratorFactory:
    def test_time_family_expansion(self):
        # -f d^2 + iM f' r d + (M^2/2) f'' r^2
        #   - ((M^2/2) f'' r + (i/6) M^3 f''' r^3) d^-1 + O(d^-2)
        m2h = Fraction(1, 2) * M ** 2
        i6m3 = GaussRat(0, Fraction(1, 6)) * M ** 3
        for n in (0, 1, 2, 3):
            f = CoeffFn.t_pow(n)
            fd = f.deriv("T")
            fdd = fd.deriv("T")
            fddd = fdd.deriv("T")
            expect = Symbol(
                R,
                {
                    h(2): -f,
                    h(1): fd * CoeffFn.x_pow(1) * I_M,
                    h(0): fdd * CoeffFn.x_pow(2) * m2h,
                    h(-1): -(
                        fdd * CoeffFn.x_pow(1) * m2h
                        + fddd * CoeffFn.x_pow(3) * i6m3
                    ),
                },
                h(-1),
            )
            assert eq_trusted(tr.x_generator(f, 1, h(-4)), expect), n

    def test_shift_family_expansion(self):
        m2h = Fraction(1, 2) * M ** 2
        for n in (0, 1, 2):
            g = CoeffFn.t_pow(n)
            gd = g.deriv("T")
            gdd = gd.deriv("T")
            expect = Symbol(
                R,
                {
                    h(1): -g,
                    h(0): gd * CoeffFn.x_pow(1) * I_M,
                    h(-1): gdd * CoeffFn.x_pow(2) * m2h,
                },
                h(-1),
            )
            assert eq_trusted(tr.x_generator(g, "1/2", h(-4)), expect), n

    def test_phase_family_leading_term(self):
        for n in (0, 1, 2):
            f = CoeffFn.t_pow(n)
            got = tr.x_generator(f, 0, h(-4))
            assert got.coeff(h(0)) == -f

    def test_polynomial_data_give_exact_symbols(self):
        assert tr.x_generator(CoeffFn.t_pow(2), 1, h(-4)).floor is EXACT

    def test_laurent_data_give_floored_symbols(self):
        got = tr.x_generator(CoeffFn.t_pow(-1), 1, h(-4))
        assert got.floor == h(-4)

    def test_space_data_rejected(self):
        with pytest.raises(ValueError):
            tr.x_generator(CoeffFn.x_pow(1), 1, h(-4))


class TestInvarianceDefect:
    @pytest.mark.parametrize("j", [0, "1/2", 1])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_polynomial_data(self, j, n):
        assert tr.schrodinger_invariance_defect(CoeffFn.t_pow(n), j, h(-4)).is_zero()

    @pytest.mark.parametrize("n", [-1, -2])
    def test_laurent_data_with_masking(self, n):
        assert tr.schrodinger_invariance_defect(CoeffFn.t_pow(n), 1, h(-4)).is_zero()

    def test_unmasked_defect_is_visible(self):
        # without the shift the commutator against the evolution survives
        f = CoeffFn.t_pow(1).t_to_x(MINUS_2I_M)  # the raw substituted datum
        raw = f.deriv("T") * MINUS_2I_M - f.deriv("X")
        assert not raw.is_zero()


class TestThetaT:
    def test_matches_theta_after_shift_on_polynomials(self):
        E = Symbol(XI, {h(1): CoeffFn.x_pow(2), h("1/2"): CoeffFn.x_pow(1)})
        lhs = tr.theta_t(E, h(-4))
        rhs = tr.theta(tr.time_shift_symbol(E, 8))
        assert lhs == rhs
        assert lhs.floor is EXACT

    def test_floored_input_flows_through(self):
        A = tr.j_map(time_mode(-1))
        B = tr.j_map(shift_mode(h("-3/2")))
        br = sym_bracket(A, B, h(-3))
        out = tr.theta_t(br, h(-5))
        assert out.floor == h(-5)

    def test_deep_floor_refines_shallow(self):
        E = Symbol(XI, {h("1/2"): CoeffFn.x_pow(-2)})
        deep = tr.theta_t(E, h(-7))
        shallow = tr.theta_t(E, h(-4))
        assert eq_trusted(deep, shallow)


def whole_shift_then_cut(E, req, nu):
    """theta_t as it was first written: every term shifted and mapped,
    and the result cut at its floor afterwards."""
    depth = tr.default_depth(req)
    full = tr.theta(Symbol(XI, tr.time_shift_symbol(E, depth).terms), req, nu=nu)
    floor, cut = req, E.floor is not EXACT
    if cut:
        floor = hmax(floor, E.floor + E.floor)
    for kappa, c in E.terms.items():
        if (c.min_x_degree() or 0) < 0:
            cut = True
            floor = hmax(floor, kappa + kappa - depth)
    return Symbol(R, full.terms, floor) if cut else full


x_pow = CoeffFn.x_pow
# inverse powers, floored inputs, and orders that no term of a floored
# result reaches (order -6 sits below floor -1 whatever its x-powers)
CUT_INPUTS = [
    Symbol(XI, {h(1): x_pow(-1)}),
    Symbol(XI, {h("1/2"): x_pow(-2, Fraction(1, 2)), h(-1): x_pow(3)}),
    Symbol(XI, {h(2): x_pow(2) + x_pow(-3, M), h("-3/2"): x_pow(-1, GaussRat(0, Fraction(1, 3)))}),
    Symbol(XI, {h(1): x_pow(2), h("1/2"): x_pow(1, M), h(0): x_pow(0)}, h(-3)),
    Symbol(XI, {h(3): x_pow(4) + x_pow(1), h(0): x_pow(-1), h("-5/2"): x_pow(-2)}, h("-9/2")),
    Symbol(XI, {h(1): x_pow(-1), h(-6): x_pow(2) + x_pow(5, M)}),
    Symbol(XI, {h("1/2"): x_pow(3), h(-8): x_pow(6)}, h(-1)),
]
CUT_NUS = [GaussRat(0), GaussRat(Fraction(1, 2)), GaussRat(2, -1)]
CUT_FLOORS = [h(-1), h("-3/2"), h("-7/2"), h(-5), h(-9), h(-16)]


class TestThetaTCut:
    """A floored theta_t shifts each order only as far as its floor reads,
    and must equal the whole shift cut at the same floor."""

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("nu", CUT_NUS, ids=str)
    @pytest.mark.parametrize("k", range(len(CUT_INPUTS)))
    def test_floored_result_equals_the_whole_shift_cut(self, k, nu, warm, monkeypatch):
        E = CUT_INPUTS[k]
        monkeypatch.setattr(tr, "_theta_images", tr.ThetaImageCache(tr._theta_build))
        if warm:
            # images filled first, deeper than any floor asked below
            tr.theta_t(E, h(-16), nu=nu)
            tr.theta(Symbol(XI, {h(0): x_pow(24)}), nu=nu)
        for req in CUT_FLOORS:
            got = tr.theta_t(E, req, nu=nu)
            want = whole_shift_then_cut(E, req, nu)
            assert got == want, (req, k)
            assert got.floor == want.floor

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(
            st.integers(-12, 8).map(HalfInt),
            st.dictionaries(st.integers(-4, 7), st.integers(-3, 3).filter(bool), min_size=1,
                            max_size=3).map(lambda d: sum((x_pow(q, v) for q, v in d.items()),
                                                          CoeffFn.zero())),
            min_size=1, max_size=4,
        ),
        st.one_of(st.none(), st.integers(-20, 0).map(HalfInt)),
        st.sampled_from(CUT_NUS),
        st.integers(-32, -2).map(HalfInt),
    )
    def test_random_inputs_equal_the_whole_shift_cut(self, terms, floor, nu, req):
        E = Symbol(XI, terms, floor)
        got = tr.theta_t(E, req, nu=nu)
        want = whole_shift_then_cut(E, req, nu)
        assert got == want
        assert got.floor == want.floor

    def test_a_term_whose_image_tops_out_at_the_floor_is_kept(self):
        # xi^3 d_xi maps to r^3/8 d_r^-1 and below: its top term sits on
        # floor -1, the floor that the input's own floor -3 leaves standing
        E = Symbol(XI, {h(1): x_pow(3)}, h(-3))
        got = tr.theta_t(E, h(-1))
        assert got.floor == h(-1)
        assert got.coeff(h(-1)).x_slice(3) == CoeffFn.const(Fraction(1, 8))
        assert got == whole_shift_then_cut(E, h(-1), GaussRat(0))
        # space orders are integers: xi^4 d_xi^(1/2) tops out at order -3,
        # the lowest one above floor -7/2
        E = Symbol(XI, {h("1/2"): x_pow(4)}, h(-4))
        got = tr.theta_t(E, h("-7/2"))
        assert got.coeff(h(-3)).x_slice(4) == CoeffFn.const(Fraction(1, 16))
        assert got == whole_shift_then_cut(E, h("-7/2"), GaussRat(0))

    @pytest.mark.parametrize("nu", [GaussRat(0), GaussRat(Fraction(1, 2))], ids=str)
    def test_refusals_read_every_order(self, nu):
        bound = "^generator powers are bounded by 64 in absolute value$"
        # order -20 lies below floor -1 whatever its x-powers, and is still checked
        t_row = Symbol(XI, {h(1): x_pow(-1), h(-20): CoeffFn.mono(1, 2)})
        with pytest.raises(ValueError, match="^the loop shift applies to momentum-only values$"):
            tr.theta_t(t_row, h(-1), nu=nu)
        power = Symbol(XI, {h(1): x_pow(-1), h(-20): x_pow(tr.MAX_IMAGE_POWER + 1)})
        with pytest.raises(ValueError, match=bound):
            tr.theta_t(power, h(-1), nu=nu)
        floored = Symbol(XI, {h(1): x_pow(2), h(-20): x_pow(tr.MAX_IMAGE_POWER + 1)}, h(-21))
        with pytest.raises(ValueError, match=bound):
            tr.theta_t(floored, h(-1), nu=nu)
        # a t-dependent order is reported before a power past the bound
        both = Symbol(XI, {h(-20): x_pow(tr.MAX_IMAGE_POWER + 1), h(-21): CoeffFn.mono(1, 2)})
        with pytest.raises(ValueError, match="^the loop shift applies to momentum-only values$"):
            tr.theta_t(both, h(-1), nu=nu)
        # below floor -30 an inverse power shifts past the bound
        with pytest.raises(ValueError, match=bound):
            tr.theta_t(Symbol(XI, {h(1): x_pow(-1)}), h(-31), nu=nu)
        top = Symbol(XI, {h(1): x_pow(tr.MAX_IMAGE_POWER)})
        assert tr.theta_t(top, h(-1), nu=nu).floor is EXACT
        with pytest.raises(ValueError, match="^the loop shift applies to momentum symbols$"):
            tr.theta_t(Symbol(R, {h(1): x_pow(-1)}), h(-1), nu=nu)


class TestMomentumEmbedding:
    def test_images_are_exact(self):
        for _, _, X in sv_basis(2):
            assert tr.j_map(X).floor is EXACT

    def test_time_image(self):
        # f = t^2 substitutes to -4M^2 xi^2, scaled by -(i/2M)
        got = tr.j_map(time_mode(1))
        expect = Symbol(XI, {h(1): CoeffFn.x_pow(2, TWO_I_M)})
        assert got == expect

    def test_bracket_defect_stays_low(self):
        els = [e for (_, _, e) in sv_basis(2)]
        worst = None
        for A, B in itertools.combinations(els, 2):
            lhs = sym_bracket(tr.j_map(A), tr.j_map(B), h(-3))
            rhs = tr.j_map(sv_bracket(A, B))
            top = (lhs - rhs).top()
            if top is not None:
                assert top <= h("-1/2"), (str(A), str(B))
                if worst is None or top > worst:
                    worst = top
        assert worst == h("-1/2")


class TestOperatorBridges:
    """The differential parts of the generators match the operator action."""

    def test_time_bridge(self):
        mu0 = CoeffFn.zero()
        for n in (0, 1, 2, 3):
            f = CoeffFn.t_pow(n)
            lhs = d_pi(mu0, SvElement(f=f)).scale(TWO_I_M)
            plus = dop_from_r_symbol(differential_part(tr.x_generator(f, 1, h(-4))))
            rhs = dop_mul(DiffOp2.function(f), free_evolution_op()) - plus
            assert lhs == rhs, n

    def test_time_bridge_sign_regression(self):
        # the tempting variant (X_f)_+ - f (2iM d_t - d_r^2) agrees at f = 1
        # but breaks at f = t: the first-order space term flips sign
        mu0 = CoeffFn.zero()
        wrong_evo = DiffOp2({(1, 0): TWO_I_M, (0, 2): CoeffFn.const(-1)})
        for n, holds in ((0, True), (1, False)):
            f = CoeffFn.t_pow(n)
            plus = dop_from_r_symbol(differential_part(tr.x_generator(f, 1, h(-4))))
            claimed = plus - dop_mul(DiffOp2.function(f), wrong_evo)
            lhs = d_pi(mu0, SvElement(f=f)).scale(TWO_I_M)
            assert (lhs == claimed) is holds, n

    def test_shift_bridge(self):
        mu0 = CoeffFn.zero()
        for n in (0, 1, 2):
            g = CoeffFn.t_pow(n)
            lhs = d_pi(mu0, SvElement(g=g))
            rhs = dop_from_r_symbol(differential_part(tr.x_generator(g, "1/2", h(-4))))
            assert lhs == rhs, n

    def test_phase_bridge(self):
        mu0 = CoeffFn.zero()
        minus_im = -I_M
        for n in (0, 1, 2):
            hf = CoeffFn.t_pow(n)
            lhs = d_pi(mu0, SvElement(h=hf))
            plus = dop_from_r_symbol(differential_part(tr.x_generator(hf, 0, h(-4))))
            assert lhs == plus.scale(minus_im), n


def test_euler_intertwining():
    # theta o E_xi = (1/2) E_r o theta with E the full grading operator
    def euler(D):
        out = Symbol.zero(D.var)
        for k, c in D.terms.items():
            for (p, q, m), s in c.terms.items():
                w = Fraction(q) - k.as_fraction()
                out = out + Symbol(D.var, {k: coeff_from_table({(p, q, m): s}) * w}, D.floor)
        return Symbol(D.var, out.terms, D.floor)

    floor = h(-5)
    for nu in (GaussRat(0), GaussRat(Fraction(3, 2))):
        for q in (-2, -1, 0, 1, 2):
            for tw in (-3, -1, 0, 1, 2):
                E = Symbol(XI, {h(Fraction(tw, 2)): CoeffFn.x_pow(q)})
                left = tr.theta(euler(E), floor, nu=nu)
                right = euler(tr.theta(E, floor, nu=nu))
                assert eq_trusted(left, sym_scale(right, Fraction(1, 2)))


def test_both_directions_share_one_memo_class():
    assert isinstance(tr._theta_images, tr.ThetaImageCache)
    assert isinstance(tr._inv_images, tr.ThetaImageCache)
    assert [name for name in ("_fill", "_inv_memo", "_inv_image") if hasattr(tr, name)] == []


# probes that read the forward memo (theta, deformed theta, theta_t) and
# the inverse memo (theta_inv), at a deep and a shallow floor
FORWARD_PROBES = (
    lambda floor: tr.theta(Symbol(XI, {h(1): CoeffFn.x_pow(-3), h("-1/2"): CoeffFn.x_pow(2)}), floor),
    lambda floor: tr.theta(xi_mono(-2, kappa=2), floor, nu=GaussRat(Fraction(1, 2))),
    lambda floor: tr.theta_t(Symbol(XI, {h(1): CoeffFn.x_pow(-2), h(0): CoeffFn.x_pow(1)}), floor),
)
INVERSE_PROBES = (
    lambda floor: tr.theta_inv(Symbol(R, {h(-1): CoeffFn.x_pow(-4), h(2): CoeffFn.x_pow(-1)}), floor),
    lambda floor: tr.theta_inv(Symbol(R, {h(0): CoeffFn.x_pow(3), h(1): CoeffFn.x_pow(-2)}), floor),
)
MEMO_FLOORS = (h(-9), h("-5/2"))


@pytest.mark.parametrize("inverse_first", [False, True], ids=["forward-first", "inverse-first"])
@pytest.mark.parametrize("floors", [MEMO_FLOORS, MEMO_FLOORS[::-1]], ids=["deep-first", "shallow-first"])
def test_warmed_memos_give_the_cold_results(monkeypatch, inverse_first, floors):
    probes = INVERSE_PROBES + FORWARD_PROBES if inverse_first else FORWARD_PROBES + INVERSE_PROBES
    shown = lambda S: (S.floor, list(S.flat.items()))
    cold = {}
    for floor in floors:
        for k, probe in enumerate(probes):
            TestRequestedFloor._fresh_caches(monkeypatch)
            cold[floor, k] = shown(probe(floor))
    TestRequestedFloor._fresh_caches(monkeypatch)
    for floor in floors:
        for k, probe in enumerate(probes):
            assert shown(probe(floor)) == cold[floor, k], (floor, k)


def test_image_cache_serves_deeper_floors(monkeypatch):
    # the inverse memo is the one cache that stores floored entries
    monkeypatch.setattr(tr, "_inv_images", tr.ThetaImageCache(tr._inv_build))
    # the image memos take twice the wanted floor
    deep = tr._inv_images.image(-1, -14)
    shallow = tr._inv_images.image(-1, -6)
    # the second request reuses the deeper fill
    assert shallow is deep
    assert shallow.floor == h(-7)
