"""Calculator grammar and canonical rendering.

The expression language is tiny: rational literals, the atoms i, M, t,
xi, r, d_xi, d_r, infix + - * ^, and a handful of named functions.
Values checked here are short enough to compose by hand; each oracle
is rebuilt from ring constructors rather than from another parse.
"""

from fractions import Fraction

import pytest

from svpsido import transforms
from svpsido.halfint import EXACT, h
from svpsido.psido import R, XI, Symbol
from svpsido.ring import CoeffFn, I_M, M
from svpsido.textio import eval_expr, parse_floor, parse_rational, symbol_str


class TestSmallParsers:
    def test_rational(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational(" -7/2 ") == Fraction(-7, 2)

    def test_rational_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_rational("seven")
        with pytest.raises(ZeroDivisionError):
            parse_rational("2/0")

    def test_floor(self):
        assert parse_floor("-7/2") == h("-7/2")
        assert parse_floor(" EXACT ") is EXACT

    def test_floor_must_be_half_integer(self):
        with pytest.raises(ValueError):
            parse_floor("-1/3")


class TestEvalExpr:
    """Each expected symbol is built directly from constructors."""

    def test_euler_field_transform(self):
        # the order-1 slot of the image is  1/2 * r
        want = Symbol(R, {h(1): CoeffFn.x_pow(1, Fraction(1, 2))})
        assert eval_expr("theta(xi*d_xi)") == want

    def test_sum_with_constants(self):
        # one order-0 slot holding  2*xi + i*M*t^2
        coeff = CoeffFn.x_pow(1, 2) + CoeffFn.t_pow(2, I_M)
        assert eval_expr("2*xi + i*M*t^2") == Symbol.function(XI, coeff)

    def test_terminating_product(self):
        # d^-1 r = r d^-1 - d^-2, the Leibniz tail stops at the second term
        want = Symbol(R, {h(-1): CoeffFn.x_pow(1), h(-2): CoeffFn.const(-1)})
        assert eval_expr("mul(d_r^-1, r)") == want

    def test_infinite_tail_uses_the_floor(self):
        # d^-1 r^-1 = sum over j of j! r^(-1-j) d^(-1-j), cut at the floor
        got = eval_expr("mul(d_r^-1, r^-1)", floor=h(-2))
        want = Symbol(
            R,
            {h(-1): CoeffFn.mono(0, -1), h(-2): CoeffFn.mono(0, -2)},
            h(-2),
        )
        assert got == want

    def test_default_floor_is_minus_four(self):
        got = eval_expr("mul(d_r^-1, r^-1)")
        assert got.floor == h(-4)
        assert got.coeff(h(-4)) == CoeffFn.mono(0, -4, 6)  # 3! = 6

    def test_commutator_function(self):
        # [d, t*xi] = d(t*xi) - (t*xi)d leaves the function t
        assert eval_expr("bracket(d_xi, t*xi)") == Symbol.function(XI, CoeffFn.t_pow(1))

    def test_round_trip_through_both_transforms(self):
        start = eval_expr("xi^3*d_xi^-1")
        assert eval_expr("theta_inv(theta(xi^3*d_xi^-1))") == start

    def test_deeper_round_trip_after_shallow_ones(self, monkeypatch):
        # a deeper request refills the inverse-image cache on top of
        # shallow entries; no wrong term may enter the trusted window
        monkeypatch.setattr(transforms, "_inv_memo", {})
        monkeypatch.setattr(transforms, "_theta_images", transforms.ThetaImageCache())
        src = "theta_inv(theta(1/2*xi^-3))"
        for floor in ("-1", "-3/2", "-2", "-5/2", "-3"):
            eval_expr(src, floor=h(floor))
        got = eval_expr(src, floor=h("-7/2"))
        # the round trip is the identity, on exactly the requested window
        assert got.terms == eval_expr("1/2*xi^-3").terms
        assert got.floor == h("-7/2")

    @pytest.mark.parametrize(
        "src, value",
        [
            ("2*3", CoeffFn.const(6)),
            ("mul(2, t)", CoeffFn.t_pow(1, 2)),
            ("trace(t)", CoeffFn.zero()),
            ("bracket(t, M)", CoeffFn.zero()),
            ("dpart(M*t)", CoeffFn.t_pow(1) * M),
        ],
    )
    def test_values_without_an_algebra_come_back_as_space_functions(self, src, value):
        assert eval_expr(src) == Symbol.function(R, value)
        # and they join either algebra later
        assert eval_expr(f"{src} + xi") == Symbol(XI, {h(0): value + CoeffFn.x_pow(1)})

    def test_transforms_name_the_algebra_they_expect(self):
        with pytest.raises(ValueError, match="^theta expects a momentum symbol$"):
            eval_expr("theta(r)")
        with pytest.raises(ValueError, match="^theta_inv expects a space symbol$"):
            eval_expr("theta_inv(xi)")

    def test_half_power_of_the_derivative(self):
        got = eval_expr("d_xi^1/2")
        assert got == Symbol.monomial(XI, h("1/2"), CoeffFn.one())

    def test_mixing_algebras_is_rejected(self):
        with pytest.raises(ValueError, match="mixes"):
            eval_expr("xi + r")

    def test_exponents_stay_half_integral(self):
        with pytest.raises(ValueError):
            eval_expr("xi^1/3")

    def test_unknown_names_are_rejected(self):
        with pytest.raises(ValueError):
            eval_expr("qux")
        with pytest.raises(ValueError):
            eval_expr("qux(xi)")

    def test_dangling_input_is_rejected(self):
        with pytest.raises(ValueError):
            eval_expr("theta(")
        with pytest.raises(ValueError):
            eval_expr("xi xi")


class TestRendering:
    def test_exact_tag(self):
        assert symbol_str(eval_expr("theta(xi*d_xi)")) == "1/2*r*d_r | exact"

    def test_floor_tag(self):
        got = symbol_str(eval_expr("mul(d_r^-1, r^-1)", floor=h(-2)))
        assert got == "r^-1*d_r^-1 + r^-2*d_r^-2 | floor=-2"

    def test_zero_symbol(self):
        assert symbol_str(eval_expr("trace(r^2*d_r^-1)")) == "0 | exact"

    def test_integer_powers_of_a_function(self):
        assert eval_expr("((2 + M)*t)^2") == eval_expr("(4 + 4*M + M^2)*t^2")
        assert eval_expr("(2*M*t)^-1") == eval_expr("1/2*M^-1*t^-1")
        # only monomials are units
        with pytest.raises(ValueError, match="single-generator"):
            eval_expr("((2 + M)*t)^-1")

    def test_render_parse_fixed_point(self):
        # exact symbols survive a render/parse cycle verbatim; the M-terms
        # of one (t, r) monomial print as one scalar factor
        for src in ("xi^3*d_xi^-1", "2*xi + i*M*t^2", "r*d_r^-1 - d_r^-2",
                    "(2 + M^2)*t*d_r + M*r + (2 + M^2)*t"):
            sym = eval_expr(src)
            body, tag = symbol_str(sym).rsplit(" | ", 1)
            assert tag == "exact"
            assert body == src
            assert eval_expr(body) == sym
