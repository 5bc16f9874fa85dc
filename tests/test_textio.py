"""Calculator grammar and canonical rendering.

The expression language is tiny: rational literals, the atoms i, M, t,
xi, r, d_xi, d_r, infix + - * ^, and a handful of named functions.
Values checked here are short enough to compose by hand; each oracle
is rebuilt from ring constructors rather than from another parse.
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from strategies import coeff_rows, symbols
from svpsido import transforms
from svpsido.halfint import EXACT, HalfInt, h, order_str
from svpsido.psido import R, XI, Symbol
from svpsido.ring import CoeffFn, GaussRat, I_M, M
from svpsido.textio import (
    _tokenize,
    coeff_str,
    eval_expr,
    gauss_str,
    parse_floor,
    parse_rational,
    symbol_str,
)


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

    @pytest.mark.parametrize("text", ["-1_6", "-7_0/2", "1_0", "-7/2_0"])
    def test_floor_refuses_underscores(self, text):
        with pytest.raises(ValueError):
            parse_floor(text)

    def test_floor_keeps_unicode_decimal_digits(self):
        # the calculator's grammar reads them as digits too
        assert parse_floor("-\u0661\u0666") == h(-16)
        assert parse_floor("-\u0667/2") == h("-7/2")


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
        monkeypatch.setattr(transforms, "_inv_images", transforms.ThetaImageCache(transforms._inv_build))
        monkeypatch.setattr(transforms, "_theta_images", transforms.ThetaImageCache(transforms._theta_build))
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


class TestParserEdges:
    """What the lexer and the literal and exponent readers accept and refuse."""

    def test_leading_and_inner_whitespace_is_accepted(self):
        assert eval_expr("  2 *  xi\t+ 1") == eval_expr("2*xi+1")
        assert eval_expr(" theta( xi * d_xi )") == eval_expr("theta(xi*d_xi)")
        assert eval_expr("xi^ - 1") == eval_expr("xi^-1")

    def test_unicode_decimal_digits_read_as_digits(self):
        assert symbol_str(eval_expr("\u0663*xi")) == "3*xi | exact"  # ARABIC-INDIC THREE
        assert eval_expr("xi^\u0662") == eval_expr("xi^2")

    def test_leading_zeros_are_read_as_decimal(self):
        assert eval_expr("01*r") == eval_expr("r")
        assert eval_expr("xi^02") == eval_expr("xi^2")

    def test_literals_and_exponents_are_reduced(self):
        assert symbol_str(eval_expr("4/6*xi")) == "2/3*xi | exact"
        assert symbol_str(eval_expr("d_xi^2/4")) == "d_xi^1/2 | exact"

    def test_superscript_digits_are_refused(self):
        with pytest.raises(ValueError) as exc:
            eval_expr("2\u00b2")  # SUPERSCRIPT TWO
        assert str(exc.value) == "bad character in expression at: '\u00b2'"

    @pytest.mark.parametrize("src", ["3/0*xi", "xi^3/0", "xi^-3/0"])
    def test_zero_denominator_literal_raises(self, src):
        with pytest.raises(ZeroDivisionError) as exc:
            eval_expr(src)
        assert str(exc.value) == "zero denominator in the literal '3/0'"

    def test_trailing_whitespace_is_accepted(self):
        assert eval_expr("xi ") == eval_expr("xi")
        assert eval_expr(" 2*xi \t\n") == eval_expr("2*xi")
        with pytest.raises(ValueError) as exc:
            eval_expr("xi $ ")
        assert str(exc.value) == "bad character in expression at: ' $ '"

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no limit")
    @pytest.mark.parametrize(
        "g",
        [
            GaussRat(2**20000),
            GaussRat(Fraction(1, 2**20000)),
            GaussRat(0, -(2**20000)),
            GaussRat(1, 2**20000),
            GaussRat(2**20000, 1),
            GaussRat(Fraction(1, 3), Fraction(2**20000, 3)),
        ],
    )
    def test_gauss_str_names_the_digit_limit(self, g):
        with pytest.raises(ValueError) as exc:
            gauss_str(g)
        limit = sys.get_int_max_str_digits()
        assert str(exc.value) == f"a coefficient of the result would print with more than {limit} digits"


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
        with pytest.raises(ValueError, match="only a monomial function or a pure derivative"):
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


def _by_rows(S) -> str:
    """S's text rendered order by order from S.rows() and coeff_str, the
    way symbol_str read a symbol before it printed the flat terms."""
    xname, dname = ("xi", "d_xi") if S.var == XI else ("r", "d_r")
    parts = []
    for twice, c in sorted(S.rows().items(), reverse=True):
        ctxt = coeff_str(c, xname)
        dp = dname if twice == 2 else f"{dname}^{order_str(twice)}"
        if not twice:
            parts.append(ctxt)
        elif ctxt in ("1", "-1"):
            parts.append(ctxt[:-1] + dp)
        elif len({(p, q) for p, q, _ in c.terms}) > 1:
            parts.append(f"({ctxt})*{dp}")
        else:
            parts.append(f"{ctxt}*{dp}")
    body = " + ".join(parts).replace("+ -", "- ") or "0"
    return f"{body} | {'exact' if S.floor is EXACT else f'floor={S.floor}'}"


# unit and sign coefficients, which print elided, and general ones
_PRINTED = st.one_of(st.sampled_from((GaussRat(1), GaussRat(-1), GaussRat(0, 1), GaussRat(0, -1))),
                     st.builds(lambda a, b, d: GaussRat(Fraction(a, d), Fraction(b, d)),
                               st.integers(-9, 9), st.integers(-3, 3), st.integers(1, 4)))
_MASSES = st.dictionaries(st.integers(-2, 2), _PRINTED, min_size=1, max_size=3)


class TestFlatPrinter:
    """symbol_str prints from the flat terms in one sort."""

    @settings(max_examples=300, deadline=None)
    @given(symbols(coeff_rows((-2, 2), (-3, 3), _MASSES, max_size=4)))
    def test_the_flat_printer_matches_the_rendering_by_rows(self, S):
        assert symbol_str(S) == _by_rows(S)

    def test_printing_keeps_nothing(self):
        S = Symbol(R, {1: CoeffFn.t_pow(1) + M, h(-1): CoeffFn.x_pow(2, -1)}, h(-2))
        assert symbol_str(S) == "(M + t)*d_r - r^2*d_r^-1 | floor=-2"
        assert S._kept == {}  # the memo that the constructor sets stays empty

    @pytest.mark.parametrize(
        "src, text",
        [
            ("1*xi", "xi | exact"),
            ("xi*1", "xi | exact"),
            ("1*d_xi^1/2", "d_xi^1/2 | exact"),
            ("d_xi^1/2*1", "d_xi^1/2 | exact"),
            ("1*(1+i)*M*t^-1*r^2", "(1 + i)*M*t^-1*r^2 | exact"),
            ("(1+i)*M*t^-1*r^2*1", "(1 + i)*M*t^-1*r^2 | exact"),
            ("1^5", "1 | exact"),
            ("1^-3", "1 | exact"),
            ("1^0", "1 | exact"),
            ("1^5*d_r", "d_r | exact"),
            ("1/1*xi", "xi | exact"),
            ("2/2*r", "r | exact"),
            ("(1)^-3*r", "r | exact"),
            ("-1*1*t", "-t | exact"),
            ("1*(xi+d_xi)", "d_xi + xi | exact"),
            ("1*mul(d_r^-1, r^-1)", "r^-1*d_r^-1 + r^-2*d_r^-2 | floor=-2"),
        ],
    )
    def test_unit_factors_and_powers_keep_their_values_and_texts(self, src, text):
        got = eval_expr(src, h(-2))
        assert symbol_str(got) == text
        if got.floor is EXACT:  # the printed body evaluates to the same value
            assert got == eval_expr(text.removesuffix(" | exact"))

    @pytest.mark.parametrize(
        "src, message",
        [
            ("t(1)", "unknown function 't'"),
            ("xi(1)", "unknown function 'xi'"),
            ("d_r(r)", "unknown function 'd_r'"),
            ("1*t(1)", "unknown function 't'"),
            ("1(2)", "trailing input at '('"),
        ],
    )
    def test_an_atom_followed_by_a_parenthesis_keeps_its_error(self, src, message):
        with pytest.raises(ValueError) as exc:
            eval_expr(src)
        assert str(exc.value) == message


def _outcome(fn, *args):
    """fn's result, or the type and text of the exception it raised."""
    try:
        return fn(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)


def _kind(tok: str) -> str:
    """The token class the parser reads from a token's first character."""
    head = tok[:1]
    if not head:
        return "end"
    if head.isdecimal():
        return "num"
    return "name" if head.isalpha() or head == "_" else "op"


BIG = 2**15000  # prints with more digits than the default int-to-str limit


class TestAgainstReference:
    """The int lexer and printer against the forms they replaced (tests/reference.py)."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(), st.integers(), st.integers(min_value=1, max_value=10**30),
           st.integers(min_value=1, max_value=10**30))
    @example(0, 0, 1, 1)
    @example(1, -1, 1, 1)
    @example(6, 4, 4, 6)
    @example(BIG, 1, 1, 1)
    @example(1, BIG, 3, 1)
    @example(1, 1, BIG, 2)
    @example(0, -1, 1, BIG)
    def test_gauss_str_matches_the_fraction_printer(self, a, b, d, e):
        g = GaussRat(Fraction(a, d), Fraction(b, e))
        assert _outcome(gauss_str, g) == _outcome(reference.gauss_str, g)

    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet="0123456789/ \txirdtM_+-*^(),a$.;\u00b2\u0663\u00a0\u00e9", max_size=24))
    @example("xi $ ")
    @example("1/2/3")
    @example("1 /2")
    @example("\u0663/\u0664*xi ")
    @example(" \u00a0")
    def test_tokens_and_error_positions_match_the_per_token_lexer(self, src):
        got, want = _outcome(_tokenize, src), _outcome(reference.tokenize, src)
        if isinstance(want, list):
            assert [(_kind(tok), tok) for tok in got] == want
        else:
            assert got == want


def _gaussians():
    parts = st.integers(min_value=-7, max_value=7)
    dens = st.integers(min_value=1, max_value=6)
    return st.builds(lambda a, b, d, e: GaussRat(Fraction(a, d), Fraction(b, e)),
                     parts, parts, dens, dens).filter(lambda g: not g.is_zero())


_monomials = st.tuples(st.integers(-2, 2), st.integers(-3, 3), st.integers(-2, 2))
_coeffs = st.dictionaries(_monomials, _gaussians(), min_size=1, max_size=4).map(CoeffFn)


@st.composite
def exact_symbols(draw):
    var = draw(st.sampled_from((R, XI)))
    twice = st.integers(-5, 5) if var == XI else st.integers(-3, 3).map(lambda k: 2 * k)
    terms = draw(st.dictionaries(twice.map(HalfInt), _coeffs, max_size=3))
    return Symbol(var, terms)


@settings(max_examples=300, deadline=None)
@given(exact_symbols())
def test_printed_symbols_parse_back_to_themselves(sym):
    # extends TestRendering.test_render_parse_fixed_point to random symbols
    text = symbol_str(sym)
    body, tag = text.rsplit(" | ", 1)
    assert tag == "exact"
    back = eval_expr(body)
    assert back.terms == sym.terms and back.floor is EXACT
    if back.var != sym.var:
        # a value with no r, xi or derivative parses as a space function
        assert back.var == R and all(k.twice == 0 and c.is_t_only() for k, c in sym.terms.items())
    assert symbol_str(back) == text


@st.composite
def monomial_products(draw):
    """Factors of one product in one algebra, each an atom or a
    parenthesized product of atoms, with an optional exponent."""
    var = draw(st.sampled_from(("xi", "r")))
    atoms = st.sampled_from((var, f"d_{var}", "t", "M", "i", "0", "2", "2/3", "(1 - i)"))
    exps = st.integers(-6, 6).map(lambda tw: str(tw // 2) if tw % 2 == 0 else f"{tw}/2")

    def factor(base):
        return st.tuples(base, st.one_of(st.just(""), exps.map("^".__add__))).map("".join)

    inner = st.lists(factor(atoms), min_size=2, max_size=3).map(lambda fs: f"({'*'.join(fs)})")
    return draw(st.lists(factor(st.one_of(atoms, atoms, inner)), min_size=1, max_size=4))


class TestMonomialProducts:
    """The parser multiplies and raises monomials as int tuples; the retired
    parser that composes every factor (tests/reference.py) must agree."""

    @settings(max_examples=400, deadline=None)
    @given(monomial_products(), st.sampled_from(("-1", "-2", "-5/2", "-4", "-6")))
    @example(["d_xi", "xi"], "-4")
    @example(["d_xi^1/2", "xi^-1"], "-4")
    @example(["xi^3", "d_xi^5/2", "t^-1", "2"], "-4")
    @example(["(xi*d_xi)^3"], "-4")
    @example(["d_r^-1", "r^-1", "d_r"], "-1")
    @example(["(d_r*d_r^-1*r^-1)^-1"], "-1")
    @example(["0^-1"], "-4")
    @example(["(2*d_xi)^0", "r"], "-4")
    @example(["(2*t*d_xi^1/2)^65", "xi"], "-4")
    def test_products_and_powers_match_the_composing_parser(self, factors, floor):
        for src in ("*".join(factors), "*".join(reversed(factors))):
            got = _outcome(eval_expr, src, h(floor))
            want = _outcome(reference.eval_expr, src, h(floor))
            assert got == want, src
            if isinstance(got, Symbol):
                assert got.floor == want.floor, src
                assert symbol_str(got) == symbol_str(want), src

    @pytest.mark.parametrize(
        "src, message",
        [
            ("d_r^1/2*d_r^1/2", "half-integer order in an R-variable symbol"),
            ("r*d_r^1/2", "half-integer order in an R-variable symbol"),
            ("(d_r^1/2)^2", "half-integer order in an R-variable symbol"),
            ("xi^1/2", "only a pure derivative takes a half-integer exponent"),
            ("xi*r", "expression mixes the r and xi algebras"),
            ("0^-1", "zero has no negative power"),
        ],
    )
    def test_refusals_fire_at_the_factor_that_causes_them(self, src, message):
        # an unknown name after the fault would be reported instead if the
        # refusal were deferred past the factor
        for text in (src, f"{src}*qux"):
            with pytest.raises(ValueError) as exc:
                eval_expr(text)
            assert str(exc.value) == message

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no limit")
    @pytest.mark.parametrize("src", ["2^20000", "(2*t)^20000", "(2/3*xi)^-40000"])
    def test_a_power_past_the_digit_limit_is_refused_at_the_power(self, src):
        limit = sys.get_int_max_str_digits()
        for text in (src, f"{src}*qux"):
            with pytest.raises(ValueError) as exc:
                eval_expr(text)
            assert str(exc.value) == f"the coefficient of this power would print with more than {limit} digits"

    def test_a_power_of_an_x_free_monomial_is_taken_in_one_step(self):
        # no Leibniz term past j = 0 survives, so the power needs no
        # composition and the cap on composed powers does not bind
        assert symbol_str(eval_expr("(2*d_xi)^65")) == "36893488147419103232*d_xi^65 | exact"
        assert eval_expr("(2*t*M*d_r)^3") == eval_expr("8*t^3*M^3*d_r^3")
        with pytest.raises(ValueError, match="^powers of a base that is not a single generator"):
            eval_expr("(2*xi*d_xi)^65")

    @pytest.mark.parametrize("src", ["(2*d_xi)^0 + r", "d_xi^0 + r", "(2*d_xi)^0*r",
                                     "(xi + d_xi)^0 + r"])
    def test_a_zero_power_keeps_the_algebra_of_its_base(self, src):
        with pytest.raises(ValueError) as exc:
            eval_expr(src)
        assert str(exc.value) == "expression mixes the r and xi algebras"
        assert symbol_str(eval_expr("(2*d_xi)^0 + xi")) == "1 + xi | exact"

    def test_a_floored_base_keeps_its_floor_under_a_power(self):
        # d_r o (r^-1 d_r^-1 cut at -1) is r^-1 with every order below 0 unknown
        base = "(mul(d_r^-1, r^-1)*d_r)"
        assert symbol_str(eval_expr(base, h(-1))) == "r^-1 | floor=0"
        assert symbol_str(eval_expr(f"{base}^2", h(-1))) == "r^-2 | floor=0"
        with pytest.raises(ValueError, match="^only a monomial function or a pure derivative"):
            eval_expr(f"{base}^-1", h(-1))
        with pytest.raises(ValueError, match="^only a pure derivative takes a half-integer"):
            eval_expr(f"{base}^1/2", h(-1))

    def test_an_exact_function_result_is_raised_as_a_monomial(self):
        assert eval_expr("trace(r^-1*d_r^-1)^-2") == eval_expr("1")
        assert eval_expr("dpart(2*t*r^2)^-1") == eval_expr("1/2*t^-1*r^-2")
        assert eval_expr("dpart(d_xi)^1/2") == eval_expr("d_xi^1/2")
