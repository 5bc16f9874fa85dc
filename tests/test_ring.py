"""Ground-ring arithmetic: Gaussian rationals and the (t, x, M) Laurent
coefficient functions, including the scalars free of t and x."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from svpsido import ring
from svpsido.ring import CoeffFn, GR_I, GR_ONE, GR_ZERO, GaussRat, M
from svpsido.textio import scalar_str

F = Fraction


# ---- strategies ----------------------------------------------------------

small_fracs = st.builds(
    F,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=4),
)

gauss = st.builds(GaussRat, small_fracs, small_fracs)

# M-power -> coefficient, for one (t, x) monomial or for a scalar
masses = st.dictionaries(st.integers(min_value=-2, max_value=2), gauss, max_size=3)

scalars = masses.map(lambda d: CoeffFn({(0, 0, m): g for m, g in d.items()}))

coeffs = st.dictionaries(
    st.tuples(
        st.integers(min_value=-2, max_value=2),
        st.integers(min_value=-2, max_value=2),
    ),
    masses,
    max_size=4,
).map(lambda d: CoeffFn({(p, q, m): g for (p, q), row in d.items() for m, g in row.items()}))


# ---- GaussRat ------------------------------------------------------------


def test_gauss_i_squares_to_minus_one():
    assert GR_I * GR_I == GaussRat(-1)


def test_gauss_division_round_trip():
    a = GaussRat(F(3, 2), F(1, 2))
    b = GaussRat(F(-1, 3), 2)
    assert (a / b) * b == a


def test_gauss_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        GR_ZERO.inv()


def test_gauss_integer_powers():
    a = GaussRat(1, 1)
    assert a ** 2 == GaussRat(0, 2)
    assert a ** 0 == GR_ONE
    assert a ** -1 == GaussRat(F(1, 2), F(-1, 2))


def test_gauss_powers_match_repeated_products():
    a = GaussRat(F(2, 3), F(-1, 5))
    for k in range(-13, 14):
        want = GR_ONE
        for _ in range(abs(k)):
            want = want * (a if k > 0 else a.inv())
        assert a ** k == want, k
    assert GR_I ** 100000001 == GR_I and GR_I ** -100000001 == -GR_I


def test_gauss_mixes_with_ints_and_fractions():
    assert GaussRat(2) + 1 == GaussRat(3)
    assert 1 - GaussRat(0, 1) == GaussRat(1, -1)
    assert F(1, 2) * GaussRat(4) == GaussRat(2)


def test_gauss_immutable():
    with pytest.raises(AttributeError):
        GR_ONE.re = F(2)


def test_slots_refuse_assignment_after_construction():
    # the fast constructors set the slots through their own setters; plain
    # assignment must still be refused
    from svpsido.halfint import h
    from svpsido.psido import R, Symbol
    from svpsido.ring import _coeff_raw

    for obj, slot in (
        (_coeff_raw({}), "terms"),
        (CoeffFn.one(), "terms"),
        (h(1), "twice"),
        (Symbol(R, {}), "terms"),
        (Symbol._raw(R, {}, None), "floor"),
    ):
        with pytest.raises(AttributeError):
            setattr(obj, slot, {})


@given(gauss, gauss, gauss)
def test_gauss_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@given(gauss)
def test_gauss_inverse_when_nonzero(a):
    if not a.is_zero():
        assert a * a.inv() == GR_ONE


# ---- scalars: values free of t and x ----------------------------------------


def test_scalar_normalizes_away_zeros():
    s = CoeffFn({(0, 0, 0): GaussRat(1), (0, 0, 2): GR_ZERO})
    assert s.terms == {(0, 0, 0): GR_ONE}


def test_scalar_monomial_unit_inverse():
    s = GaussRat(0, 2) * M ** 3  # 2i*M^3
    assert s * s ** -1 == CoeffFn.one()
    assert s ** -1 == GaussRat(0, F(-1, 2)) * M ** -3


def test_scalar_non_monomial_division_rejected():
    s = CoeffFn.one() + M
    with pytest.raises(ValueError):
        s ** -1
    with pytest.raises(ValueError):
        s ** 2


def test_scalar_negative_power_of_unit():
    s = 2 * M
    assert s ** -2 == F(1, 4) * M ** -2


def test_scalar_subs_m():
    # (1 + M^2) at M = 2i gives 1 - 4
    s = CoeffFn.one() + M ** 2
    assert s.subs_m(GaussRat(0, 2)) == CoeffFn.const(-3)


@given(scalars, scalars, scalars)
def test_scalar_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


# ---- CoeffFn ---------------------------------------------------------------


def test_coeff_product_collects_like_monomials():
    a = CoeffFn.t_pow(1) + CoeffFn.x_pow(1)
    b = CoeffFn.t_pow(1) - CoeffFn.x_pow(1)
    assert a * b == CoeffFn.mono(2, 0) - CoeffFn.mono(0, 2)


def test_coeff_derivatives_are_monomial():
    c = CoeffFn.mono(2, -1, 3)
    assert c.deriv("T") == CoeffFn.mono(1, -1, 6)
    assert c.deriv("X") == CoeffFn.mono(2, -2, -3)
    assert CoeffFn.const(5).deriv("T").is_zero()


def test_residue_extracts_inverse_power():
    c = CoeffFn.mono(3, -1, 7) + CoeffFn.mono(3, 2, 1)
    assert c.residue("X") == CoeffFn.t_pow(3, 7)
    assert c.residue("T").is_zero()


@given(coeffs)
def test_residue_kills_derivatives(c):
    # the defining property of a residue against a monomial derivation
    assert c.deriv("X").residue("X").is_zero()
    assert c.deriv("T").residue("T").is_zero()


@given(coeffs, coeffs)
def test_coeff_leibniz_rule(a, b):
    lhs = (a * b).deriv("X")
    rhs = a.deriv("X") * b + a * b.deriv("X")
    assert lhs == rhs


def _no_table(*args, **kwargs):
    raise AssertionError("a zero operand reached mul_into")


def test_zero_operands_return_without_a_product_loop(monkeypatch):
    Z = CoeffFn.zero()
    f = CoeffFn.mono(2, -1, GaussRat(F(3, 2), 1)) + M
    monkeypatch.setattr(ring, "mul_into", _no_table)
    for got, want in ((Z * f, Z), (f * Z, Z), (Z * 3, Z), (3 * Z, Z),
                      (f + Z, f), (Z + f, f), (f - Z, f), (f + 0, f),
                      (Z.deriv("T"), Z), (Z.deriv("X"), Z),
                      (Z.residue("X"), Z), (Z.residue("T"), Z)):
        assert got == want and got.terms == want.terms


def test_zero_operands_still_coerce_and_check_first():
    Z = CoeffFn.zero()
    for method in (Z.deriv, Z.residue):
        with pytest.raises(ValueError):
            method("Q")
    with pytest.raises(TypeError):
        Z * object()
    with pytest.raises(TypeError):
        Z + object()
    with pytest.raises(TypeError):
        Z - object()


def test_x_to_t_requires_t_free():
    ok = CoeffFn.x_pow(3)
    assert ok.x_to_t(2) == CoeffFn.t_pow(3, 8)
    with pytest.raises(ValueError):
        (CoeffFn.t_pow(1) + CoeffFn.x_pow(1)).x_to_t(1)


def test_t_to_x_requires_x_free():
    ok = CoeffFn.t_pow(2)
    assert ok.t_to_x(-1) == CoeffFn.x_pow(2)
    with pytest.raises(ValueError):
        CoeffFn.mono(1, 1).t_to_x(1)


def test_x_slice_and_drop():
    c = CoeffFn.mono(1, 0, 2) + CoeffFn.mono(0, 3, 5)
    assert c.x_slice(0) == CoeffFn.t_pow(1, 2)
    assert c.x_slice(3) == CoeffFn.const(5)
    assert c.drop_x_from(3) == CoeffFn.mono(1, 0, 2)
    assert c.drop_x_from(4) == c


def test_coeff_subs_m():
    c = CoeffFn.mono(1, 1, M ** 2)
    assert c.subs_m(GaussRat(0, 1)) == CoeffFn.mono(1, 1, -1)


# ---- canonical printing ----------------------------------------------------


def test_gauss_printing():
    assert str(GaussRat(F(3, 2))) == "3/2"
    assert str(GaussRat(0, 1)) == "i"
    assert str(GaussRat(0, F(-1, 2))) == "-1/2*i"
    assert str(GaussRat(F(3, 2), F(1, 2))) == "(3/2 + 1/2*i)"
    assert str(GaussRat(1, -1)) == "(1 - i)"


def test_scalar_printing():
    assert scalar_str(CoeffFn.const(2) + M ** 2) == "2 + M^2"
    assert scalar_str(GaussRat(0, -2) * M ** -1) == "-2*i*M^-1"
    assert scalar_str(CoeffFn.zero()) == "0"
    # several M-powers, ascending, with signs folded into the joins
    assert scalar_str(GR_I * M ** -1 - 1 + F(1, 2) * M ** 2 - M ** 3) == "i*M^-1 - 1 + 1/2*M^2 - M^3"
    with pytest.raises(ValueError):
        scalar_str(CoeffFn.t_pow(1))


def test_coeff_printing_matches_canonical_grammar():
    c = CoeffFn.mono(2, -1, GaussRat(F(3, 2), F(1, 2))) * M ** -1
    assert str(c) == "(3/2 + 1/2*i)*M^-1*t^2*x^-1"
    assert str(CoeffFn.x_pow(1, F(1, 2))) == "1/2*x"
    assert str(CoeffFn.t_pow(2, -1) + CoeffFn.one()) == "1 - t^2"
    # M-powers that share a (t, x) monomial print as one parenthesized scalar
    assert str(CoeffFn.t_pow(1, 2 + M ** 2)) == "(2 + M^2)*t"
    assert str(CoeffFn.mono(0, 1, -M) + M - M ** 2 + 3) == "(3 + M - M^2) - M*x"
