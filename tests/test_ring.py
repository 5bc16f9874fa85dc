"""Ground-ring arithmetic: Gaussian rationals, mass-Laurent scalars, and
bivariate coefficient functions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svpsido.ring import CoeffFn, GR_I, GR_ONE, GR_ZERO, GaussRat, Scalar

F = Fraction


# ---- strategies ----------------------------------------------------------

small_fracs = st.builds(
    F,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=4),
)

gauss = st.builds(GaussRat, small_fracs, small_fracs)

scalars = st.dictionaries(
    st.integers(min_value=-2, max_value=2), gauss, max_size=3
).map(Scalar)

coeffs = st.dictionaries(
    st.tuples(
        st.integers(min_value=-2, max_value=2),
        st.integers(min_value=-2, max_value=2),
    ),
    scalars,
    max_size=4,
).map(CoeffFn)


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
    from svpsido.ring import _coeff_raw, _scalar_raw

    for obj, slot in (
        (_scalar_raw({}), "terms"),
        (Scalar.one(), "terms"),
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


# ---- Scalar ---------------------------------------------------------------


def test_scalar_normalizes_away_zeros():
    s = Scalar({0: GaussRat(1), 2: GR_ZERO})
    assert s.terms == {0: GR_ONE}


def test_scalar_monomial_unit_inverse():
    s = Scalar.m_pow(3, GaussRat(0, 2))  # 2i*M^3
    assert s * s.unit_inv() == Scalar.one()
    assert s.unit_inv() == Scalar.m_pow(-3, GaussRat(0, F(-1, 2)))


def test_scalar_non_monomial_division_rejected():
    s = Scalar.one() + Scalar.m_pow(1)
    with pytest.raises(ZeroDivisionError):
        s.unit_inv()


def test_scalar_negative_power_of_unit():
    s = Scalar.m_pow(1, 2)
    assert s ** -2 == Scalar.m_pow(-2, F(1, 4))


def test_scalar_subs_m():
    # (1 + M^2) at M = 2i gives 1 - 4
    s = Scalar.one() + Scalar.m_pow(2)
    assert s.subs_m(GaussRat(0, 2)) == Scalar.of(-3)


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


def test_scale_x_substitution():
    c = CoeffFn.x_pow(-2)
    two_m = Scalar.m_pow(1, 2)
    assert c.scale_x(two_m) == CoeffFn.x_pow(-2).scale(Scalar.m_pow(-2, F(1, 4)))


def test_x_to_t_requires_t_free():
    ok = CoeffFn.x_pow(3)
    assert ok.x_to_t(Scalar.of(2)) == CoeffFn.t_pow(3, 8)
    with pytest.raises(ValueError):
        (CoeffFn.t_pow(1) + CoeffFn.x_pow(1)).x_to_t(Scalar.one())


def test_t_to_x_requires_x_free():
    ok = CoeffFn.t_pow(2)
    assert ok.t_to_x(Scalar.of(-1)) == CoeffFn.x_pow(2)
    with pytest.raises(ValueError):
        CoeffFn.mono(1, 1).t_to_x(Scalar.one())


def test_x_slice_and_drop():
    c = CoeffFn.mono(1, 0, 2) + CoeffFn.mono(0, 3, 5)
    assert c.x_slice(0) == CoeffFn.t_pow(1, 2)
    assert c.x_slice(3) == CoeffFn.const(5)
    assert c.drop_x_from(3) == CoeffFn.mono(1, 0, 2)
    assert c.drop_x_from(4) == c


def test_coeff_subs_m():
    c = CoeffFn.mono(1, 1, Scalar.m_pow(2))
    assert c.subs_m(GaussRat(0, 1)) == CoeffFn.mono(1, 1, -1)


# ---- canonical printing ----------------------------------------------------


def test_gauss_printing():
    assert str(GaussRat(F(3, 2))) == "3/2"
    assert str(GaussRat(0, 1)) == "i"
    assert str(GaussRat(0, F(-1, 2))) == "-1/2*i"
    assert str(GaussRat(F(3, 2), F(1, 2))) == "(3/2 + 1/2*i)"
    assert str(GaussRat(1, -1)) == "(1 - i)"


def test_scalar_printing():
    assert str(Scalar.of(2) + Scalar.m_pow(2)) == "2 + M^2"
    assert str(Scalar.m_pow(-1, GaussRat(0, -2))) == "-2*i*M^-1"
    assert str(Scalar.zero()) == "0"


def test_coeff_printing_matches_canonical_grammar():
    c = CoeffFn.mono(2, -1, GaussRat(F(3, 2), F(1, 2))).scale(Scalar.m_pow(-1))
    assert str(c) == "(3/2 + 1/2*i)*M^-1*t^2*x^-1"
    assert str(CoeffFn.x_pow(1, F(1, 2))) == "1/2*x"
    assert str(CoeffFn.t_pow(2, -1) + CoeffFn.one()) == "1 - t^2"
