"""Ground-ring arithmetic: Gaussian rationals and the (t, x, M) Laurent
coefficient functions, including the scalars free of t and x."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from svpsido import ring
from svpsido.cocycles import _slots
from svpsido.diffop2 import DiffOp2, d_pi
from svpsido.kacmoody import GDual, GElement, coadjoint
from svpsido.poisson import FIELD_V0, LocalFunctional, derivatives_at, jet
from svpsido.psido import R, Symbol
from svpsido.ring import CoeffFn, GR_I, GR_ONE, GR_ZERO, GaussRat, M
from svpsido.svaction import SchrodPoint, d_sigma_affine, d_sigma_tilde
from svpsido.svalgebra import SvElement, time_mode
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


def test_gauss_takes_only_exact_parts():
    # a float part would enter as its binary expansion, 0.1 as
    # 3602879701896397/36028797018963968
    for parts in ((0.1,), (1, 0.5), (0.5, 1), (F(1, 2), 0.25), (0.0, 0), ("1/2",)):
        with pytest.raises(TypeError):
            GaussRat(*parts)
    assert GaussRat(F(1, 10)).re == F(1, 10)
    assert (GaussRat(1, F(1, 2)).re, GaussRat(1, F(1, 2)).im) == (1, F(1, 2))
    assert GaussRat(F(-3, 4), 2) == GaussRat(F(-3, 4)) + 2 * GR_I
    assert GaussRat(True) == GaussRat(1)


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
    assert s.terms == {(0, 0, 0): (1, 0, 1)}


@pytest.mark.parametrize("value", [1, F(1, 2), 0.5, (1, 0, 1)])
def test_the_constructor_refuses_a_coefficient_that_is_no_gauss_rat(value):
    with pytest.raises(TypeError):
        CoeffFn({(0, 0, 0): value})


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


def _fresh(c: CoeffFn) -> CoeffFn:
    """An equal value built anew, with no derivative kept."""
    return ring.coeff_from_table(dict(c.terms))


@given(coeffs, st.sampled_from(["TX", "XT", "TT", "XX"]))
def test_kept_derivatives_match_those_of_a_fresh_value(c, order):
    # each derivative is computed once and kept: a second call returns the
    # same object, whichever variable was asked for first, and it equals
    # the derivative of an equal value that has kept nothing
    first = {}
    for var in order:
        got = c.deriv(var)
        assert got == _fresh(c).deriv(var) and got.terms == _fresh(c).deriv(var).terms
        assert first.setdefault(var, got) is got
    for var in "TX":
        assert c.deriv(var) is c.deriv(var)
        assert c.deriv(var).deriv(var) == _fresh(_fresh(c).deriv(var)).deriv(var)


def test_kept_derivatives_leave_zero_and_unknown_variables_as_before():
    Z = CoeffFn.zero()
    assert Z.deriv("T") is Z and Z.deriv("X") is Z
    empty = ring.coeff_from_table({})
    assert empty.deriv("T") is empty and empty.deriv("X") is empty
    c = CoeffFn.mono(2, -1, 3)
    c.deriv("T")
    c.deriv("X")
    for value in (Z, c):
        with pytest.raises(ValueError, match="unknown variable 'Q'"):
            value.deriv("Q")
    assert CoeffFn.const(5).deriv("T") == Z


def test_kept_derivatives_stay_out_of_equality_and_printing():
    c = CoeffFn.mono(2, -1, GaussRat(F(3, 2), 1)) + M * CoeffFn.t_pow(-1)
    plain = _fresh(c)
    text, shown = str(c), repr(c)
    c.deriv("T")
    c.deriv("X")
    assert c == plain and plain == c
    assert str(c) == text == str(plain)
    assert repr(c) == shown == repr(plain)


def test_a_wrapped_table_holds_no_derivative_until_one_is_asked_for():
    table = {(2, 1, 0): (3, 0, 1), (0, 2, 1): (0, 1, 1)}
    c = ring.coeff_from_table(table)
    assert not hasattr(c, "_kept")
    dt = c.deriv("T")
    assert c._kept == {"T": dt}
    assert dt == CoeffFn.mono(1, 1, 6)
    assert not hasattr(dt, "_kept")


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


def _tx_slice(c: CoeffFn, p: int, q: int) -> CoeffFn:
    """The coefficient of t^p x^q in c, a value in M alone."""
    return ring.coeff_from_table({(0, 0, m): v for (pp, qq, m), v in c.terms.items()
                                  if (pp, qq) == (p, q)})


@given(coeffs, coeffs, coeffs, st.integers(-3, 2), st.integers(-3, 2),
       st.sampled_from([1, -1, 3]), scalars)
def test_triple_kernel_reads_one_coefficient_of_the_product(f, g, h, p, q, sign, start):
    # the kernel adds into a table that already holds a sum
    acc = dict(start.terms)
    ring.triple_into(acc, f.terms.items(), g.terms.items(), h.terms.items(), p, q, sign)
    assert ring.coeff_from_table(acc) == start + _tx_slice(f * g * h, p, q) * sign
    assert all(a or b for a, b, _ in acc.values())


def test_triple_kernel_cancels_to_an_empty_table():
    f = CoeffFn.mono(-1, 0, GaussRat(F(1, 2), 1)) + CoeffFn.mono(0, 1)
    g = CoeffFn.mono(0, -1, M) + CoeffFn.t_pow(-1)
    acc: dict = {}
    ring.triple_into(acc, f.terms.items(), g.terms.items(), CoeffFn.one().terms.items(), -1, -1, 1)
    assert acc
    ring.triple_into(acc, f.terms.items(), g.terms.items(), CoeffFn.one().terms.items(), -1, -1, -1)
    # a cancelled entry stays in the table until the wrap reduces it away
    assert ring.coeff_from_table(acc).is_zero() and acc == {}


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


@given(coeffs, coeffs, scalars)
def test_product_into_adds_what_mul_into_adds_unless_a_factor_is_zero(f, g, start):
    # the table already holds a sum; a zero factor on either side, the
    # shared zero or a fresh empty value, leaves it as it was and calls no
    # kernel, and any other pair adds what mul_into adds on the term views
    acc, want = dict(start.terms), dict(start.terms)
    ring.mul_into(want, f.terms.items(), g.terms.items())
    ring.product_into(acc, f, g)
    assert acc == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ring, "mul_into", _no_table)
        for zero in (CoeffFn.zero(), CoeffFn({})):
            for pair in ((zero, f), (f, zero), (zero, zero)):
                acc = dict(start.terms)
                ring.product_into(acc, *pair)
                assert acc == start.terms


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


# ---- the coercions of every constructor -----------------------------------

# constructor.slot -> (build a value with the slot set, read the slot back);
# each loop slot goes through ring.loop_of
_LOOP_SLOTS = {
    "GElement.w": (lambda v: GElement(w=v), lambda g: g.w),
    "GElement.alpha": (lambda v: GElement(alpha=v), lambda g: g.alpha),
    "GDual.v": (lambda v: GDual(v=v), lambda g: g.v),
    "GDual.a": (lambda v: GDual(a=v), lambda g: g.a),
    "SvElement.f": (lambda v: SvElement(f=v), lambda X: X.f),
    "SvElement.g": (lambda v: SvElement(g=v), lambda X: X.g),
    "SvElement.h": (lambda v: SvElement(h=v), lambda X: X.h),
    "SchrodPoint.a": (lambda v: SchrodPoint(a=v), lambda P: P.a),
}
# and each other coefficient through ring.coeff_of; d_pi's weight is read
# back from the order-0 term of the time mode f = t, which is -mu
_COEFF_SLOTS = {
    **_LOOP_SLOTS,
    "SchrodPoint.V": (lambda v: SchrodPoint(V=v), lambda P: P.V),
    "DiffOp2": (lambda v: DiffOp2({(0, 1): v}), lambda D: D.terms.get((0, 1), CoeffFn.zero())),
    "LocalFunctional": (lambda v: LocalFunctional.monomial(v, jet(FIELD_V0)),
                        lambda F0: F0.terms.get((jet(FIELD_V0),), CoeffFn.zero())),
    "d_pi": (lambda v: d_pi(v, time_mode(0)), lambda D: -D.terms.get((0, 0), CoeffFn.zero())),
    "Symbol": (lambda v: Symbol(R, {0: v}), lambda S: S.coeff(0)),
}


@pytest.mark.parametrize("slot", [*_LOOP_SLOTS, "SchrodPoint.V"])
def test_none_gives_zero(slot):
    build, read = _COEFF_SLOTS[slot]
    assert read(build(None)) == CoeffFn.zero()


@pytest.mark.parametrize("value", [2, F(-1, 3), GaussRat(1, 2)])
@pytest.mark.parametrize("slot", list(_COEFF_SLOTS))
def test_a_constant_gives_its_coeff_fn(slot, value):
    # SvElement's loops took only CoeffFns until they shared loop_of
    build, read = _COEFF_SLOTS[slot]
    assert read(build(value)) == CoeffFn.const(value)
    assert read(build(CoeffFn.const(value))) == CoeffFn.const(value)


@pytest.mark.parametrize("slot", list(_LOOP_SLOTS))
def test_an_r_dependent_loop_is_refused(slot):
    build, _ = _LOOP_SLOTS[slot]
    with pytest.raises(ValueError, match="must not depend on r$"):
        build(CoeffFn.mono(1, 1))


@pytest.mark.parametrize("slot", list(_COEFF_SLOTS))
def test_a_str_is_no_coefficient(slot):
    build, _ = _COEFF_SLOTS[slot]
    with pytest.raises(TypeError, match="^bad coefficient 't'$"):
        build("t")


# ---- the records' shared base ---------------------------------------------

# class -> (nonzero parts in slot order, the text they print); a symbol part
# prints its own trust tag, and GElement's W is floored
_RECORDS = {
    GElement: (dict(w=CoeffFn.t_pow(2), W=Symbol(R, {1: CoeffFn.x_pow(2)}, "-2"), alpha=GR_I),
               "(w: t^2; W: r^2*d_r | floor=-2; alpha: i)"),
    GDual: (dict(v=1, V=Symbol(R, {-2: CoeffFn.x_pow(1)}), a=CoeffFn.t_pow(-1)),
            "(v: 1; V: r*d_r^-2 | exact; a: t^-1)"),
    SvElement: (dict(f=CoeffFn.t_pow(2), g=F(1, 2), h=CoeffFn.t_pow(-1, GR_I)),
                "(f: t^2; g: 1/2; h: i*t^-1)"),
    SchrodPoint: (dict(a=CoeffFn.t_pow(1), V=CoeffFn.x_pow(2, M)), "(a: t; V: M*x^2)"),
}


@pytest.mark.parametrize("cls", list(_RECORDS), ids=lambda cls: cls.__name__)
def test_a_record_is_its_named_slots(cls):
    parts, text = _RECORDS[cls]
    value = cls(**parts)
    assert str(value) == repr(value) == text
    assert value == cls(**parts) and not value.is_zero() and cls().is_zero()
    for name in parts:
        assert value != cls(**{**parts, name: None})
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
            setattr(value, name, None)


def _pickled(value):
    return pickle.loads(pickle.dumps(value))


def _value_classes(cls=ring.Value) -> set:
    """The package's Value subclasses below cls; a class that a test
    defines is not one of them."""
    return {sub for direct in cls.__subclasses__() if direct.__module__.startswith("svpsido.")
            for sub in {direct} | _value_classes(direct)}


# one value of every Value subclass, with its private memo filled where it
# has one, and the shared zero
_VALUES = {
    "CoeffFn": CoeffFn.t_pow(2, GR_I) + M,
    "zero": CoeffFn.zero(),
    "Symbol": Symbol(R, {1: CoeffFn.x_pow(2), -1: CoeffFn.mono(-1, -1)}, "-2"),
    "DiffOp2": DiffOp2({(0, 1): CoeffFn.x_pow(1), (2, 0): 3}),
    "LocalFunctional": LocalFunctional.monomial(CoeffFn.x_pow(1), jet(FIELD_V0)),
    **{cls.__name__: cls(**parts) for cls, (parts, _) in _RECORDS.items()},
}


def test_every_value_class_has_a_copied_value():
    # ring.CoeffTable is the base of DiffOp2 and LocalFunctional, with no
    # key hook of its own: no value is of that class alone
    assert {v.__class__ for v in _VALUES.values()} == _value_classes() - {ring.CoeffTable}


def test_every_value_class_compares_some_part():
    # a class with no parts would make every two of its values equal
    for cls in _value_classes():
        assert cls._parts, cls.__name__


def test_a_slotless_subclass_compares_by_its_base_parts():
    class Marked(GDual):
        __slots__ = ()

    assert Marked._parts == GDual._parts == ("v", "V", "a")
    assert Marked() != Marked(v=CoeffFn.t_pow(1))
    assert Marked(v=CoeffFn.t_pow(1)) == Marked(v=CoeffFn.t_pow(1))
    assert str(Marked(a=2)) == str(GDual(a=2))

    class Table(LocalFunctional):
        __slots__ = ()

    assert Table._parts == ("terms",)
    assert Table() != Table([((jet(FIELD_V0),), CoeffFn.x_pow(1))])
    assert Table([((jet(FIELD_V0),), 1)]) == Table({(jet(FIELD_V0),): 1})


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, _pickled])
@pytest.mark.parametrize("name", list(_VALUES))
def test_copies_and_pickles_rebuild_an_equal_value(name, clone):
    # the default slot restore assigned through the guard and raised
    # "... is immutable" for every value of the package
    value = _VALUES[name]
    value.kept(str)
    if isinstance(value, CoeffFn):
        value.deriv("T")
    if isinstance(value, Symbol):
        value.kept(_slots)
    out = clone(value)
    # the memo is not carried: a copy starts with it unset
    assert not hasattr(out, "_kept")
    assert out.__class__ is value.__class__ and out == value and str(out) == str(value)
    if isinstance(out, Symbol):
        assert out.rows() == value.rows() and out.kept(_slots) == value.kept(_slots)
    if isinstance(out, CoeffFn):
        assert out.deriv("T") == value.deriv("T")


def _both_derivatives(c):
    return c.deriv("T"), c.deriv("X")


# each class's memos, warmed through the calls that keep them; a class
# that keeps nothing of its own is warmed through Value.kept itself, and a
# dual point keeps nothing: its slots are read from the rows its V keeps
_WARM = {
    "CoeffFn": _both_derivatives,
    "zero": _both_derivatives,
    "Symbol": lambda s: (s.rows(), s.kept(_slots)),
    "DiffOp2": lambda d: d.kept(str),
    "LocalFunctional": lambda F: derivatives_at(F, _VALUES["GDual"]),
    "GElement": lambda A: A.kept(str),
    "GDual": lambda mu: mu.slots(),
    "SvElement": lambda X: (coadjoint(X, _VALUES["GDual"], GaussRat(2)),
                            d_sigma_tilde(F(1, 4), X, _VALUES["SchrodPoint"]),
                            d_sigma_affine(F(0), X, _VALUES["SchrodPoint"])),
    "SchrodPoint": lambda P: P.kept(str),
}


@pytest.mark.parametrize("name", list(_VALUES))
def test_a_warmed_memo_is_invisible_and_never_copied(name):
    assert set(_WARM) == set(_VALUES)
    # the shared zero keeps its derivatives from the start; a copy of
    # every other value starts with nothing kept
    value = _VALUES[name] if name == "zero" else copy.copy(_VALUES[name])
    plain = _pickled(value)
    text, shown = str(value), repr(value)
    _WARM[name](value)
    assert hasattr(value, "_kept") == (name != "GDual")
    assert value == plain and plain == value
    assert str(value) == text == str(plain) and repr(value) == shown == repr(plain)
    for clone in (copy.copy, copy.deepcopy, _pickled):
        out = clone(value)
        assert not hasattr(out, "_kept") and out == value and str(out) == text


def test_records_of_two_classes_never_compare_equal():
    w, S, alpha = CoeffFn.t_pow(1), Symbol(R, {-1: CoeffFn.x_pow(1)}), 2
    assert GElement(w, S, alpha) != GDual(w, S, alpha)
    assert GDual(w, S, alpha) != GElement(w, S, alpha)
    assert GElement() != GDual()


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
