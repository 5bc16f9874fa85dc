"""Bracket relations of the symmetry algebra in its loop-function form."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from strategies import coeff_fns
from svpsido.halfint import h
from svpsido.ring import CoeffFn, GaussRat
from svpsido.svalgebra import (
    SvElement,
    phase_mode,
    shift_mode,
    sv_basis,
    sv_bracket,
    time_mode,
)


def lin(*pairs):
    """Loop function sum(c * t^n for (c, n) in pairs)."""
    out = CoeffFn.zero()
    for c, n in pairs:
        out = out + CoeffFn.t_pow(n, c)
    return out


class TestModeRelations:
    # index grids chosen to cross zero and mix signs
    @pytest.mark.parametrize("n", [-2, -1, 0, 1, 2])
    @pytest.mark.parametrize("p", [-1, 0, 1, 3])
    def test_time_time(self, n, p):
        got = sv_bracket(time_mode(n), time_mode(p))
        assert got == time_mode(n + p).scale(n - p)

    @pytest.mark.parametrize("n", [-1, 0, 1, 2])
    @pytest.mark.parametrize("twm", [-3, -1, 1, 3])
    def test_time_shift(self, n, twm):
        m = h(Fraction(twm, 2))
        got = sv_bracket(time_mode(n), shift_mode(m))
        coeff = Fraction(n, 2) - m.as_fraction()
        assert got == shift_mode(m + n).scale(coeff)

    @pytest.mark.parametrize("n", [-1, 0, 2])
    @pytest.mark.parametrize("p", [-2, 0, 1])
    def test_time_phase(self, n, p):
        got = sv_bracket(time_mode(n), phase_mode(p))
        assert got == phase_mode(n + p).scale(-p)

    @pytest.mark.parametrize("twm", [-3, -1, 1])
    @pytest.mark.parametrize("twp", [-1, 1, 3])
    def test_shift_shift(self, twm, twp):
        m = h(Fraction(twm, 2))
        p = h(Fraction(twp, 2))
        got = sv_bracket(shift_mode(m), shift_mode(p))
        coeff = m.as_fraction() - p.as_fraction()
        assert got == phase_mode((m + p).as_int()).scale(coeff)

    def test_shift_phase_and_phase_phase_vanish(self):
        assert sv_bracket(shift_mode(h("1/2")), phase_mode(1)).is_zero()
        assert sv_bracket(phase_mode(0), phase_mode(2)).is_zero()


def test_shift_mode_rejects_integer_index():
    with pytest.raises(ValueError):
        shift_mode(h(1))


def test_element_shape_guards():
    with pytest.raises(ValueError):
        SvElement(f=CoeffFn.x_pow(1))  # space dependence is not a loop function
    with pytest.raises(TypeError):
        SvElement(g="t")


def test_basis_inventory():
    basis = sv_basis(3)
    kinds = [k for (k, _, _) in basis]
    assert len(basis) == 20
    assert kinds.count("time") == 7
    assert kinds.count("shift") == 6
    assert kinds.count("phase") == 7
    # indices come out sorted within each family
    sh = [i for (k, i, _) in basis if k == "shift"]
    assert all(sh[j] < sh[j + 1] for j in range(len(sh) - 1))


small = st.integers(min_value=-3, max_value=3)
coeffs = st.integers(min_value=-4, max_value=4)


def elements():
    def build(cf, nf, cg, ng, ch, nh):
        return SvElement(
            f=lin((cf, nf)), g=lin((cg, ng)), h=lin((ch, nh))
        )

    return st.builds(build, coeffs, small, coeffs, small, coeffs, small)


@given(elements(), elements())
def test_antisymmetry(x, y):
    assert sv_bracket(x, y) == sv_bracket(y, x).scale(-1)


@given(elements(), elements(), elements())
def test_jacobi(x, y, z):
    total = (
        sv_bracket(x, sv_bracket(y, z))
        + sv_bracket(y, sv_bracket(z, x))
        + sv_bracket(z, sv_bracket(x, y))
    )
    assert total.is_zero()


@given(elements(), elements(), elements())
def test_bilinearity_in_first_slot(x, y, z):
    assert sv_bracket(x + y, z) == sv_bracket(x, z) + sv_bracket(y, z)


# sv_bracket multiplies a pair of families only where both operands fill
# it, so these loops leave a family empty about half the time
_gauss = st.builds(GaussRat, st.integers(-3, 3), st.integers(-2, 2))
_loops = st.one_of(st.just(CoeffFn.zero()),
                   coeff_fns((-2, 3), (0, 0), (-1, 1), _gauss, min_size=1, max_size=3))
_sparse = st.builds(SvElement, _loops, _loops, _loops)


@given(_sparse, _sparse, _sparse)
@settings(max_examples=200, deadline=None)
def test_antisymmetry_and_jacobi_where_families_are_empty(x, y, z):
    assert sv_bracket(x, y) == -sv_bracket(y, x)
    assert sv_bracket(x, x).is_zero()
    total = (
        sv_bracket(x, sv_bracket(y, z))
        + sv_bracket(y, sv_bracket(z, x))
        + sv_bracket(z, sv_bracket(x, y))
    )
    assert total.is_zero()


def _mode_bracket(kind_a, a, kind_b, b) -> SvElement:
    """[a, b] of two modes by the relations in the svalgebra docstring."""
    if kind_a == "time" and kind_b == "time":
        return time_mode((a + b).as_int()).scale((a - b).as_fraction())
    if kind_a == "time" and kind_b == "shift":
        return shift_mode(a + b).scale(a.as_fraction() / 2 - b.as_fraction())
    if kind_a == "time" and kind_b == "phase":
        return phase_mode((a + b).as_int()).scale(-b.as_fraction())
    if kind_a == "shift" and kind_b == "shift":
        return phase_mode((a + b).as_int()).scale((a - b).as_fraction())
    if kind_b == "time" or (kind_a, kind_b) == ("phase", "shift"):
        return -_mode_bracket(kind_b, b, kind_a, a)
    return SvElement()  # shifts commute with phases, and phases are central


def test_the_range_3_basis_obeys_the_mode_relations():
    basis = sv_basis(3)
    for kind_a, a, X in basis:
        for kind_b, b, Y in basis:
            assert sv_bracket(X, Y) == _mode_bracket(kind_a, a, kind_b, b), (kind_a, a, kind_b, b)
