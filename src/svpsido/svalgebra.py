"""The finite symmetry algebra acting on evolution operators.

An element is a triple of loop functions (f, g, h): f generates time
reparametrizations, g space shifts with their velocity corrections, h
central phase changes.  All three are Laurent polynomials in t; the
half-integer grading of the shift modes lives in the indices, not in the
exponents (the mode with index m carries the function t^(m + 1/2), which
is an integer power because m is half-odd).

Bracket, for X1 = (f1, g1, h1) and X2 = (f2, g2, h2):

    f-slot:  f1'*f2 - f1*f2'      (with ' = d/dt, written below via ḟ = deriv)
    g-slot:  1/2 f1' g2 - f1 g2' - 1/2 f2' g1 + f2 g1'
    h-slot:  g1' g2 - g1 g2' - f1 h2' + f2 h1'

These reproduce the mode relations
    [time_n, time_p]  = (n - p) time_{n+p}
    [time_n, shift_m] = (n/2 - m) shift_{n+m}
    [time_n, phase_p] = -p phase_{n+p}
    [shift_m, shift_m'] = (m - m') phase_{m+m'}
with shifts commuting with phases and phases central.

An element never changes, so what is built from it alone is built once
and kept on it (Value.kept): its signed loops and derivatives that the
bracket multiplies, and the loop factors of the coadjoint action and of
the actions on operator points.
"""

from __future__ import annotations

from .halfint import HalfInt, h
from .ring import CoeffFn, HALF, Value, _rebuilt, _set_kept, coeff_from_table, loop_of, product_into

__all__ = [
    "SvElement",
    "sv_bracket",
    "time_mode",
    "shift_mode",
    "phase_mode",
    "sv_basis",
]


class SvElement(Value):
    """Triple (f, g, h) of t-Laurent polynomials."""

    __slots__ = ("f", "g", "h")

    def __init__(self, f=None, g=None, h=None):
        object.__setattr__(self, "f", loop_of(f, "the time loop f"))
        object.__setattr__(self, "g", loop_of(g, "the shift loop g"))
        object.__setattr__(self, "h", loop_of(h, "the phase loop h"))
        _set_kept(self, {})  # built to be read back: see ring.Value

    def scale(self, c) -> "SvElement":
        return SvElement(self.f * c, self.g * c, self.h * c)


def time_mode(n: int) -> SvElement:
    """Time reparametrization mode of index n: f = t^(n+1)."""
    return SvElement(f=CoeffFn.t_pow(n + 1))


def shift_mode(m) -> SvElement:
    """Space shift mode of half-odd index m: g = t^(m + 1/2)."""
    m = h(m)
    if m.is_integer:
        raise ValueError("shift indices are half-odd integers")
    return SvElement(g=CoeffFn.t_pow((m + h("1/2")).as_int()))


def phase_mode(p: int) -> SvElement:
    """Central phase mode of index p: h = t^p."""
    return SvElement(h=CoeffFn.t_pow(p))


def sv_basis(index_bound: int):
    """All modes with |index| <= index_bound, in a fixed order."""
    out = []
    for n in range(-index_bound, index_bound + 1):
        out.append(("time", HalfInt.of(n), time_mode(n)))
    m = HalfInt(-2 * index_bound + 1)
    while m <= index_bound:
        out.append(("shift", m, shift_mode(m)))
        m = m + 1
    for p in range(-index_bound, index_bound + 1):
        out.append(("phase", HalfInt.of(p), phase_mode(p)))
    return out


def _loops(X: SvElement) -> tuple:
    """The loops of X that the bracket multiplies, signs and halves
    folded in: f, f', f'/2, -f, g, g', -g and h'."""
    f, g = X.f, X.g
    fd = f.deriv("T")
    return f, fd, fd * HALF, -f, g, g.deriv("T"), -g, X.h.deriv("T")


def sv_bracket(X: SvElement, Y: SvElement) -> SvElement:
    """[X, Y] by the three slot formulas above.  Each output loop is one
    table that its products are added into (ring.product_into), and a
    pair of families is multiplied only where both operands fill it; the
    signed loops of each operand are kept on it (_loops).  The products
    are t-only, so the result is rebuilt past SvElement's checks."""
    f1, fd1, half_fd1, minus_f1, g1, gd1, minus_g1, hd1 = X.kept(_loops)
    f2, fd2, half_fd2, minus_f2, g2, gd2, minus_g2, hd2 = Y.kept(_loops)
    f_row: dict = {}
    g_row: dict = {}
    h_row: dict = {}
    if f1.terms:
        if f2.terms:
            product_into(f_row, fd1, f2)
            product_into(f_row, minus_f1, fd2)
        if g2.terms:
            product_into(g_row, half_fd1, g2)
            product_into(g_row, minus_f1, gd2)
        product_into(h_row, minus_f1, hd2)
    if g1.terms:
        if f2.terms:
            product_into(g_row, half_fd2, minus_g1)
            product_into(g_row, f2, gd1)
        if g2.terms:
            product_into(h_row, gd1, g2)
            product_into(h_row, minus_g1, gd2)
    if f2.terms:
        product_into(h_row, f2, hd1)
    return _rebuilt(SvElement, (coeff_from_table(f_row), coeff_from_table(g_row),
                                coeff_from_table(h_row)))
