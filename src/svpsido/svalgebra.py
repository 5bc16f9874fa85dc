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

An element never changes, so what other modules build from it alone is
built once and kept on it (Value.kept): the loop factors of the
coadjoint action and of the weighted actions on operator points.
"""

from __future__ import annotations

from .halfint import HalfInt, h
from .ring import CoeffFn, HALF, Value, loop_of

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


def sv_bracket(X: SvElement, Y: SvElement) -> SvElement:
    f1, g1, h1 = X.f, X.g, X.h
    f2, g2, h2 = Y.f, Y.g, Y.h
    df1, dg1, dh1 = f1.deriv("T"), g1.deriv("T"), h1.deriv("T")
    df2, dg2, dh2 = f2.deriv("T"), g2.deriv("T"), h2.deriv("T")
    f_out = df1 * f2 - f1 * df2
    g_out = df1 * g2 * HALF - f1 * dg2 - df2 * g1 * HALF + f2 * dg1
    h_out = dg1 * g2 - g1 * dg2 - f1 * dh2 + f2 * dh1
    return SvElement(f_out, g_out, h_out)
