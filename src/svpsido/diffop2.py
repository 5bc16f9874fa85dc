"""Honest differential operators in the two variables (t, r).

No truncation here: powers of d_t and d_r are nonnegative integers, so
every composition is a finite double Leibniz sum.  This module is the
independent home of the first-order representation of the symmetry
algebra on wave functions and of the free evolution operator; the
verification suites bracket these against each other without going
through the symbol machinery.
"""

from __future__ import annotations

from math import comb

from .ring import (
    CoeffFn,
    CoeffTable,
    HALF,
    I_M,
    I_M_QUARTER,
    MINUS_2I_M,
    _rebuilt,
    coeff_from_table,
    coeff_of,
    mul_into,
)
from .svalgebra import SvElement

__all__ = [
    "DiffOp2",
    "dop_mul",
    "dop_bracket",
    "d_pi",
    "free_evolution_op",
    "dop_from_r_symbol",
]


class DiffOp2(CoeffTable):
    """Operator sum of c(t, r) * d_t^i * d_r^j terms.

    ``terms`` maps (i, j) with i, j >= 0 to a nonzero CoeffFn: a
    ring.CoeffTable whose key check refuses a negative power.
    """

    __slots__ = ()

    @staticmethod
    def _key(key, c):
        i, j = key
        if i < 0 or j < 0:
            raise ValueError("derivative powers must be nonnegative")
        return key

    @staticmethod
    def function(c) -> "DiffOp2":
        return DiffOp2({(0, 0): c})

    @staticmethod
    def d_t() -> "DiffOp2":
        return DiffOp2({(1, 0): CoeffFn.one()})

    @staticmethod
    def d_r() -> "DiffOp2":
        return DiffOp2({(0, 1): CoeffFn.one()})

    def coeff(self, i: int, j: int) -> CoeffFn:
        return self.terms.get((i, j), CoeffFn.zero())

    def scale(self, s) -> "DiffOp2":
        return DiffOp2({k: c * s for k, c in self.terms.items()})

    def __repr__(self):
        return f"DiffOp2({self.terms!r})"

    def __str__(self):
        if not self.terms:
            return "0"
        from .textio import _terms_text

        parts = []
        for (i, j) in sorted(self.terms, key=lambda k: (-(k[0] + k[1]), -k[0])):
            ctxt, monomials = _terms_text(sorted(self.terms[(i, j)].terms.items()), "r", 0)
            ds = []
            if i:
                ds.append("d_t" if i == 1 else f"d_t^{i}")
            if j:
                ds.append("d_r" if j == 1 else f"d_r^{j}")
            if not ds:
                parts.append(ctxt)
            elif ctxt == "1":
                parts.append("*".join(ds))
            elif ctxt == "-1":
                parts.append("-" + "*".join(ds))
            else:
                # wrapped as symbol_str wraps it: only a sum of (t, r) monomials
                body = f"({ctxt})" if monomials > 1 else ctxt
                parts.append(body + "*" + "*".join(ds))
        return " + ".join(parts).replace("+ -", "- ")


def dop_mul(A: DiffOp2, B: DiffOp2) -> DiffOp2:
    """Compose A o B by the double Leibniz rule; always exact.

    c d_t^i d_r^j o d d_t^k d_r^l is the sum over p <= i and q <= j of
    binom(i, p) binom(j, q) c (d_t^p d_r^q d) d_t^(i+k-p) d_r^(j+l-q).
    Each term is added as int triples into the one table of its powers
    (ring.mul_into), its binomial weight folded into the terms of c, and
    each table is wrapped once; the derivatives of d are those it keeps.
    Powers come out nonnegative, so the operator is rebuilt past
    DiffOp2's checks, with its powers in the order they first appear."""
    tables: dict = {}
    for (i, j), c in A.terms.items():
        c_items = c.terms.items()
        for (k, l), d in B.terms.items():
            dp = d
            for p in range(i + 1):
                if p:
                    dp = dp.deriv("T")
                if not dp.terms:
                    break
                dq = dp
                for q in range(j + 1):
                    if q:
                        dq = dq.deriv("X")
                    if not dq.terms:
                        break
                    key = (i + k - p, j + l - q)
                    table = tables.get(key)
                    if table is None:
                        table = tables[key] = {}
                    w = comb(i, p) * comb(j, q)
                    weighted = c_items if w == 1 else [(m, (a * w, b * w, e)) for m, (a, b, e) in c_items]
                    mul_into(table, weighted, dq.terms.items())
    out: dict = {}
    for key, table in tables.items():
        coeff = coeff_from_table(table)
        if coeff.terms:
            out[key] = coeff
    return _rebuilt(DiffOp2, (out,))


def dop_bracket(A: DiffOp2, B: DiffOp2) -> DiffOp2:
    return dop_mul(A, B) - dop_mul(B, A)


def free_evolution_op() -> DiffOp2:
    """-2iM*d_t - d_r^2, the operator whose kernel the symmetries preserve."""
    return DiffOp2(
        {(1, 0): MINUS_2I_M, (0, 2): CoeffFn.const(-1)}
    )


def d_pi(mu, X: SvElement) -> DiffOp2:
    """First-order realization of a symmetry element on wave functions.

    From the time part f:   -f d_t - 1/2 f' r d_r + (iM/4) f'' r^2 - mu f'
    From the shift part g:  -g d_r + iM g' r
    From the phase part h:  iM h
    """
    mu = coeff_of(mu)
    f, g, hh = X.f, X.g, X.h
    df, dg = f.deriv("T"), g.deriv("T")
    return DiffOp2([
        ((1, 0), -f),
        ((0, 1), -(df * CoeffFn.x_pow(1) * HALF)),
        ((0, 0), df.deriv("T") * CoeffFn.x_pow(2) * I_M_QUARTER - df * mu),
        ((0, 1), -g),
        ((0, 0), dg * CoeffFn.x_pow(1) * I_M),
        ((0, 0), hh * I_M),
    ])


def dop_from_r_symbol(D) -> DiffOp2:
    """Embed a space-symbol with integer orders >= 0 as a (t, r) operator."""
    out: dict = {}
    for o, c in D.rows().items():
        if o & 1 or o < 0:
            raise ValueError("only differential-part symbols embed")
        out[(0, o // 2)] = c
    return DiffOp2(out)
