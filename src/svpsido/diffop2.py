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

from .ring import CoeffFn, CoeffTable, HALF, I_M, I_M_QUARTER, MINUS_2I_M, coeff_of
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
    """Compose A o B by the double Leibniz rule; always exact."""
    out = []
    for (i, j), c in A.terms.items():
        for (k, l), d in B.terms.items():
            # move d_t^i d_r^j across d: pick how many of each act on it
            for p in range(i + 1):
                dp = d
                for _ in range(p):
                    dp = dp.deriv("T")
                if dp.is_zero():
                    break
                for q in range(j + 1):
                    dq = dp
                    for _ in range(q):
                        dq = dq.deriv("X")
                    if dq.is_zero():
                        break
                    coeff = comb(i, p) * comb(j, q)
                    term = c * dq
                    if coeff != 1:
                        term = term * coeff
                    out.append(((i + k - p, j + l - q), term))
    return DiffOp2(out)


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
