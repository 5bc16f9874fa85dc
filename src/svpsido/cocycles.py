"""Central 2-cocycles on the order-capped symbol algebra.

The algebra here is the quotient of space symbols by orders below -1, so
an element is determined by its three slots: the coefficients of d_r,
d_r^0 and d_r^-1.  Each evaluator reads those slots, combines them with
r-derivatives, and averages by taking the r-residue; the value keeps its
loop dependence, so evaluators return a function of t.

Slot convention, fixed once: with A = A1 d + A0 + Am d^-1 and primes for
d/dr,

    c0: res(A1''' B1)            the classical cocycle on the top slots
    c1: res(A1'' B0 - B1'' A0)
    c2: res(A1 Bm  - B1 Am)
    c3: res(A1' Bm - B1' Am)
    c4: res(B0' A0 - A0' B0)
    c5: res(A0 Bm  - B0 Am)

Every formula is antisymmetric by construction (c0 via integration by
parts under the residue).  Only c3 feeds the loop-algebra extension; the
rest are verification targets for the identity checker below.
"""

from __future__ import annotations

import enum

from .halfint import EXACT, h
from .psido import R, Symbol, sym_bracket
from .ring import CoeffFn

__all__ = [
    "CocycleId",
    "eval_cocycle",
    "quotient_bracket",
    "cyclic_defect",
    "cocycle_identity_defect",
]


class CocycleId(enum.Enum):
    C0 = "c0"
    C1 = "c1"
    C2 = "c2"
    C3 = "c3"
    C4 = "c4"
    C5 = "c5"


_ONE = h(1)
_MINUS_ONE = h(-1)


def _slots(D: Symbol):
    """The three quotient slots of a capped symbol, trust-checked."""
    if D.var != R:
        raise ValueError("cocycles are defined on space symbols")
    top = D.top()
    if top is not None and top > _ONE:
        raise ValueError("cocycles live on symbols of order <= 1")
    if D.floor is not EXACT and D.floor > _MINUS_ONE:
        raise ValueError("slot at order -1 is untrusted; deepen the floor")
    return D.coeff(_ONE), D.coeff(h(0)), D.coeff(_MINUS_ONE)


def _dx(c: CoeffFn, n: int = 1) -> CoeffFn:
    for _ in range(n):
        c = c.deriv("X")
    return c


def eval_cocycle(cid: CocycleId, A: Symbol, B: Symbol) -> CoeffFn:
    """Evaluate one central cocycle; the result is a loop function."""
    a1, a0, am = _slots(A)
    b1, b0, bm = _slots(B)
    if cid is CocycleId.C0:
        expr = _dx(a1, 3) * b1
    elif cid is CocycleId.C1:
        expr = _dx(a1, 2) * b0 - _dx(b1, 2) * a0
    elif cid is CocycleId.C2:
        expr = a1 * bm - b1 * am
    elif cid is CocycleId.C3:
        expr = _dx(a1) * bm - _dx(b1) * am
    elif cid is CocycleId.C4:
        expr = _dx(b0) * a0 - _dx(a0) * b0
    elif cid is CocycleId.C5:
        expr = a0 * bm - b0 * am
    else:
        raise ValueError(f"unknown cocycle {cid!r}")
    return expr.residue("X")


def quotient_bracket(A: Symbol, B: Symbol) -> Symbol:
    """[A, B] in the capped quotient.

    The full commutator floored at order -1 has the same three slots;
    lower orders never enter.
    """
    return sym_bracket(A, B, _MINUS_ONE)


def cyclic_defect(
    cid: CocycleId, A: Symbol, B: Symbol, C: Symbol, ab: Symbol, bc: Symbol, ca: Symbol
) -> CoeffFn:
    """c([A,B],C) + c([B,C],A) + c([C,A],B), given the quotient brackets
    ab = [A,B], bc = [B,C] and ca = [C,A]; zero for a genuine 2-cocycle."""
    return eval_cocycle(cid, ab, C) + eval_cocycle(cid, bc, A) + eval_cocycle(cid, ca, B)


def cocycle_identity_defect(cid: CocycleId, A: Symbol, B: Symbol, C: Symbol) -> CoeffFn:
    """c([A,B],C) + c([B,C],A) + c([C,A],B); zero for a genuine 2-cocycle."""
    ab, bc, ca = quotient_bracket(A, B), quotient_bracket(B, C), quotient_bracket(C, A)
    return cyclic_defect(cid, A, B, C, ab, bc, ca)
