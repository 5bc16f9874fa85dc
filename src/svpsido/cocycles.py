"""Central 2-cocycles on the order-capped symbol algebra.

The algebra here is the quotient of space symbols by orders below -1, so
an element is determined by its three slots: the coefficients of d_r,
d_r^0 and d_r^-1.  Each cocycle is one or two residues res(f^(n) g) of
slot coefficients; the value keeps its loop dependence, so evaluators
return a function of t.  ring.residue_into reads each residue from the
term pairs of f and g whose r-powers meet at -1, weighed by the falling
factorial (q)_n, so no derivative, product or residue is ever built.

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

c2 is a coboundary: c2(A, B) = -res(r [A, B]_{-1}), with [A, B] the
quotient bracket, so c2 is minus the linear functional
D -> res(r D_{-1}) taken on the bracket.  That functional is not
invariant under the translation r -> r + a, so c2 is trivial on the
Laurent algebra that the suites use, not on one that is closed under
translations.  The identity is pinned in tests/test_cocycles.py over the
loop box t^s r^p d^k (s in {-1, 0, 2}, |p| <= 3, k in {-1, 0, 1}), where
c3 serves as the control that fails it.
"""

from __future__ import annotations

import enum

from .halfint import EXACT
from .psido import R, Symbol, sym_bracket
from .ring import CoeffFn, coeff_from_table, residue_into

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


# cocycle -> (n, i, j, signs): the value is signs[0] * res(A_i^(n) B_j) plus,
# when a second sign is given, signs[1] * res(B_i^(n) A_j), with the slots
# of orders 1, 0, -1 indexed 0, 1, 2
_FORMS = {
    CocycleId.C0: (3, 0, 0, (1,)),
    CocycleId.C1: (2, 0, 1, (1, -1)),
    CocycleId.C2: (0, 0, 2, (1, -1)),
    CocycleId.C3: (1, 0, 2, (1, -1)),
    CocycleId.C4: (1, 1, 1, (-1, 1)),
    CocycleId.C5: (0, 1, 2, (1, -1)),
}


def _slots(D: Symbol):
    """The term items of the three quotient slots of a capped symbol
    (orders 1, 0, -1), trust-checked.  The symbol keeps them
    (Symbol.quotient_slots), since the same operands are read again and
    again: the lifts and probes of every theorem61 bracket, and the box
    elements and quotient brackets of the cocycles suite."""
    if D.var != R:
        raise ValueError("cocycles are defined on space symbols")
    up, mid, down, above = D.quotient_slots()
    if above:
        raise ValueError("cocycles live on symbols of order <= 1")
    if D.low is not EXACT and D.low > -2:
        raise ValueError("slot at order -1 is untrusted; deepen the floor")
    return up, mid, down


def _cocycle_into(acc: dict, cid: CocycleId, A: Symbol, B: Symbol) -> None:
    """Add c(A, B) into acc, a mutable {(t, 0, M): (a, b, d)} table."""
    a = _slots(A)
    b = _slots(B)
    form = _FORMS.get(cid)
    if form is None:
        raise ValueError(f"unknown cocycle {cid!r}")
    n, i, j, signs = form
    residue_into(acc, a[i], b[j], n, signs[0])
    if len(signs) > 1:
        residue_into(acc, b[i], a[j], n, signs[1])


def eval_cocycle(cid: CocycleId, A: Symbol, B: Symbol) -> CoeffFn:
    """Evaluate one central cocycle; the result is a loop function."""
    acc: dict = {}
    _cocycle_into(acc, cid, A, B)
    return coeff_from_table(acc)


def quotient_bracket(A: Symbol, B: Symbol) -> Symbol:
    """[A, B] in the capped quotient.

    The full commutator floored at order -1 has the same three slots;
    lower orders never enter.
    """
    return sym_bracket(A, B, -1)


def cyclic_defect(
    cid: CocycleId, A: Symbol, B: Symbol, C: Symbol, ab: Symbol, bc: Symbol, ca: Symbol
) -> CoeffFn:
    """c([A,B],C) + c([B,C],A) + c([C,A],B), given the quotient brackets
    ab = [A,B], bc = [B,C] and ca = [C,A]; zero for a genuine 2-cocycle.
    The three values are summed in one table."""
    acc: dict = {}
    _cocycle_into(acc, cid, ab, C)
    _cocycle_into(acc, cid, bc, A)
    _cocycle_into(acc, cid, ca, B)
    return coeff_from_table(acc)


def cocycle_identity_defect(cid: CocycleId, A: Symbol, B: Symbol, C: Symbol) -> CoeffFn:
    """c([A,B],C) + c([B,C],A) + c([C,A],B); zero for a genuine 2-cocycle."""
    ab, bc, ca = quotient_bracket(A, B), quotient_bracket(B, C), quotient_bracket(C, A)
    return cyclic_defect(cid, A, B, C, ab, bc, ca)
