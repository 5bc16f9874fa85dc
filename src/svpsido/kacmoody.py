"""Loop-extended symbol algebra, its dual, and the coadjoint machinery.

An element is a triple (w, W, alpha): a reparametrization w(t) d_t, a loop
of capped space symbols W (top order at most 1), and a central coordinate
alpha(t).  The dual point is a triple (v, V, a) pairing against it by

    <(v, V, a), (w, W, alpha)> = res_t [ v w + Tr(V o W) + a alpha ].

Only the order -1 slot of V o W enters the trace, so with V = sum f_a d^a
and W = sum g_b d^b the pairing is the bilinear residue sum

    [t^-1](v w + a alpha)
      + sum_{a, b, j = a+b+1 >= 0} binom(a, j) [t^-1 x^-1](f_a d_x^j g_b),

read off coefficient by coefficient without composing the symbols.  A
DualFamily files the monomials of a fixed list of points by slot and
exponent once; pairing an element against all of them is then one walk
over the element's monomials, each looked up in that index, and
pairing(mu, A) is the one-point case.  The walk adds into a table of
per-point sums that the caller owns, so two families can sum their terms
into one table and a value is built only where the caller reads one.

Since j >= 0 needs b >= -1 - a, no order of W below -1 - top(V) is ever
read.  A family records that bound over its points as its floor: W needs
computing no deeper, and a W truncated at or above it leaves every trace
determined.

The invariant slice kept by the coadjoint action consists of points with
V = V_-2(t,r) d^-2 + V_0(t): free-evolution multiples plus a potential,
with the d^0 part spatially constant.

The embedding of the symmetry algebra composes the momentum realization
with the shifted transform and caps the result at order 1; the order-2
term it removes reappears as the -f(t) d_t component, which is the whole
point of the construction.

Conventions fixed once:
  * central charge c multiplies the function-valued cocycle
    res_r(W1_top' W2_low - W2_top' W1_low) in the bracket's alpha slot;
  * the coadjoint operator is adjoint to the bracket with a global minus
    sign, so pairing(coadjoint(X, mu), Y) + pairing(mu, [I(X), Y]) = 0;
  * the r-integral moments in the closed formulas are r-residues.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .halfint import EXACT, h
from .psido import (
    R,
    XI,
    Symbol,
    binom_half,
    cap_order,
    raise_floor,
    sym_add,
    sym_bracket,
    sym_scale,
    sym_sub,
    time_deriv,
)
from .ring import CoeffFn, GaussRat, I_HALF_OVER_M, M, MINUS_2I_M, TWO_I_M
from .svalgebra import SvElement, sv_bracket
from .textio import coeff_str, symbol_str
from . import transforms

__all__ = [
    "SvElement",
    "sv_bracket",
    "GElement",
    "GDual",
    "g_bracket",
    "DualFamily",
    "pair_value",
    "pairing",
    "embed_I",
    "embed_momentum_symbol",
    "coadjoint",
    "coadjoint_duality_defect",
    "quotient_nullity_defect",
    "in_invariant_slice",
]

_ONE = h(1)
_MINUS_ONE = h(-1)
_MINUS_TWO = h(-2)


def _as_loop(c, what: str) -> CoeffFn:
    if c is None:
        return CoeffFn.zero()
    if not isinstance(c, CoeffFn):
        c = CoeffFn.const(c)
    if not c.is_t_only():
        raise ValueError(f"{what} must not depend on r")
    return c


class GElement:
    """Triple (w, W, alpha): reparametrization, capped symbol loop, center."""

    __slots__ = ("w", "W", "alpha")

    def __init__(self, w=None, W: Symbol | None = None, alpha=None):
        if W is None:
            W = Symbol.zero(R)
        if W.var != R:
            raise ValueError("the symbol component lives on the space side")
        top = W.top()
        if top is not None and top > _ONE:
            raise ValueError("the symbol component must have order <= 1")
        object.__setattr__(self, "w", _as_loop(w, "the d_t component"))
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "alpha", _as_loop(alpha, "the central coordinate"))

    def __setattr__(self, *_):
        raise AttributeError("GElement is immutable")

    def is_zero(self) -> bool:
        return self.w.is_zero() and self.W.is_zero() and self.alpha.is_zero()

    def __eq__(self, other):
        if not isinstance(other, GElement):
            return NotImplemented
        return self.w == other.w and self.W == other.W and self.alpha == other.alpha

    def __str__(self):
        return f"({coeff_str(self.w)} | {symbol_str(self.W)} | {coeff_str(self.alpha)})"

    __repr__ = __str__

    def add(self, other: "GElement") -> "GElement":
        return GElement(self.w + other.w, sym_add(self.W, other.W), self.alpha + other.alpha)

    def sub(self, other: "GElement") -> "GElement":
        return GElement(self.w - other.w, sym_sub(self.W, other.W), self.alpha - other.alpha)


class GDual:
    """Dual triple (v, V, a); V is exact with orders down to -2 at most."""

    __slots__ = ("v", "V", "a")

    def __init__(self, v=None, V: Symbol | None = None, a=None):
        if V is None:
            V = Symbol.zero(R)
        if V.var != R:
            raise ValueError("the dual symbol component lives on the space side")
        if V.floor is not EXACT:
            raise ValueError("dual points carry exact symbol data")
        bottom = V.bottom()
        if bottom is not None and bottom < _MINUS_TWO:
            raise ValueError("dual symbol orders reach down to -2 only")
        object.__setattr__(self, "v", _as_loop(v, "the dt^2 component"))
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "a", _as_loop(a, "the central dual component"))

    def __setattr__(self, *_):
        raise AttributeError("GDual is immutable")

    def is_zero(self) -> bool:
        return self.v.is_zero() and self.V.is_zero() and self.a.is_zero()

    def __eq__(self, other):
        if not isinstance(other, GDual):
            return NotImplemented
        return self.v == other.v and self.V == other.V and self.a == other.a

    def __str__(self):
        return f"({coeff_str(self.v)} | {symbol_str(self.V)} | {coeff_str(self.a)})"

    __repr__ = __str__

    def add(self, other: "GDual") -> "GDual":
        return GDual(self.v + other.v, sym_add(self.V, other.V), self.a + other.a)

    def sub(self, other: "GDual") -> "GDual":
        return GDual(self.v - other.v, sym_sub(self.V, other.V), self.a - other.a)


def in_invariant_slice(mu: GDual) -> bool:
    """True when V = V_-2 d^-2 + V_0(t) with a spatially constant V_0."""
    for k, c in mu.V.terms.items():
        if k == _MINUS_TWO:
            continue
        if k == h(0):
            if not c.is_t_only():
                return False
            continue
        return False
    return True


def g_bracket(A: GElement, B: GElement, c, req_floor) -> GElement:
    """Bracket of the extended algebra at central charge c."""
    from .cocycles import CocycleId, eval_cocycle

    floor = h(req_floor)
    w = A.w * B.w.deriv("T") - A.w.deriv("T") * B.w
    W = sym_bracket(A.W, B.W, floor)
    # a term scaled by a zero loop is a zero that keeps its floor
    if not A.w.is_zero():
        W = sym_add(W, sym_scale(time_deriv(B.W), A.w))
    elif B.W.floor is not EXACT:
        W = raise_floor(W, B.W.floor)
    if not B.w.is_zero():
        W = sym_sub(W, sym_scale(time_deriv(A.W), B.w))
    elif A.W.floor is not EXACT:
        W = raise_floor(W, A.W.floor)
    alpha = A.w * B.alpha.deriv("T") - B.w * A.alpha.deriv("T")
    central = eval_cocycle(CocycleId.C3, A.W, B.W)
    alpha = alpha + central * c
    return GElement(w, W, alpha)


class DualFamily:
    """A fixed list of dual points, indexed once for pairing in one pass.

    The monomials of every point are filed by slot (v, a, and each order
    of V) under their (t, x) exponents, each with its M-power.  add_into
    then walks the monomials of an element once and looks up, for each,
    the point monomials it meets: the loop monomial t^p of w or alpha
    meets t^(-1-p) of v or a, and the monomial t^p x^q of g_b meets the
    t^(-1-p) x^(j-1-q) monomial of f_a, for j = a + b + 1 >= 0, with the
    factor binom(a, j) times the falling factorial q(q-1)...(q-j+1) that
    d_x^j puts on x^q.  The M-powers of the two monomials add, and each
    product lands in a table point -> M-power -> coefficient that the
    caller passes in, so several walks can sum into one table; pair_value
    turns a row of it into the pairing value.  pair is one walk into a
    fresh table plus that conversion for every point.

    floor is -1 - max top(V) over the points, or EXACT when no point has
    a V: orders of W below it never reach a trace, so it is the shallowest
    floor of W at which every point's trace is determined.
    """

    __slots__ = ("_tops", "floor", "_v", "_a", "_orders")

    def __init__(self, points):
        points = list(points)
        self._tops = [mu.V.top() for mu in points]  # None where V is zero
        tops = [top for top in self._tops if top is not None]
        self.floor = _MINUS_ONE - max(tops) if tops else EXACT
        self._v: dict = {}
        self._a: dict = {}
        orders: dict = {}
        for n, mu in enumerate(points):
            for index, f in ((self._v, mu.v), (self._a, mu.a)):
                _file(index, n, f)
            for a, f in mu.V.terms.items():
                _file(orders.setdefault(a, {}), n, f)
        self._orders = list(orders.items())

    def add_into(self, A: GElement, sums: dict) -> None:
        """Add the pairing terms of every point against A into sums."""
        for index, g in ((self._v, A.w), (self._a, A.alpha)):
            for (p, q, e), d in g.terms.items():
                for n, m, c in index.get((-1 - p, -q), ()):
                    _collect(sums, n, m + e, c * d)
        for b, g in A.W.terms.items():
            for a, index in self._orders:
                j = (a.twice + b.twice) // 2 + 1  # orders on the space side are integers
                if j < 0:
                    continue
                coef = binom_half(a, j)
                if coef.is_zero():
                    continue
                for (p, q, e), d in g.terms.items():
                    hits = index.get((-1 - p, j - 1 - q))
                    if hits is None:
                        continue
                    ff = prod(range(q - j + 1, q + 1))
                    if not ff:
                        continue
                    d_ff = d * (coef * ff)
                    for n, m, c in hits:
                        _collect(sums, n, m + e, c * d_ff)

    def undetermined(self, A: GElement) -> list:
        """The points, in order, whose trace is not determined at A's
        truncation: orders of W below its floor are unknown, and they
        reach order -1 of V o W once W.floor + top(V) > -1."""
        floor = A.W.floor
        if floor is EXACT or self.floor is EXACT or floor <= self.floor:
            return []
        tops = enumerate(self._tops)
        return [n for n, top in tops if top is not None and floor + top > _MINUS_ONE]

    def pair(self, A: GElement) -> list:
        """pairing(mu, A) for every point mu, in order; None where the
        trace is not determined at A's truncation."""
        sums: dict = {}
        self.add_into(A, sums)
        out = [CoeffFn.zero()] * len(self._tops)
        for n, row in sums.items():
            out[n] = pair_value(row)
        for n in self.undetermined(A):
            out[n] = None
        return out


def pair_value(row: dict) -> CoeffFn:
    """The pairing value summed in one row (M-power -> coefficient) of a
    DualFamily table."""
    return CoeffFn({(0, 0, m): c for m, c in row.items()})


def _file(index: dict, n: int, f: CoeffFn) -> None:
    """File the monomials of point n's slot value f under (t, x)."""
    for (p, q, m), c in f.terms.items():
        index.setdefault((p, q), []).append((n, m, c))


def _collect(sums: dict, n: int, m: int, c: GaussRat) -> None:
    """Add c*M^m to the running sum of point n."""
    row = sums.get(n)
    if row is None:
        sums[n] = {m: c}
        return
    s = row.get(m)
    row[m] = c if s is None else s + c


def pairing(mu: GDual, A: GElement) -> CoeffFn:
    """res_t [ v w + Tr(V o W) + a alpha ], as a bilinear residue sum.

    Tr(V o W) is res_x of the order -1 coefficient of V o W, to which only
    the Leibniz terms j = a + b + 1 >= 0 contribute:

        pairing = [t^-1](v w + a alpha)
                  + sum_{a in V, b in W, j = a+b+1 >= 0}
                        binom(a, j) [t^-1 x^-1](f_a d_x^j g_b).

    The sum is read off a one-point DualFamily: each monomial of A is
    looked up in the monomial index of mu.  Orders of W below its floor
    are unknown; they reach order -1 of the product once
    W.floor + top(V) > -1, and then the trace is refused.
    """
    (out,) = DualFamily((mu,)).pair(A)
    if out is None:
        raise ValueError("trace not determined at this truncation")
    return out


# ----------------------------------------------------------------- embedding


def embed_momentum_symbol(E: Symbol, req_floor, nu=None) -> GElement:
    """Lift a momentum symbol: shifted transform capped at order 1, with
    the removed order-2 information reappearing as the d_t component.

    The optional nu deforms the transform underneath; the loop component
    is read off the order-1 slot either way.
    """
    if E.var != XI:
        raise ValueError("the embedding starts from momentum symbols")
    top = E.top()
    if top is not None and top > _ONE:
        raise ValueError("the embedding is defined on orders <= 1")
    floor = h(req_floor)
    e1 = E.coeff(_ONE)
    if e1.is_zero():
        w = CoeffFn.zero()
    else:
        # recover the loop function: w = -2iM e1(xi -> it/2M)
        w = -e1.x_to_t(I_HALF_OVER_M) * TWO_I_M
    if nu is None:
        nu = GaussRat(0)
    W = cap_order(transforms.theta_t(E, floor, nu=nu), _ONE)
    return GElement(w, W, None)


def embed_I(X: SvElement, req_floor, nu=None) -> GElement:
    """Embed a symmetry element through the momentum realization."""
    return embed_momentum_symbol(transforms.j_map(X), req_floor, nu=nu)


# ----------------------------------------------------------------- coadjoint

_I_M_QUARTER = GaussRat(0, Fraction(1, 4)) * M
_M2_QUARTER = Fraction(1, 4) * M ** 2
_M2 = M ** 2
_HALF = CoeffFn.const(Fraction(1, 2))


def coadjoint(X: SvElement, mu: GDual, c) -> GDual:
    """Closed-form coadjoint action on the invariant slice.

    Each generator family contributes its displayed rows; the central
    charge c scales every a-sourced term.  The output stays in the slice,
    which the caller can recheck via in_invariant_slice.
    """
    if not in_invariant_slice(mu):
        raise ValueError("coadjoint is defined on the invariant slice only")
    v, a = mu.v, mu.a
    vm2 = mu.V.coeff(_MINUS_TWO)
    v0 = mu.V.coeff(h(0))
    r1 = CoeffFn.x_pow(1)
    r2 = CoeffFn.x_pow(2)

    out_v = CoeffFn.zero()
    out_vm2 = CoeffFn.zero()
    out_v0 = CoeffFn.zero()
    out_a = CoeffFn.zero()

    f = X.f
    if not f.is_zero():
        fd = f.deriv("T")
        fdd = fd.deriv("T")
        fddd = fdd.deriv("T")
        out_v = out_v - fdd * (r1 * vm2).residue("X") * _HALF - (f * v.deriv("T") + fd * v * 2)
        out_vm2 = (
            out_vm2
            - f * vm2.deriv("T")
            - fd * (r1 * vm2.deriv("X") + vm2 * 4) * _HALF
            + a * (fdd * _I_M_QUARTER - fddd * r2 * _M2_QUARTER) * c
        )
        out_v0 = out_v0 - f * v0.deriv("T") - fd * v0 + a * fd * (c * _HALF)
        out_a = out_a - (a * fd + f * a.deriv("T"))

    g = X.g
    if not g.is_zero():
        gd = g.deriv("T")
        gdd = gd.deriv("T")
        out_v = out_v - gd * vm2.residue("X")
        out_vm2 = out_vm2 - g * vm2.deriv("X") - a * gdd * r1 * (c * _M2)

    hh = X.h
    if not hh.is_zero():
        out_vm2 = out_vm2 - a * hh.deriv("T") * (c * _M2)

    terms: dict = {}
    if not out_vm2.is_zero():
        terms[_MINUS_TWO] = out_vm2
    if not out_v0.is_zero():
        terms[h(0)] = out_v0
    return GDual(out_v, Symbol(R, terms), out_a)


def coadjoint_duality_defect(X: SvElement, mu: GDual, testY: GElement, c, req_floor) -> CoeffFn:
    """pairing(ad*_X mu, Y) + pairing(mu, [I(X), Y]); zero when dual."""
    lhs = pairing(coadjoint(X, mu, c), testY)
    rhs = pairing(mu, g_bracket(embed_I(X, req_floor), testY, c, req_floor))
    return lhs + rhs


def quotient_nullity_defect(f: CoeffFn, kappa, mu: GDual, testY: GElement, req_floor) -> CoeffFn:
    """Coupling of an embedded low-order symbol against the slice.

    Elements f(-2iM xi) d_xi^kappa with kappa <= -1/2 embed with no d_t
    part and symbol orders <= 2 kappa + (shift corrections) <= 1; their
    bracket against any test element pairs to zero on the invariant
    slice, which is what lets the action quotient to the symmetry
    algebra.  Central terms vanish structurally here (the top slot of the
    embedded symbol is empty or spatially constant), so no charge
    parameter is needed.
    """
    kap = h(kappa)
    if kap > h("-1/2"):
        raise ValueError("quotient directions have order <= -1/2")
    if not f.is_t_only():
        raise ValueError("the datum is a loop function")
    if not in_invariant_slice(mu):
        raise ValueError("the nullity statement lives on the invariant slice")
    floor = h(req_floor)
    E = Symbol(XI, {kap: f.t_to_x(MINUS_2I_M)})
    lifted = embed_momentum_symbol(E, floor)
    return pairing(mu, g_bracket(lifted, testY, GaussRat(2), floor))
