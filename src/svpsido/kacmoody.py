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
exponent once, as ints; pairing an element against all of them is then
one walk over the element's monomials, each looked up in that index, and
pairing(mu, A) is the one-point case.  The walk adds into a table of
per-point sums that the caller owns, so two families can sum their terms
into one table.  The sums are int triples, left unreduced (after Monagan
and Pearce: accumulate each output term, normalise late): the family's
zero test reads them as they stand, and a value is reduced and built
only where the caller reads one.  The walks over int triples are
kernels of ring, so this module touches no triple; it hands a symbol's
flat dict to them only as one slot table of an element.

Since j >= 0 needs b >= -1 - a, no order of W below -1 - top(V) is ever
read.  A family records that bound over its points as its floor: W needs
computing no deeper, and a W truncated at or above it leaves every trace
determined.

Every output slot of the bracket and of the coadjoint action is one
table that each of its terms is added into, signs and constants folded
into a factor, and that is wrapped once.  The bracket has one path in
two layers: bracket_tables fills its three slot tables, unreduced, and
g_bracket wraps them.  The bracket's W is the symbol bracket with its
transport terms added into the same dict (psido.bracket_transport_flat);
its central term is read by cocycles.eval_cocycle.  A family pairs the
tables as they stand (DualFamily.add_tables_into), so a caller that only
pairs a bracket, as theorem61 does, never reduces or wraps one; add_into
pairs an element through the same tables, its slots' own dicts.

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

from .cocycles import CocycleId, eval_cocycle
from .halfint import EXACT, floor_of, h, low_of
from .psido import (
    R,
    XI,
    Symbol,
    bracket_transport_flat,
    cap_order,
    file_symbol,
    sym_add,
    sym_sub,
    symbol_from_flat,
)
from .ring import (
    CoeffFn,
    GaussRat,
    I_HALF_OVER_M,
    M,
    TWO_I_M,
    coeff_from_table,
    file_terms,
    mul_into,
    pair_terms_into,
    sum_is_zero,
    sum_value,
    trace_pairs_into,
)
from .svalgebra import SvElement, sv_bracket
from .textio import coeff_str, symbol_str
from . import transforms

__all__ = [
    "SvElement",
    "sv_bracket",
    "GElement",
    "GDual",
    "g_bracket",
    "bracket_tables",
    "DualFamily",
    "pair_value",
    "pairing",
    "embed_I",
    "embed_momentum_symbol",
    "coadjoint",
    "in_invariant_slice",
]


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
        if top is not None and top.twice > 2:
            raise ValueError("the symbol component must have order <= 1")
        object.__setattr__(self, "w", _as_loop(w, "the d_t component"))
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "alpha", _as_loop(alpha, "the central coordinate"))

    def __setattr__(self, *_):
        raise AttributeError("GElement is immutable")

    @classmethod
    def _raw(cls, w: CoeffFn, W: Symbol, alpha: CoeffFn) -> "GElement":
        """Wrap parts that already pass the checks of __init__: t-only
        loops and a space symbol of order at most 1."""
        out = object.__new__(cls)
        _set_w(out, w)
        _set_W(out, W)
        _set_alpha(out, alpha)
        return out

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


# The slots' own setters, as for Symbol: they skip the guard in __setattr__.
_set_w = GElement.__dict__["w"].__set__
_set_W = GElement.__dict__["W"].__set__
_set_alpha = GElement.__dict__["alpha"].__set__


class GDual:
    """Dual triple (v, V, a); V is exact with orders down to -2 at most."""

    __slots__ = ("v", "V", "a")

    def __init__(self, v=None, V: Symbol | None = None, a=None):
        if V is None:
            V = Symbol.zero(R)
        if V.var != R:
            raise ValueError("the dual symbol component lives on the space side")
        if V.low is not EXACT:
            raise ValueError("dual points carry exact symbol data")
        bottom = V.bottom()
        if bottom is not None and bottom.twice < -4:
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


def in_invariant_slice(mu: GDual) -> bool:
    """True when V = V_-2 d^-2 + V_0(t) with a spatially constant V_0."""
    return all(k.twice == -4 or (k.twice == 0 and c.is_t_only())
               for k, c in mu.V.terms.items())


def bracket_tables(A: GElement, B: GElement, c, req_floor) -> tuple:
    """The slot tables (w, flat, low, alpha) of the bracket at central
    charge c, none of them reduced:

        w     = A.w B.w' - A.w' B.w,
        W     = [A.W, B.W] + A.w d_t B.W - B.w d_t A.W,
        alpha = A.w B.alpha' - B.w A.alpha' + c * c3(A.W, B.W),

    primes and d_t being t-derivatives.  Each slot is summed in one table:
    w and alpha as (t, x, M) tables, W as a flat symbol dict with twice
    its floor, low (psido.bracket_transport_flat: the symbol bracket with
    the transport terms added into its dict and its floor raised to the
    floor of each operand's W).  The dict may hold zeros, and transport
    terms below low; g_bracket wraps the tables, and
    DualFamily.add_tables_into pairs them as they stand.
    """
    aw, bw = A.w.terms.items(), B.w.terms.items()
    minus_bw = (-B.w).terms.items() if bw else ()
    flat, low = bracket_transport_flat(A.W, B.W, aw, minus_bw, low_of(req_floor))
    w: dict = {}
    alpha: dict = {}
    if aw and bw:
        mul_into(w, aw, B.w.deriv("T").terms.items())
        mul_into(w, (-A.w.deriv("T")).terms.items(), bw)
    if aw:
        mul_into(alpha, aw, B.alpha.deriv("T").terms.items())
    if minus_bw:
        mul_into(alpha, minus_bw, A.alpha.deriv("T").terms.items())
    central = eval_cocycle(CocycleId.C3, A.W, B.W)
    if central.terms:
        mul_into(alpha, central.terms.items(), _as_scalar(c).terms.items())
    return w, flat, low, alpha


def g_bracket(A: GElement, B: GElement, c, req_floor) -> GElement:
    """Bracket of the extended algebra at central charge c: the slot
    tables of bracket_tables, each wrapped once.  The parts are t-only and
    W has order at most 1 by construction, so the result skips the checks
    of GElement."""
    w, flat, low, alpha = bracket_tables(A, B, c, req_floor)
    return GElement._raw(coeff_from_table(w), symbol_from_flat(R, flat, low),
                         coeff_from_table(alpha))


def _as_scalar(c) -> CoeffFn:
    """A central charge as a CoeffFn, from a constant or a CoeffFn."""
    return c if isinstance(c, CoeffFn) else CoeffFn.const(c)


class DualFamily:
    """A fixed list of dual points, indexed once for pairing in one pass.

    The monomials of every point are filed by slot (v, a, and each order
    of V) under their (t, x) exponents as (point, M-power, a, b, d) ints,
    the reduced triple of the coefficient (a + i*b)/d.  add_tables_into
    then walks the monomials of an element's slot tables once and looks
    up, for each, the point monomials it meets: the loop monomial t^p of w
    or alpha meets t^(-1-p) of v or a (ring.pair_terms_into), and the
    monomial t^p x^q of g_b meets the t^(-1-p) x^(j-1-q) monomial of f_a,
    for j = a + b + 1 >= 0, with the factor binom(a, j) times the falling
    factorial q(q-1)...(q-j+1) that d_x^j puts on x^q, read as an int pair
    from the composition's weight cache (ring.trace_pairs_into, which
    walks W's flat dict and skips its orders below W's floor).  The tables
    are those of bracket_tables, unreduced, or for add_into an element's
    own.  The M-powers of the two monomials add, and each product
    lands in a table point -> M-power -> (a, b, d) that the caller passes
    in, so several walks can sum into one table.  The sums are int
    triples left unreduced: is_zero tests a row for zero as it stands,
    and pair_value reduces each coefficient of a row once, when its value
    is printed or returned.  pair is one walk into a fresh table plus
    that conversion for every point.

    floor is -1 - max top(V) over the points, or EXACT when no point has
    a V: orders of W below it never reach a trace, so it is the shallowest
    floor of W at which every point's trace is determined.  The family
    works with it, and with each point's top, as twice-ints (_low, _tops);
    undetermined_at reads the undetermined points off twice W's floor.
    """

    __slots__ = ("_tops", "_low", "floor", "_v", "_a", "_orders")

    def __init__(self, points):
        points = list(points)
        self._tops = [None if mu.V.is_zero() else mu.V.top().twice for mu in points]
        tops = [top for top in self._tops if top is not None]
        self._low = -2 - max(tops) if tops else EXACT
        self.floor = floor_of(self._low)
        self._v: dict = {}
        self._a: dict = {}
        orders: dict = {}  # twice the order of V -> index of its monomials
        for n, mu in enumerate(points):
            file_terms(self._v, n, mu.v.terms.items())
            file_terms(self._a, n, mu.a.terms.items())
            file_symbol(orders, n, mu.V)
        self._orders = list(orders.items())

    def add_tables_into(self, sums: dict, w: dict, flat: dict, low, alpha: dict) -> None:
        """Add the pairing terms of every point against an element given
        by its slot tables into sums, in the form bracket_tables returns:
        w and alpha as (t, x, M) tables, W as a flat symbol dict with twice
        its floor, low.  The tables need not be reduced; W's terms below
        low are skipped, as the wrap of the dict would drop them."""
        pair_terms_into(sums, w.items(), self._v)
        pair_terms_into(sums, alpha.items(), self._a)
        trace_pairs_into(sums, flat.items(), self._orders, low)

    def add_into(self, A: GElement, sums: dict) -> None:
        """Add the pairing terms of every point against A into sums."""
        self.add_tables_into(sums, A.w.terms, A.W.flat, A.W.low, A.alpha.terms)

    @staticmethod
    def is_zero(row: dict) -> bool:
        """Whether a row of a table (M-power -> sum) pairs to zero."""
        return sum_is_zero(row)

    def undetermined_at(self, low) -> list:
        """The points, in order, whose trace is not determined when W is
        known down to twice-int floor low: orders of W below it are
        unknown, and they reach order -1 of V o W once floor + top(V) > -1."""
        if low is EXACT or self._low is EXACT or low <= self._low:
            return []
        return [n for n, top in enumerate(self._tops) if top is not None and low + top > -2]

    def undetermined(self, A: GElement) -> list:
        """The points, in order, whose trace is not determined at A's
        truncation."""
        return self.undetermined_at(A.W.low)

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
    """The pairing value summed in one row (M-power -> sum) of a
    DualFamily table, each coefficient reduced once."""
    return sum_value(row)


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
    if top is not None and top.twice > 2:
        raise ValueError("the embedding is defined on orders <= 1")
    e1 = E.coeff(1)
    if e1.is_zero():
        w = CoeffFn.zero()
    else:
        # recover the loop function: w = -2iM e1(xi -> it/2M)
        w = -e1.x_to_t(I_HALF_OVER_M) * TWO_I_M
    if nu is None:
        nu = GaussRat(0)
    W = cap_order(transforms.theta_t(E, req_floor, nu=nu), 1)
    return GElement(w, W, None)


def embed_I(X: SvElement, req_floor, nu=None) -> GElement:
    """Embed a symmetry element through the momentum realization."""
    return embed_momentum_symbol(transforms.j_map(X), req_floor, nu=nu)


# ----------------------------------------------------------------- coadjoint

_I_M_QUARTER = GaussRat(0, Fraction(1, 4)) * M
_M2_R2_QUARTER = CoeffFn.x_pow(2) * (Fraction(1, 4) * M ** 2)
_M2 = M ** 2
_M2_R = CoeffFn.x_pow(1) * _M2
_HALF = CoeffFn.const(Fraction(1, 2))
_MINUS_HALF = CoeffFn.const(Fraction(-1, 2))
_MINUS_HALF_R = CoeffFn.x_pow(1) * _MINUS_HALF
_MINUS_TWO = h(-2)
_ZERO_ORDER = h(0)


def _add(row: dict, f: CoeffFn, g: CoeffFn) -> None:
    """Add f*g into the row table."""
    mul_into(row, f.terms.items(), g.terms.items())


def _coadjoint_factors(X: SvElement) -> tuple:
    """The loop factors of coadjoint that X alone fixes, with their signs
    and constants folded in, and the a-sourced factors before the charge
    meets them: (factors of the f family, or None; factors of the g
    family, or None; the a-sourced factor of the V_-2 row over c)."""
    f, g, hh = X.f, X.g, X.h
    f_part = g_part = None
    a_vm2 = CoeffFn.zero()
    if not f.is_zero():
        fd = f.deriv("T")
        fdd = fd.deriv("T")
        f_part = (fdd * _MINUS_HALF, -f, fd * -2, fd * _MINUS_HALF_R, -fd, fd * _HALF)
        a_vm2 = fdd * _I_M_QUARTER - fdd.deriv("T") * _M2_R2_QUARTER
    if not g.is_zero():
        gd = g.deriv("T")
        g_part = (-gd, -g)
        a_vm2 = a_vm2 - gd.deriv("T") * _M2_R
    if not hh.is_zero():
        a_vm2 = a_vm2 - hh.deriv("T") * _M2
    return f_part, g_part, a_vm2


def coadjoint(X: SvElement, mu: GDual, c) -> GDual:
    """Closed-form coadjoint action on the invariant slice.

    Each generator family contributes its displayed rows; the central
    charge c scales every a-sourced term.  The output stays in the slice,
    which the caller can recheck via in_invariant_slice.

    Each output row (v, V_-2, V_0, a) is one table that every product
    adds into, with its sign and constant folded into the loop factor of
    X; the a-sourced terms of the V_-2 row are summed into one loop
    factor first, so a meets them in one product.  The loop factors
    depend on X alone, so they are built once (_coadjoint_factors) and
    kept on X (SvElement.kept); the charge meets them on every call.
    """
    if not in_invariant_slice(mu):
        raise ValueError("coadjoint is defined on the invariant slice only")
    c = _as_scalar(c)
    f_part, g_part, a_vm2 = X.kept(_coadjoint_factors)
    v, a = mu.v, mu.a
    vm2 = mu.V.coeff(_MINUS_TWO)
    v0 = mu.V.coeff(_ZERO_ORDER)
    vm2_x = vm2.deriv("X")
    row_v: dict = {}
    row_vm2: dict = {}
    row_v0: dict = {}
    row_a: dict = {}

    if f_part is not None:
        fdd_minus_half, minus_f, two_fd, fd_minus_half_r, minus_fd, fd_half = f_part
        # res_x(r V_-2) is the r^-2 slice of V_-2
        _add(row_v, fdd_minus_half, vm2.x_slice(-2))
        _add(row_v, minus_f, v.deriv("T"))
        _add(row_v, two_fd, v)
        _add(row_vm2, minus_f, vm2.deriv("T"))
        _add(row_vm2, fd_minus_half_r, vm2_x)
        _add(row_vm2, two_fd, vm2)
        _add(row_v0, minus_f, v0.deriv("T"))
        _add(row_v0, minus_fd, v0)
        _add(row_v0, a, fd_half * c)
        _add(row_a, minus_fd, a)
        _add(row_a, minus_f, a.deriv("T"))

    if g_part is not None:
        minus_gd, minus_g = g_part
        _add(row_v, minus_gd, vm2.residue("X"))
        _add(row_vm2, minus_g, vm2_x)

    _add(row_vm2, a, a_vm2 * c)
    terms: dict = {}
    if row_vm2:
        terms[_MINUS_TWO] = coeff_from_table(row_vm2)
    if row_v0:
        terms[_ZERO_ORDER] = coeff_from_table(row_v0)
    return GDual(coeff_from_table(row_v), Symbol(R, terms), coeff_from_table(row_a))
