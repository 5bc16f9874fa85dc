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
its central term is c3's residue table (cocycles.cocycle_into), which
meets the charge in alpha's table.  A family pairs the tables as they
stand (DualFamily.add_tables_into), so a caller that only pairs a
bracket, as theorem61 and nu-scan do, never reduces or wraps one;
add_into pairs an element through the same tables, its slots' own
dicts.

The invariant slice kept by the coadjoint action consists of points with
V = V_-2(t,r) d^-2 + V_0(t): free-evolution multiples plus a potential,
with the d^0 part spatially constant.  GDual.of_slots, which builds such
a point from its slot values (v, V_-2, V_0, a), is the one place that
knows this layout; GDual.slots reads it back.

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

from .cocycles import CocycleId, cocycle_into
from .halfint import EXACT, floor_of, low_of
from .psido import (
    R,
    XI,
    Symbol,
    bracket_transport_flat,
    cap_order,
    symbol_from_flat,
)
from .ring import (
    CoeffFn,
    GaussRat,
    HALF,
    I_HALF_OVER_M,
    I_M_QUARTER,
    M2,
    TWO_I_M,
    Value,
    _rebuilt,
    _set_kept,
    coeff_from_table,
    coeff_of,
    file_flat,
    file_terms,
    loop_of,
    mul_into,
    pair_terms_into,
    product_into,
    sum_value,
    trace_pairs_into,
)
from .svalgebra import SvElement, sv_bracket
from . import transforms

__all__ = [
    "SvElement",
    "sv_bracket",
    "GElement",
    "GDual",
    "g_bracket",
    "bracket_tables",
    "DualFamily",
    "pairing",
    "embed_I",
    "embed_momentum_symbol",
    "coadjoint",
    "in_invariant_slice",
]


class GElement(Value):
    """Triple (w, W, alpha): reparametrization, capped symbol loop, center."""

    __slots__ = ("w", "W", "alpha")

    def __init__(self, w=None, W: Symbol | None = None, alpha=None):
        if W is None:
            W = Symbol.zero(R)
        if W.var != R:
            raise ValueError("the symbol component lives on the space side")
        if W.flat and max(W.flat)[0] > 2:
            raise ValueError("the symbol component must have order <= 1")
        object.__setattr__(self, "w", loop_of(w, "the d_t component"))
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "alpha", loop_of(alpha, "the central coordinate"))


class GDual(Value):
    """Dual triple (v, V, a); V is exact with orders down to -2 at most."""

    __slots__ = ("v", "V", "a")

    def __init__(self, v=None, V: Symbol | None = None, a=None):
        if V is None:
            V = Symbol.zero(R)
        if V.var != R:
            raise ValueError("the dual symbol component lives on the space side")
        if V.low is not EXACT:
            raise ValueError("dual points carry exact symbol data")
        if V.flat and min(V.flat)[0] < -4:
            raise ValueError("dual symbol orders reach down to -2 only")
        object.__setattr__(self, "v", loop_of(v, "the dt^2 component"))
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "a", loop_of(a, "the central dual component"))

    @classmethod
    def of_slots(cls, v=None, vm2=None, v0=None, a=None) -> "GDual":
        """The slice point (v, V_-2 d^-2 + V_0, a) from its slot values,
        None for zero: the one place that puts V_-2 and V_0 at V's orders
        -2 and 0, in that order.  V_-2 and V_0 are coerced as Symbol's
        constructor coerces a coefficient, and v and a are checked with
        the texts of __init__; V is exact with orders -2 and 0 only, so it
        is wrapped, and the point rebuilt, past the checks (ring._rebuilt)."""
        flat: dict = {}
        for ot, c in ((-4, vm2), (0, v0)):
            if c is not None:
                for (p, q, m), val in coeff_of(c).terms.items():
                    flat[(ot, p, q, m)] = val
        V = Symbol._raw(R, flat, EXACT)
        _set_kept(V, {})  # built to be read back (slots): see ring.Value
        return _rebuilt(cls, (loop_of(v, "the dt^2 component"), V,
                              loop_of(a, "the central dual component")))

    def slots(self) -> tuple:
        """(V_-2, V_0): V's coefficients of orders -2 and 0, zero where
        absent, read from the rows() view that V keeps."""
        rows, zero = self.V.rows(), CoeffFn.zero()
        return rows.get(-4, zero), rows.get(0, zero)


def in_invariant_slice(mu: GDual) -> bool:
    """True when V = V_-2 d^-2 + V_0(t) with a spatially constant V_0."""
    return all(o == -4 or (o == 0 and c.is_t_only()) for o, c in mu.V.rows().items())


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
    minus_bw = -B.w if bw else B.w
    flat, low = bracket_transport_flat(A.W, B.W, aw, minus_bw.terms.items(), low_of(req_floor))
    w: dict = {}
    alpha: dict = {}
    # a loop's derivative is taken only where its factor is nonzero
    if aw and bw:
        product_into(w, A.w, B.w.deriv("T"))
        product_into(w, -A.w.deriv("T"), B.w)
    if aw and B.alpha.terms:
        product_into(alpha, A.w, B.alpha.deriv("T"))
    if bw and A.alpha.terms:
        product_into(alpha, minus_bw, A.alpha.deriv("T"))
    # c3's residue table, unreduced, meets the charge in alpha's table
    c3: dict = {}
    cocycle_into(c3, CocycleId.C3, A.W, B.W)
    charge = coeff_of(c).terms
    if c3 and charge:
        mul_into(alpha, charge.items(), c3.items())
    return w, flat, low, alpha


def g_bracket(A: GElement, B: GElement, c, req_floor) -> GElement:
    """Bracket of the extended algebra at central charge c: the slot
    tables of bracket_tables, each wrapped once.  The parts are t-only and
    W has order at most 1 by construction, so the result is rebuilt from
    them past the checks of GElement (ring._rebuilt), as GDual.of_slots,
    the one place that knows the slice layout, builds a dual point."""
    w, flat, low, alpha = bracket_tables(A, B, c, req_floor)
    return _rebuilt(GElement, (coeff_from_table(w), symbol_from_flat(R, flat, low),
                               coeff_from_table(alpha)))


class DualFamily:
    """A fixed list of dual points, indexed once for pairing in one pass.

    The monomials of every point are filed by slot (v, a, and each order
    of V) under their (t, x) exponents as (point, M-power, a, b, d) ints,
    the reduced triple of the coefficient (a + i*b)/d, by ring.file_terms
    and, from V's flat dict, ring.file_flat.  add_tables_into
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
    triples left unreduced: ring.sum_is_zero tests a row for zero as it
    stands, and ring.sum_value reduces each coefficient of a row once,
    when its value is printed or returned.  pair is one walk into a fresh
    table plus that conversion for every point.

    floor is -1 - max top(V) over the points, or EXACT when no point has
    a V: orders of W below it never reach a trace, so it is the shallowest
    floor of W at which every point's trace is determined.  The family
    works with it, and with each point's top, as twice-ints (_low, _tops);
    undetermined_at reads the undetermined points off twice W's floor.
    """

    __slots__ = ("_tops", "_low", "floor", "_v", "_a", "_orders")

    def __init__(self, points):
        points = list(points)
        self._tops = [max(mu.V.flat)[0] if mu.V.flat else None for mu in points]
        tops = [top for top in self._tops if top is not None]
        self._low = -2 - max(tops) if tops else EXACT
        self.floor = floor_of(self._low)
        self._v: dict = {}
        self._a: dict = {}
        orders: dict = {}  # twice the order of V -> index of its monomials
        for n, mu in enumerate(points):
            file_terms(self._v, n, mu.v.terms.items())
            file_terms(self._a, n, mu.a.terms.items())
            file_flat(orders, n, mu.V.flat.items())
        self._orders = list(orders.items())

    def add_tables_into(self, sums: dict, w: dict, flat: dict, low, alpha: dict) -> None:
        """Add the pairing terms of every point against an element given
        by its slot tables into sums, in the form bracket_tables returns:
        w and alpha as (t, x, M) tables, W as a flat symbol dict with twice
        its floor, low.  The tables need not be reduced; W's terms below
        low are skipped, as the wrap of the dict would drop them.  An
        empty table, or one whose slot no point fills, is not walked."""
        if w and self._v:
            pair_terms_into(sums, w.items(), self._v)
        if alpha and self._a:
            pair_terms_into(sums, alpha.items(), self._a)
        if flat and self._orders:
            trace_pairs_into(sums, flat.items(), self._orders, low)

    def add_into(self, A: GElement, sums: dict) -> None:
        """Add the pairing terms of every point against A into sums."""
        self.add_tables_into(sums, A.w.terms, A.W.flat, A.W.low, A.alpha.terms)

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
            out[n] = sum_value(row)
        for n in self.undetermined(A):
            out[n] = None
        return out


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
    if E.flat and max(E.flat)[0] > 2:
        raise ValueError("the embedding is defined on orders <= 1")
    e1 = E.rows().get(2)
    if e1 is None:
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

_M2_R2_QUARTER = CoeffFn.x_pow(2, Fraction(1, 4)) * M2
_M2_R = CoeffFn.x_pow(1) * M2
_MINUS_HALF = -HALF
_MINUS_HALF_R = CoeffFn.x_pow(1) * _MINUS_HALF


def _coadjoint_factors(X: SvElement) -> tuple:
    """The loop factors of coadjoint that X alone fixes, with their signs
    and constants folded in, zero where X lacks a family: six of the f
    family, two of the g family, and the a-sourced factor of the V_-2 row
    over c, before the charge meets it."""
    f, g = X.f, X.g
    fd, gd = f.deriv("T"), g.deriv("T")
    fdd = fd.deriv("T")
    a_vm2 = (fdd * I_M_QUARTER - fdd.deriv("T") * _M2_R2_QUARTER - gd.deriv("T") * _M2_R
             - X.h.deriv("T") * M2)
    return (fdd * _MINUS_HALF, -f, fd * -2, fd * _MINUS_HALF_R, -fd, fd * HALF, -gd, -g, a_vm2)


def coadjoint(X: SvElement, mu: GDual, c) -> GDual:
    """Closed-form coadjoint action on the invariant slice.

    Each generator family contributes its displayed rows; the central
    charge c scales every a-sourced term.  The output stays in the slice,
    which the caller can recheck via in_invariant_slice.

    Each output row (v, V_-2, V_0, a) is one table that every product
    adds into (ring.product_into), with its sign and constant folded into
    the loop factor of X; the a-sourced terms of the V_-2 row are summed
    into one loop factor first, so a meets them in one product.  The loop
    factors depend on X alone, so they are built once (_coadjoint_factors)
    and kept on X (Value.kept); the charge meets them on every call.  A
    derivative, slice or residue of a slot of mu, and a factor that folds
    in the charge, is taken only where a product will read it.
    """
    if not in_invariant_slice(mu):
        raise ValueError("coadjoint is defined on the invariant slice only")
    c = coeff_of(c)
    (fdd_minus_half, minus_f, two_fd, fd_minus_half_r, minus_fd, fd_half, minus_gd, minus_g,
     a_vm2) = X.kept(_coadjoint_factors)
    v, a = mu.v, mu.a
    vm2, v0 = mu.slots()
    row_v: dict = {}
    row_vm2: dict = {}
    row_v0: dict = {}
    row_a: dict = {}
    has_f, has_g = minus_f.terms, minus_g.terms

    if v.terms and has_f:
        product_into(row_v, minus_f, v.deriv("T"))
        product_into(row_v, two_fd, v)

    if vm2.terms:
        vm2_x = vm2.deriv("X")
        if has_f:
            # res_x(r V_-2) is the r^-2 slice of V_-2
            product_into(row_v, fdd_minus_half, vm2.x_slice(-2))
            product_into(row_vm2, minus_f, vm2.deriv("T"))
            product_into(row_vm2, fd_minus_half_r, vm2_x)
            product_into(row_vm2, two_fd, vm2)
        if has_g:
            product_into(row_v, minus_gd, vm2.residue("X"))
            product_into(row_vm2, minus_g, vm2_x)

    if v0.terms and has_f:
        product_into(row_v0, minus_f, v0.deriv("T"))
        product_into(row_v0, minus_fd, v0)

    if a.terms:
        if has_f:
            product_into(row_v0, a, fd_half * c)
            product_into(row_a, minus_fd, a)
            product_into(row_a, minus_f, a.deriv("T"))
        if a_vm2.terms:
            product_into(row_vm2, a, a_vm2 * c)

    return GDual.of_slots(coeff_from_table(row_v), coeff_from_table(row_vm2),
                          coeff_from_table(row_v0), coeff_from_table(row_a))
