"""Truncated formal pseudodifferential symbols in one space variable.

A ``Symbol`` is a finite sum  sum_k  c_k(t, x) * d^k  with orders k in
(1/2)Z, together with a validity floor: orders at or above the floor are
exact, orders below it are unknown (already discarded).  A floor of EXACT
(None) asserts that every order below the stored support vanishes
identically.

A symbol stores its terms in one flat dict, ``flat``, from an int monomial
(twice the order, t-power, x-power, M-power) to the reduced int triple
(a, b, d) of a nonzero Gaussian rational (a + i*b)/d, with d > 0 and
gcd(a, b, d) = 1, and nothing below the floor, after sympy's
``PolyElement`` over ``ZZ_I`` and the packed exponent vectors of Monagan
and Pearce.  Composition, the transform, equality and the linear
operations read and write that dict directly, as plain int data.  Only
this module, ring and transforms know the format; every other module
reads a symbol through its accessors, which hand out GaussRat values:
``terms``, a read-only view of the same terms as order -> CoeffFn, built
on its first read and kept, for printing and for callers that want whole
coefficients; ``coeff``, which reads that view; and ``sole_term``.  A
triple becomes a GaussRat only there, where a CoeffFn or a calculator
monomial is built.  The dual pairing reads the dict through
``file_symbol`` and ``pair_symbol_into``, which hand it to ring's trace
pairing kernels and build no GaussRat.

Composition uses the generalized Leibniz rule

    (f d^a) o (g d^b)  =  sum_{j>=0}  binom(a, j) * f * (d/dx)^j(g) * d^(a+b-j)

with binom(a, j) = a(a-1)...(a-j+1)/j! computed exactly for a in (1/2)Z.
On a monomial g = v x^q the j-th derivative is (q)_j v x^(q-j), with
(q)_j the falling factorial, so no derivative is ever taken:
ring.leibniz_rows runs one loop over pairs of a left and a right term,
reads the weight binom(a, j) (q)_j from a cache of reduced int pairs, and
adds every term into the one flat dict of the result.
For nonnegative integer a, or for g polynomial in x, the sum terminates by
itself; otherwise it is an honest infinite tail and must be cut, which the
floor records.

Floor bookkeeping is the central soundness device: a missing tail of A
(orders < A.floor) multiplied by the top order of B can pollute every
output order below A.floor + B.top, so

    result.floor = max(req_floor, A.floor + B.top, B.floor + A.top)

with EXACT acting as -infinity.  Orders at or above the result floor are
computed in full and are exact.  A zero operand counts with its floor in
place of its top: only an EXACT zero annihilates the product.

The variable tag is "R" (integer orders only) or "XI" (half-integer orders
allowed).  Symbols are immutable; every operation is pure.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .halfint import EXACT, HalfInt, h, hmax
from .ring import (
    CoeffFn,
    GaussRat,
    add_triples,
    coeff_from_table,
    file_flat,
    gauss_of,
    leibniz_rows,
    trace_pairs_into,
    transport_into,
    triple_of,
)

__all__ = [
    "R",
    "XI",
    "Symbol",
    "sym_add",
    "sym_sub",
    "sym_neg",
    "sym_mul",
    "compose_flat",
    "symbol_from_flat",
    "sym_bracket",
    "bracket_transport",
    "adler_trace",
    "file_symbol",
    "pair_symbol_into",
    "differential_part",
    "cap_order",
    "eq_trusted",
    "binom_half",
    "binom_twice",
]

R = "R"
XI = "XI"

_H0 = HalfInt(0)
_ZERO = CoeffFn.zero()


class Symbol:
    """Truncated symbol: variable tag, flat term dict, floor.

    flat maps (twice the order, t, x, M) to the reduced int triple of a
    nonzero GaussRat and holds no order below the floor.  A fourth slot,
    _view, holds the terms property once it is first read; the flat dict
    never changes after wrapping, so the view never goes stale.  Equality
    ignores it.
    """

    __slots__ = ("var", "flat", "floor", "_view")

    def __init__(self, var: str, terms: dict, floor=EXACT):
        if var not in (R, XI):
            raise ValueError(f"unknown variable tag {var!r}")
        if floor is not EXACT:
            floor = h(floor)
        flat: dict = {}
        for k, c in terms.items():
            k = h(k)
            if var == R and not k.is_integer:
                raise ValueError("half-integer order in an R-variable symbol")
            if floor is not EXACT and k < floor:
                continue
            if isinstance(c, (int, Fraction, GaussRat)):
                c = CoeffFn.const(c)
            kt = k.twice
            for (p, q, m), v in c.terms.items():
                flat[(kt, p, q, m)] = triple_of(v)
        _set_var(self, var)
        _set_flat(self, flat)
        _set_floor(self, floor)
        _set_view(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("Symbol is immutable")

    @classmethod
    def _raw(cls, var: str, flat: dict, floor) -> "Symbol":
        """Wrap a flat dict that is already clean, without copying it:
        orders fit for var, nonzero reduced triples, no order below floor."""
        sym = object.__new__(cls)
        _set_var(sym, var)
        _set_flat(sym, flat)
        _set_floor(sym, floor)
        _set_view(sym, None)
        return sym

    # ---- constructors ----------------------------------------------------

    @staticmethod
    def zero(var: str) -> "Symbol":
        return Symbol(var, {})

    @staticmethod
    def monomial(var: str, order, coeff, floor=EXACT) -> "Symbol":
        """coeff * d^order, coeff a CoeffFn (or constant)."""
        return Symbol(var, {h(order): coeff}, floor)

    @staticmethod
    def function(var: str, coeff) -> "Symbol":
        """A multiplication operator: coeff * d^0."""
        return Symbol(var, {_H0: coeff})

    @staticmethod
    def one_term(var: str, ot: int, p: int, q: int, m: int, g: GaussRat) -> "Symbol":
        """The exact symbol g t^p x^q M^m d^(ot/2), from twice its order
        (fit for var) and a nonzero GaussRat."""
        return Symbol._raw(var, {(ot, p, q, m): triple_of(g)}, EXACT)

    # ---- queries ------------------------------------------------------------

    @property
    def terms(self):
        """Order -> CoeffFn, read-only, orders in the order flat first
        meets them; built on the first read and kept."""
        view = self._view
        if view is None:
            groups: dict = {}
            for (o, p, q, m), v in self.flat.items():
                g = groups.get(o)
                if g is None:
                    g = groups[o] = {}
                g[(p, q, m)] = gauss_of(v)
            view = MappingProxyType({HalfInt(o): coeff_from_table(g) for o, g in groups.items()})
            _set_view(self, view)
        return view

    def is_zero(self) -> bool:
        return not self.flat

    def top(self):
        """Highest stored order, or None for the zero symbol."""
        return HalfInt(max(self.flat)[0]) if self.flat else None

    def bottom(self):
        return HalfInt(min(self.flat)[0]) if self.flat else None

    def coeff(self, order) -> CoeffFn:
        """The coefficient of d^order, read from the kept terms view: a
        symbol asked for one order is often asked again, and the view
        turns each value into a GaussRat once."""
        return self.terms.get(h(order), _ZERO)

    def sole_term(self):
        """(twice the order, t, x, M, GaussRat) of an exact symbol with
        one term, else None."""
        if self.floor is not EXACT or len(self.flat) != 1:
            return None
        (((ot, p, q, m), v),) = self.flat.items()
        return ot, p, q, m, gauss_of(v)

    def trusted(self, order) -> bool:
        return self.floor is EXACT or h(order) >= self.floor

    # ---- identity --------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Symbol):
            return NotImplemented
        return (
            self.var == other.var
            and self.flat == other.flat
            and _floor_eq(self.floor, other.floor)
        )

    __hash__ = None

    def __str__(self):
        from .textio import symbol_str

        return symbol_str(self)

    def __repr__(self):
        fl = "EXACT" if self.floor is EXACT else str(self.floor)
        return f"<Symbol {self.var} {len({k[0] for k in self.flat})} terms floor={fl}>"


# The slots' own setters: they skip the guard in __setattr__, and cost far
# less per call than object.__setattr__.
_set_var = Symbol.__dict__["var"].__set__
_set_flat = Symbol.__dict__["flat"].__set__
_set_floor = Symbol.__dict__["floor"].__set__
_set_view = Symbol.__dict__["_view"].__set__


def symbol_from_flat(var: str, flat: dict, floor) -> Symbol:
    """Wrap a flat dict of nonzero values as a Symbol, dropping the orders
    below floor; the dict is kept, not copied, when nothing lies below."""
    if floor is not EXACT:
        low = floor.twice
        if any(k[0] < low for k in flat):
            flat = {k: v for k, v in flat.items() if k[0] >= low}
    return Symbol._raw(var, flat, floor)


def _floor_eq(a, b) -> bool:
    if a is EXACT or b is EXACT:
        return a is b
    return a == b


# ---- linear structure ------------------------------------------------------------


def _linear(A: Symbol, B: Symbol, negate: bool) -> Symbol:
    """A + B, or A - B when negate, term by term; orders below the larger
    floor are dropped and a zero symbol's floor still counts."""
    _check_var(A, B)
    floor = hmax(A.floor, B.floor)
    if floor is EXACT:
        low = None
        out = dict(A.flat)
    else:
        low = floor.twice
        out = {k: v for k, v in A.flat.items() if k[0] >= low}
    for k, v in B.flat.items():
        if low is not None and k[0] < low:
            continue
        if negate:
            v = (-v[0], -v[1], v[2])
        s = out.get(k)
        if s is None:
            out[k] = v
            continue
        s = add_triples(s, v)
        if s is None:
            del out[k]
        else:
            out[k] = s
    return Symbol._raw(A.var, out, floor)


def sym_add(A: Symbol, B: Symbol) -> Symbol:
    return _linear(A, B, False)


def sym_neg(A: Symbol) -> Symbol:
    return Symbol._raw(A.var, {k: (-a, -b, d) for k, (a, b, d) in A.flat.items()}, A.floor)


def sym_sub(A: Symbol, B: Symbol) -> Symbol:
    """A - B, subtracting term by term without a negated copy of B."""
    return _linear(A, B, True)


def _check_var(A: Symbol, B: Symbol):
    if A.var != B.var:
        raise ValueError(f"mixed symbol variables {A.var} and {B.var}")
    return True


# ---- composition ---------------------------------------------------------------------


@lru_cache(maxsize=None)
def binom_twice(a_twice: int, j: int) -> GaussRat:
    """binom(a, j) for a = a_twice / 2, exact and cached."""
    a = Fraction(a_twice, 2)
    num = Fraction(1)
    for i in range(j):
        num *= a - i
    den = 1
    for i in range(2, j + 1):
        den *= i
    return GaussRat(num / den)


def binom_half(a: HalfInt, j: int) -> GaussRat:
    """binom(a, j) = a(a-1)...(a-j+1)/j! for a in (1/2)Z, exact."""
    return binom_twice(a.twice, j)


def _hi(X: Symbol) -> HalfInt:
    """Highest order X may carry: its top term, or its floor when it has none."""
    return X.top() if X.flat else X.floor


def sym_mul(A: Symbol, B: Symbol, req_floor=None) -> Symbol:
    """Compose A o B, trusted down to the derived floor.

    req_floor bounds how deep the result is computed.  It may be EXACT
    (None) only when every Leibniz tail terminates by itself; an honest
    infinite tail with no req_floor raises instead of silently cutting.

    One pass over the signed products of A and B (see compose_flat), here
    the single product (A, B, +1).
    """
    flat, floor = compose_flat(A, B, ((A, B, 1),), req_floor)
    return Symbol._raw(A.var, flat, floor)


def compose_flat(A: Symbol, B: Symbol, products, req_floor):
    """The flat dict and the floor of the sum of sign * (left o right) over
    (left, right, sign) products of the operands A and B, e.g. A o B and
    -(B o A), so a caller can add terms of its own before wrapping.

    The floor bound is symmetric in A and B, so one bound serves every
    product.  One ring.leibniz_rows call per product adds every Leibniz
    term sign * binom(a, j) * f * g^(j) of every pair of a left and a right
    term straight into one output dict, reading both operands' flat dicts.
    The kernel fixes each pair's number of terms before the first one,
    from a, q and the floor, so no term below the floor is ever added; with
    no floor it raises on the first pair whose tail does not terminate.
    The floor is EXACT only when both operands are exact and no term was
    cut.
    """
    _check_var(A, B)
    if (not A.flat and A.floor is EXACT) or (not B.flat and B.floor is EXACT):
        return {}, EXACT
    req_floor = h(req_floor) if req_floor is not None else EXACT

    # a zero operand with a floor still stands for unknown orders below it
    bound = EXACT
    if A.floor is not EXACT:
        bound = hmax(bound, A.floor + _hi(B))
    if B.floor is not EXACT:
        bound = hmax(bound, B.floor + _hi(A))
    floor = hmax(req_floor, bound)

    low = None if floor is EXACT else floor.twice
    out: dict = {}
    cut = False
    for left, right, sign in products:
        cut |= leibniz_rows(out, left.flat, right.flat, low, sign)

    if bound is EXACT and not cut:
        # both inputs exact and every tail ended by itself
        floor = EXACT
    return out, floor


def sym_bracket(A: Symbol, B: Symbol, req_floor=None) -> Symbol:
    """[A, B] = A o B - B o A, in one pass over the signed products
    (A, B, +1) and (B, A, -1) into one flat dict.  The floor bound is
    symmetric in A and B; the result is EXACT only when both operands are
    exact and neither product was cut, and a tail that does not terminate
    in either order raises as in sym_mul."""
    flat, floor = compose_flat(A, B, ((A, B, 1), (B, A, -1)), req_floor)
    return Symbol._raw(A.var, flat, floor)


def bracket_transport(A: Symbol, B: Symbol, f_items, g_items, req_floor) -> Symbol:
    """[A, B] + f d_t B + g d_t A, for x-free f and g given by their term
    items, as the symbol slot of the extended bracket takes it.

    The bracket's flat dict (compose_flat) takes the transport terms
    (ring.transport_into); they are never cut, but orders below the
    result floor are dropped.  That floor is the bracket's (EXACT only when
    nothing was cut) raised to the floor of each operand: a term scaled by
    a zero loop is a zero that keeps its floor.  The bracket is asked for
    that raised floor, so its kernel adds nothing below it.
    """
    raised = hmax(A.floor, B.floor)
    flat, floor = compose_flat(A, B, ((A, B, 1), (B, A, -1)), hmax(h(req_floor), raised))
    floor = hmax(floor, raised)
    low = None if floor is EXACT else floor.twice
    for loop, other in ((f_items, B), (g_items, A)):
        if loop:
            transport_into(flat, loop, other.flat.items(), low)
    return Symbol._raw(A.var, flat, floor)


# ---- trace, projections -------------------------------------------------------------------


def adler_trace(D: Symbol) -> CoeffFn:
    """Residue of the order -1 coefficient; a function of t alone.

    The order -1 slot must be trusted: floor <= -1 or EXACT.
    """
    if D.floor is not EXACT and D.floor.twice > -2:
        raise ValueError("trace not determined at this truncation")
    return coeff_from_table(
        {(p, 0, m): gauss_of(v) for (o, p, q, m), v in D.flat.items() if o == -2 and q == -1})


def file_symbol(orders: dict, n: int, V: Symbol) -> None:
    """File the terms of point n's symbol V into a trace pairing index,
    from V's flat dict (ring.file_flat)."""
    file_flat(orders, n, V.flat.items())


def pair_symbol_into(sums: dict, W: Symbol, orders) -> None:
    """Add the trace pairings of W's terms against a filed index into
    sums, walking W's flat dict (ring.trace_pairs_into)."""
    trace_pairs_into(sums, W.flat.items(), orders)


def differential_part(D: Symbol) -> Symbol:
    """Projection onto orders >= 0; exact regardless of D's floor."""
    # missing orders below 0 are irrelevant; the projection is fully known
    # only if all orders >= 0 were trusted
    if D.floor is not EXACT and D.floor > _H0:
        raise ValueError("differential part not determined: floor above 0")
    return Symbol._raw(D.var, {k: v for k, v in D.flat.items() if k[0] >= 0}, EXACT)


def cap_order(D: Symbol, kappa) -> Symbol:
    """Drop every order above kappa (an exact projection)."""
    kt = h(kappa).twice
    return Symbol._raw(D.var, {k: v for k, v in D.flat.items() if k[0] <= kt}, D.floor)


# ---- comparisons -----------------------------------------------------------------------


def eq_trusted(A: Symbol, B: Symbol) -> bool:
    """Term-by-term equality on the common trusted range."""
    _check_var(A, B)
    floor = hmax(A.floor, B.floor)
    a, b = A.flat, B.flat
    if floor is EXACT:
        return a == b
    low = floor.twice
    for k, v in a.items():
        if k[0] >= low:
            w = b.get(k)
            if w is None or w != v:
                return False
    return all(k in a for k in b if k[0] >= low)


def max_trusted_order(D: Symbol):
    """Highest order with a nonzero trusted coefficient, or None: every
    stored term is nonzero and trusted, so this is the top order."""
    return D.top()
