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
operators +, - and unary - (Symbol's own, since its part is a table, not
a value) read and write that dict directly, as plain int data: the
kernels add into a fresh dict unreduced, and ``symbol_from_flat``, the
one wrap of their results, reduces it once per entry (ring.reduce_flat,
the reducer that ring.coeff_from_table runs on CoeffFn tables).  The
triples are the format of CoeffFn.terms too, so the accessors hand them
out as they are stored: ``rows()``, a read-only view of the same terms as
twice the order -> CoeffFn, a regroup of the flat dict built on its first
read and kept, for the printer and for callers that want whole
coefficients; ``coeff``, which reads that view; and ``terms``, the same
view keyed by HalfInt, rebuilt on each read for callers outside the
package.  The dual pairing files its points' dicts through ring's
``file_flat`` and walks an element's dict with ring's trace pairing
kernel.  The extended bracket's symbol slot, ``bracket_transport_flat``,
returns its dict unwrapped, as ``compose_flat`` does, so the pairing can
read it before any reduction.

Composition uses the generalized Leibniz rule

    (f d^a) o (g d^b)  =  sum_{j>=0}  binom(a, j) * f * (d/dx)^j(g) * d^(a+b-j)

with binom(a, j) = a(a-1)...(a-j+1)/j! computed exactly for a in (1/2)Z.
On a monomial g = v x^q the j-th derivative is (q)_j v x^(q-j), with
(q)_j the falling factorial, so no derivative is ever taken:
ring.leibniz_rows runs one loop over pairs of a left and a right term,
reads the weight binom(a, j) (q)_j from a cache of reduced int pairs, and
adds every term, unreduced, into the one flat dict of the result, which
symbol_from_flat reduces once per entry when it wraps it.  A bracket
[A, B] runs ring.bracket_rows, one loop over the same pairs: the j = 0
terms f g d^(a+b) of A o B and B o A cancel and are never added, and the
j >= 1 terms of both products of a pair share their keys.
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

A symbol keeps its floor as twice its value, the int ``low`` (None for
EXACT), and every floor above is worked out on such ints, as every order
inside the package is read from ``flat``, ``low`` or ``rows()``.  A public
function converts its requested floor or order once, where it enters;
``floor``, ``top()``, ``bottom()`` and the keys of ``terms`` build the
HalfInts where orders leave the public API.

The variable tag is "R" (integer orders only) or "XI" (half-integer orders
allowed).  Symbols are immutable; every operation is pure.
"""

from __future__ import annotations

from types import MappingProxyType

from .halfint import EXACT, HalfInt, floor_of, h, low_of, max_low, order_str
from .ring import (
    CoeffFn,
    Value,
    _coeff_raw,
    _set_kept,
    bracket_rows,
    coeff_of,
    leibniz_rows,
    reduce_flat,
    scale_into,
    transport_into,
)

__all__ = [
    "R",
    "XI",
    "Symbol",
    "sym_mul",
    "compose_flat",
    "symbol_from_flat",
    "sym_bracket",
    "bracket_transport_flat",
    "adler_trace",
    "differential_part",
    "map_rows",
    "cap_order",
    "eq_trusted",
]

R = "R"
XI = "XI"

_ZERO = CoeffFn.zero()


class Symbol(Value):
    """Truncated symbol: variable tag, flat term dict, floor.

    flat maps (twice the order, t, x, M) to the reduced int triple of a
    nonzero coefficient, as CoeffFn.terms does, and holds no order below
    the floor, which low holds as twice its value (None for EXACT).
    """

    __slots__ = ("var", "flat", "low")

    def __init__(self, var: str, terms: dict, floor=EXACT):
        if var not in (R, XI):
            raise ValueError(f"unknown variable tag {var!r}")
        low = low_of(floor)
        flat: dict = {}
        for k, c in terms.items():
            kt = h(k).twice
            if var == R and kt & 1:
                raise ValueError("half-integer order in an R-variable symbol")
            if low is not EXACT and kt < low:
                continue
            for (p, q, m), v in coeff_of(c).terms.items():
                flat[(kt, p, q, m)] = v
        _set_var(self, var)
        _set_flat(self, flat)
        _set_low(self, low)
        _set_kept(self, {})  # built to be read back: see ring.Value

    @staticmethod
    def _raw(var: str, flat: dict, low) -> "Symbol":
        """Wrap a flat dict that is already clean, without copying it:
        orders fit for var, nonzero reduced triples, no order below low."""
        sym = object.__new__(Symbol)
        _set_var(sym, var)
        _set_flat(sym, flat)
        _set_low(sym, low)
        return sym

    # ---- constructors ----------------------------------------------------

    @staticmethod
    def zero(var: str) -> "Symbol":
        return Symbol(var, {})

    @staticmethod
    def monomial(var: str, order, coeff, floor=EXACT) -> "Symbol":
        """coeff * d^order, coeff a CoeffFn (or constant)."""
        return Symbol(var, {order: coeff}, floor)

    @staticmethod
    def function(var: str, coeff) -> "Symbol":
        """A multiplication operator: coeff * d^0."""
        return Symbol(var, {0: coeff})

    # ---- queries ------------------------------------------------------------

    @property
    def floor(self):
        """The validity floor as a HalfInt, or EXACT."""
        return floor_of(self.low)

    def rows(self):
        """Twice the order -> CoeffFn, read-only, orders in the order flat
        first meets them; built on the first read and kept.  The CoeffFns
        share the flat dict's triples."""
        return self.kept(_rows)

    @property
    def terms(self):
        """Order -> CoeffFn, read-only, keyed by HalfInt: the rows() view
        with its orders built as HalfInts on each read, for callers outside
        the package."""
        return MappingProxyType({HalfInt(o): c for o, c in self.rows().items()})

    def is_zero(self) -> bool:
        return not self.flat

    def top(self):
        """Highest stored order, or None for the zero symbol."""
        return HalfInt(max(self.flat)[0]) if self.flat else None

    def bottom(self):
        return HalfInt(min(self.flat)[0]) if self.flat else None

    def coeff(self, order) -> CoeffFn:
        """The coefficient of d^order, read from the kept rows() view."""
        return self.rows().get(h(order).twice, _ZERO)

    # ---- linear structure --------------------------------------------------------

    def __add__(self, other):
        return self._linear(other, (1, 0, 1)) if isinstance(other, Symbol) else NotImplemented

    def __sub__(self, other):
        """self - other, subtracting term by term without a negated copy."""
        return self._linear(other, (-1, 0, 1)) if isinstance(other, Symbol) else NotImplemented

    def _linear(self, other: "Symbol", unit: tuple) -> "Symbol":
        """self + unit * other, term by term into a copy of self's dict
        (ring.scale_into); orders below the larger floor are dropped and a
        zero symbol's floor still counts."""
        _check_var(self, other)
        out = dict(self.flat)
        scale_into(out, other.flat.items(), 0, 0, 0, unit)
        return symbol_from_flat(self.var, out, max_low(self.low, other.low))

    def __neg__(self):
        return Symbol._raw(self.var, {k: (-a, -b, d) for k, (a, b, d) in self.flat.items()}, self.low)

    # ---- identity --------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Symbol):
            return NotImplemented
        return self.var == other.var and self.flat == other.flat and self.low == other.low

    def __str__(self):
        from .textio import symbol_str

        return symbol_str(self)

    def __repr__(self):
        fl = "EXACT" if self.low is EXACT else order_str(self.low)
        return f"<Symbol {self.var} {len({k[0] for k in self.flat})} terms floor={fl}>"


# The slots' own setters: they skip the guard in __setattr__, and cost far
# less per call than object.__setattr__.
_set_var = Symbol.__dict__["var"].__set__
_set_flat = Symbol.__dict__["flat"].__set__
_set_low = Symbol.__dict__["low"].__set__


def _rows(sym: Symbol) -> MappingProxyType:
    groups: dict = {}
    for (o, p, q, m), v in sym.flat.items():
        g = groups.get(o)
        if g is None:
            g = groups[o] = {}
        g[(p, q, m)] = v
    return MappingProxyType({o: _coeff_raw(g) for o, g in groups.items()})


def symbol_from_flat(var: str, flat: dict, low) -> Symbol:
    """Wrap a flat dict that the kernels filled as a Symbol, reducing it in
    place (ring.reduce_flat): one gcd per entry whose denominator is not
    1, zeros and the orders below low dropped.  Every kernel result is
    wrapped here."""
    reduce_flat(flat, low)
    return Symbol._raw(var, flat, low)


def _check_var(A: Symbol, B: Symbol):
    if A.var != B.var:
        raise ValueError(f"mixed symbol variables {A.var} and {B.var}")
    return True


# ---- composition ---------------------------------------------------------------------


def sym_mul(A: Symbol, B: Symbol, req_floor=None) -> Symbol:
    """Compose A o B, trusted down to the derived floor.

    req_floor bounds how deep the result is computed.  It may be EXACT
    (None) only when every Leibniz tail terminates by itself; an honest
    infinite tail with no req_floor raises instead of silently cutting.
    One pass of ring.leibniz_rows (see compose_flat).
    """
    flat, low = compose_flat(A, B, leibniz_rows, EXACT if req_floor is None else low_of(req_floor))
    return symbol_from_flat(A.var, flat, low)


def compose_flat(A: Symbol, B: Symbol, kernel, low):
    """The flat dict and the floor of A o B (kernel ring.leibniz_rows) or
    of [A, B] (ring.bracket_rows), so a caller can add terms of its own
    before wrapping; both floors, low asked and returned, are twice-ints.
    The dict's values are unreduced; symbol_from_flat reduces them.

    The floor bound is symmetric in A and B, so it serves both kernels;
    it is worked out only when an operand carries a floor.  One kernel
    call adds the Leibniz terms binom(a, j) * f * g^(j) of every pair of
    a left and a right term straight into one output dict, reading both
    operands' flat dicts.  The kernel fixes each pair's number of
    terms before the first one, from a, q and the floor, so no term below
    the floor is ever added; with no floor it raises on the first pair
    whose tail does not terminate.  The floor is EXACT only when both
    operands are exact and no term was cut.
    """
    if A.var != B.var:
        _check_var(A, B)
    f, g = A.flat, B.flat
    if (not f and A.low is EXACT) or (not g and B.low is EXACT):
        return {}, EXACT
    out: dict = {}
    if A.low is EXACT and B.low is EXACT:
        # no floor bound: EXACT unless the kernel cut a tail
        return out, low if kernel(out, f, g, low) else EXACT

    # floor + top of the other operand; a zero operand with a floor still
    # stands for unknown orders below it, so its floor stands in for its top
    bound = None
    for X, Y in ((A, B), (B, A)):
        if X.low is not EXACT:
            b = X.low + (max(Y.flat)[0] if Y.flat else Y.low)
            if bound is None or b > bound:
                bound = b
    if low is EXACT or bound > low:
        low = bound
    kernel(out, f, g, low)
    return out, low


def sym_bracket(A: Symbol, B: Symbol, req_floor=None) -> Symbol:
    """[A, B] = A o B - B o A, in one pass of ring.bracket_rows over the
    pairs of a term of A and a term of B: the leading terms of the two
    products cancel and are never formed.  The floor bound is symmetric
    in A and B; the result is EXACT only when both operands are exact and
    neither product was cut, and a tail that does not terminate in either
    order raises as in sym_mul."""
    flat, low = compose_flat(A, B, bracket_rows, low_of(req_floor))
    return symbol_from_flat(A.var, flat, low)


def bracket_transport_flat(A: Symbol, B: Symbol, f_items, g_items, low):
    """The flat dict and the floor of [A, B] + f d_t B + g d_t A, for
    x-free f and g given by their term items, as the symbol slot of the
    extended bracket takes it; low, asked and returned, is twice a floor.
    The dict is unreduced, and the transport terms may put entries below
    the floor returned: symbol_from_flat drops them where kacmoody.g_bracket
    wraps the dict, and the dual pairing skips them where it reads the
    dict unwrapped.

    The bracket's flat dict (compose_flat with ring.bracket_rows) takes
    the transport terms (ring.transport_into), which are never cut.  The
    floor is the bracket's (EXACT only when nothing was cut) raised to the
    floor of each operand: a term scaled by a zero loop is a zero that
    keeps its floor.  The bracket is asked for that raised floor, so its
    kernel adds nothing below it.
    """
    raised = max_low(A.low, B.low)
    flat, low = compose_flat(A, B, bracket_rows, max_low(low, raised))
    for loop, other in ((f_items, B), (g_items, A)):
        if loop:
            transport_into(flat, loop, other.flat.items())
    # a floor the bracket computed lies at or above raised already
    return flat, raised if low is EXACT else low


# ---- trace, projections -------------------------------------------------------------------


def adler_trace(D: Symbol) -> CoeffFn:
    """Residue of the order -1 coefficient; a function of t alone.

    The order -1 slot must be trusted: floor <= -1 or EXACT.
    """
    if D.low is not EXACT and D.low > -2:
        raise ValueError("trace not determined at this truncation")
    return _coeff_raw({(p, 0, m): v for (o, p, q, m), v in D.flat.items() if o == -2 and q == -1})


def differential_part(D: Symbol) -> Symbol:
    """Projection onto orders >= 0; exact regardless of D's floor."""
    # missing orders below 0 are irrelevant; the projection is fully known
    # only if all orders >= 0 were trusted
    if D.low is not EXACT and D.low > 0:
        raise ValueError("differential part not determined: floor above 0")
    return Symbol._raw(D.var, {k: v for k, v in D.flat.items() if k[0] >= 0}, EXACT)


def map_rows(D: Symbol, fn) -> Symbol:
    """D with fn, a map of CoeffFns, applied to the coefficient of each
    order, keeping D's floor."""
    flat: dict = {}
    for o, c in D.rows().items():
        for (p, q, m), v in fn(c).terms.items():
            flat[(o, p, q, m)] = v
    return Symbol._raw(D.var, flat, D.low)


def cap_order(D: Symbol, kappa) -> Symbol:
    """Drop every order above kappa (an exact projection)."""
    kt = h(kappa).twice
    return Symbol._raw(D.var, {k: v for k, v in D.flat.items() if k[0] <= kt}, D.low)


# ---- comparisons -----------------------------------------------------------------------


def eq_trusted(A: Symbol, B: Symbol) -> bool:
    """Term-by-term equality on the common trusted range."""
    _check_var(A, B)
    low = max_low(A.low, B.low)
    a, b = A.flat, B.flat
    if low is EXACT:
        return a == b
    for k, v in a.items():
        if k[0] >= low:
            w = b.get(k)
            if w is None or w != v:
                return False
    return all(k in a for k in b if k[0] >= low)

