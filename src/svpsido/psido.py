"""Truncated formal pseudodifferential symbols in one space variable.

A ``Symbol`` is a finite sum  sum_k  c_k(t, x) * d^k  with orders k in
(1/2)Z, together with a validity floor: orders at or above the floor are
exact, orders below it are unknown (already discarded).  A floor of EXACT
(None) asserts that every order below the stored support vanishes
identically.

Composition uses the generalized Leibniz rule

    (f d^a) o (g d^b)  =  sum_{j>=0}  binom(a, j) * f * (d/dx)^j(g) * d^(a+b-j)

with binom(a, j) = a(a-1)...(a-j+1)/j! computed exactly for a in (1/2)Z.
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

from .halfint import EXACT, HalfInt, h, hmax
from .ring import CoeffFn, GaussRat, coeff_from_table, mul_into

__all__ = [
    "R",
    "XI",
    "Symbol",
    "sym_add",
    "sym_sub",
    "sym_neg",
    "sym_scale",
    "sym_mul",
    "symbol_from_tables",
    "sym_bracket",
    "adler_trace",
    "differential_part",
    "time_deriv",
    "cap_order",
    "raise_floor",
    "eq_trusted",
    "binom_half",
]

R = "R"
XI = "XI"

_H0 = HalfInt(0)
_HM1 = HalfInt(-2)  # order -1
_ZERO = CoeffFn.zero()


class Symbol:
    """Truncated symbol: variable tag, order -> coefficient map, floor."""

    __slots__ = ("var", "terms", "floor")

    def __init__(self, var: str, terms: dict, floor=EXACT):
        if var not in (R, XI):
            raise ValueError(f"unknown variable tag {var!r}")
        if floor is not EXACT:
            floor = h(floor)
        clean: dict = {}
        for k, c in terms.items():
            k = h(k)
            if var == R and not k.is_integer:
                raise ValueError("half-integer order in an R-variable symbol")
            if floor is not EXACT and k < floor:
                continue
            if isinstance(c, (int, Fraction, GaussRat)):
                c = CoeffFn.const(c)
            if c.is_zero():
                continue
            clean[k] = c
        _set_var(self, var)
        _set_terms(self, clean)
        _set_floor(self, floor)

    def __setattr__(self, name, value):
        raise AttributeError("Symbol is immutable")

    @classmethod
    def _raw(cls, var: str, terms: dict, floor) -> "Symbol":
        """Wrap a dict that is already clean, without copying it: HalfInt
        keys fit for var, nonzero CoeffFn values, no order below floor."""
        sym = object.__new__(cls)
        _set_var(sym, var)
        _set_terms(sym, terms)
        _set_floor(sym, floor)
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

    # ---- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def top(self):
        """Highest stored order, or None for the zero symbol."""
        return max(self.terms) if self.terms else None

    def bottom(self):
        return min(self.terms) if self.terms else None

    def coeff(self, order) -> CoeffFn:
        return self.terms.get(h(order), CoeffFn.zero())

    def trusted(self, order) -> bool:
        return self.floor is EXACT or h(order) >= self.floor

    # ---- identity --------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Symbol):
            return NotImplemented
        return (
            self.var == other.var
            and self.terms == other.terms
            and _floor_eq(self.floor, other.floor)
        )

    __hash__ = None

    def __str__(self):
        from .textio import symbol_str

        return symbol_str(self)

    def __repr__(self):
        fl = "EXACT" if self.floor is EXACT else str(self.floor)
        return f"<Symbol {self.var} {len(self.terms)} terms floor={fl}>"


# The slots' own setters: they skip the guard in __setattr__, and cost far
# less per call than object.__setattr__.
_set_var = Symbol.__dict__["var"].__set__
_set_terms = Symbol.__dict__["terms"].__set__
_set_floor = Symbol.__dict__["floor"].__set__


def _floor_eq(a, b) -> bool:
    if a is EXACT or b is EXACT:
        return a is b
    return a == b


# ---- linear structure ------------------------------------------------------------


def _linear(A: Symbol, B: Symbol, op) -> Symbol:
    """A op B order by order, op a CoeffFn sum or difference; orders below
    the larger floor are dropped and a zero symbol's floor still counts."""
    _check_var(A, B)
    floor = hmax(A.floor, B.floor)
    if floor is EXACT:
        out = dict(A.terms)
    else:
        out = {k: c for k, c in A.terms.items() if k >= floor}
    for k, c in B.terms.items():
        if floor is not EXACT and k < floor:
            continue
        s = op(out.get(k, _ZERO), c)
        if s.terms:
            out[k] = s
        else:
            out.pop(k, None)
    return Symbol._raw(A.var, out, floor)


def sym_add(A: Symbol, B: Symbol) -> Symbol:
    return _linear(A, B, CoeffFn.__add__)


def sym_neg(A: Symbol) -> Symbol:
    return Symbol._raw(A.var, {k: -c for k, c in A.terms.items()}, A.floor)


def sym_sub(A: Symbol, B: Symbol) -> Symbol:
    """A - B, subtracting per order without a negated copy of B."""
    return _linear(A, B, CoeffFn.__sub__)


def sym_scale(A: Symbol, c) -> Symbol:
    """Multiply every coefficient by a constant or a central CoeffFn.

    A CoeffFn multiplier must not involve x: functions of t and M alone
    commute with the whole algebra, so this is an exact module operation.
    """
    if not isinstance(c, CoeffFn):
        c = CoeffFn.const(c)
    elif not c.is_t_only():
        raise ValueError("sym_scale multiplier must not depend on x")
    return Symbol(A.var, {k: v * c for k, v in A.terms.items()}, A.floor)


def _check_var(A: Symbol, B: Symbol):
    if A.var != B.var:
        raise ValueError(f"mixed symbol variables {A.var} and {B.var}")
    return True


# ---- composition ---------------------------------------------------------------------


@lru_cache(maxsize=None)
def _binom_cached(a_twice: int, j: int) -> GaussRat:
    a = Fraction(a_twice, 2)
    num = Fraction(1)
    for i in range(j):
        num *= a - i
    den = 1
    for i in range(2, j + 1):
        den *= i
    return GaussRat(num / den)


@lru_cache(maxsize=None)
def _leibniz_scale(a_twice: int, j: int):
    """binom(a, j) as a mul_into scale: None for 1, False when it vanishes."""
    coef = _binom_cached(a_twice, j)
    if coef.is_zero():
        return False
    return None if coef.is_one() else coef


def binom_half(a: HalfInt, j: int) -> GaussRat:
    """binom(a, j) = a(a-1)...(a-j+1)/j! for a in (1/2)Z, exact."""
    return _binom_cached(a.twice, j)


def _hi(X: Symbol) -> HalfInt:
    """Highest order X may carry: its top term, or its floor when it has none."""
    return X.top() if X.terms else X.floor


def sym_mul(A: Symbol, B: Symbol, req_floor=None) -> Symbol:
    """Compose A o B, trusted down to the derived floor.

    req_floor bounds how deep the result is computed.  It may be EXACT
    (None) only when every Leibniz tail terminates by itself; an honest
    infinite tail with no req_floor raises instead of silently cutting.

    One pass over the signed products of A and B (see _compose), here
    the single product (A, B, +1).
    """
    return _compose(A, B, ((A, B, 1),), req_floor)


def _compose(A: Symbol, B: Symbol, products, req_floor) -> Symbol:
    """The sum of sign * (left o right) over (left, right, sign) products
    of the operands A and B, e.g. A o B and -(B o A).

    The floor bound is symmetric in A and B, so one bound serves every
    product.  Every Leibniz term sign * binom(a, j) * f * g^(j) is added
    in place into one (t, x, M) table per output order (ring.mul_into),
    keyed by twice the order, with the sign folded into the terms of f;
    each table becomes a CoeffFn once, after the last term of the last
    product.  The x-derivatives of each coefficient of a right operand are
    taken once per product.
    """
    _check_var(A, B)
    if (A.is_zero() and A.floor is EXACT) or (B.is_zero() and B.floor is EXACT):
        return Symbol.zero(A.var)
    req_floor = h(req_floor) if req_floor is not None else EXACT

    # a zero operand with a floor still stands for unknown orders below it
    bound = EXACT
    if A.floor is not EXACT:
        bound = hmax(bound, A.floor + _hi(B))
    if B.floor is not EXACT:
        bound = hmax(bound, B.floor + _hi(A))
    floor = hmax(req_floor, bound)

    if floor is EXACT:
        low = None
        for left, right, _ in products:
            if any(not (a.is_integer and a.twice >= 0) for a in left.terms) and any(
                (g.min_x_degree() or 0) < 0 for g in right.terms.values()
            ):
                # the tail is infinite: some binomial never vanishes and the
                # negative x-powers of some g survive every derivative
                raise ValueError(
                    "exact product requested but the Leibniz tail does not terminate"
                )
    else:
        low = floor.twice

    tables: dict = {}
    cut = False
    for left, right, sign in products:
        # (twice b, [g, g', g'', ...]), each chain grown only as deep as needed
        chains = [(b.twice, [g]) for b, g in right.terms.items()]
        for a, f in left.terms.items():
            at = a.twice
            f_items = f.terms.items() if sign > 0 else [(k, -v) for k, v in f.terms.items()]
            for bt, chain in chains:
                order = at + bt
                j = 0
                while True:
                    if j == len(chain):
                        chain.append(chain[-1].deriv("X"))
                    gj = chain[j].terms
                    # natural termination first, so exactness is never lost
                    # to a cut that would have happened one step too late
                    if not gj:
                        break
                    scale = _leibniz_scale(at, j)
                    if scale is False:
                        break
                    if low is not None and order < low:
                        cut = True
                        break
                    mul_into(tables.setdefault(order, {}), f_items, gj.items(), scale)
                    j += 1
                    order -= 2

    if bound is EXACT and not cut:
        # both inputs exact and every tail ended by itself
        floor = EXACT
    return symbol_from_tables(A.var, tables, floor)


def symbol_from_tables(var: str, tables: dict, floor) -> Symbol:
    """Wrap per-order (t, x, M) tables that ring.mul_into filled, keyed by
    twice the order, as a Symbol; orders that cancelled or lie below
    floor are dropped."""
    low = None if floor is EXACT else floor.twice
    out: dict = {}
    for o, acc in tables.items():
        if low is not None and o < low:
            continue
        if acc:
            out[HalfInt(o)] = coeff_from_table(acc)
    return Symbol._raw(var, out, floor)


def sym_bracket(A: Symbol, B: Symbol, req_floor=None) -> Symbol:
    """[A, B] = A o B - B o A, in one pass over the signed products
    (A, B, +1) and (B, A, -1) into shared per-order tables.  The floor
    bound is symmetric in A and B; the result is EXACT only when both
    operands are exact and neither product was cut, and a tail that does
    not terminate in either order raises as in sym_mul."""
    return _compose(A, B, ((A, B, 1), (B, A, -1)), req_floor)


# ---- trace, projections, loop derivative -----------------------------------------------


def adler_trace(D: Symbol) -> CoeffFn:
    """Residue of the order -1 coefficient; a function of t alone.

    The order -1 slot must be trusted: floor <= -1 or EXACT.
    """
    if D.floor is not EXACT and D.floor > _HM1:
        raise ValueError("trace not determined at this truncation")
    return D.coeff(_HM1).residue("X")


def differential_part(D: Symbol) -> Symbol:
    """Projection onto orders >= 0; exact regardless of D's floor."""
    kept = {k: c for k, c in D.terms.items() if k >= _H0}
    # missing orders below 0 are irrelevant; the projection is fully known
    # only if all orders >= 0 were trusted
    if D.floor is not EXACT and D.floor > _H0:
        raise ValueError("differential part not determined: floor above 0")
    return Symbol(D.var, kept, EXACT)


def cap_order(D: Symbol, kappa) -> Symbol:
    """Drop every order above kappa (an exact projection)."""
    kappa = h(kappa)
    return Symbol(D.var, {k: c for k, c in D.terms.items() if k <= kappa}, D.floor)


def raise_floor(D: Symbol, new_floor) -> Symbol:
    """Forget everything below new_floor."""
    return Symbol(D.var, D.terms, hmax(D.floor, h(new_floor)))


def time_deriv(D: Symbol) -> Symbol:
    """d/dt applied to every coefficient; floor unchanged."""
    return Symbol(D.var, {k: c.deriv("T") for k, c in D.terms.items()}, D.floor)


# ---- comparisons -----------------------------------------------------------------------


def eq_trusted(A: Symbol, B: Symbol) -> bool:
    """Order-by-order equality on the common trusted range."""
    _check_var(A, B)
    floor = hmax(A.floor, B.floor)
    keys = set(A.terms) | set(B.terms)
    for k in keys:
        if floor is not EXACT and k < floor:
            continue
        if A.terms.get(k, CoeffFn.zero()) != B.terms.get(k, CoeffFn.zero()):
            return False
    return True


def max_trusted_order(D: Symbol):
    """Highest order with a nonzero trusted coefficient, or None."""
    best = None
    for k, c in D.terms.items():
        if not D.trusted(k) or c.is_zero():
            continue
        if best is None or k > best:
            best = k
    return best
