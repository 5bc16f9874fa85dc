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
from .ring import CoeffFn, GaussRat, Scalar

__all__ = [
    "R",
    "XI",
    "Symbol",
    "sym_add",
    "sym_sub",
    "sym_neg",
    "sym_scale",
    "sym_mul",
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
            if isinstance(c, (int, Fraction, GaussRat, Scalar)):
                c = CoeffFn.const(Scalar.of(c) if not isinstance(c, Scalar) else c)
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

    def orders(self):
        return sorted(self.terms, key=lambda k: k.twice)

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


def sym_add(A: Symbol, B: Symbol) -> Symbol:
    # a zero symbol may still carry a floor, which must propagate
    _check_var(A, B)
    floor = hmax(A.floor, B.floor)
    out = dict(A.terms)
    for k, c in B.terms.items():
        s = out.get(k)
        s = c if s is None else s + c
        if s.is_zero():
            out.pop(k, None)
        else:
            out[k] = s
    return Symbol(A.var, out, floor)


def sym_neg(A: Symbol) -> Symbol:
    return Symbol._raw(A.var, {k: -c for k, c in A.terms.items()}, A.floor)


def sym_sub(A: Symbol, B: Symbol) -> Symbol:
    return sym_add(A, sym_neg(B))


def sym_scale(A: Symbol, c) -> Symbol:
    """Multiply every coefficient by a Scalar or a central CoeffFn.

    A CoeffFn multiplier must not involve x: functions of t alone commute
    with the whole algebra, so this is an exact module operation.
    """
    if isinstance(c, CoeffFn):
        if not c.is_t_only():
            raise ValueError("sym_scale multiplier must not depend on x")
        return Symbol(A.var, {k: v * c for k, v in A.terms.items()}, A.floor)
    if not isinstance(c, Scalar):
        c = Scalar.of(c)
    return Symbol(A.var, {k: v.scale(c) for k, v in A.terms.items()}, A.floor)


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

    out: dict = {}
    cut = False
    for a, f in A.terms.items():
        binom_dies = a.is_integer and a.as_int() >= 0
        for b, g in B.terms.items():
            if floor is EXACT and not binom_dies and (g.min_x_degree() or 0) < 0:
                # the tail is infinite: the binomial never vanishes and the
                # negative x-powers of g survive every derivative
                raise ValueError(
                    "exact product requested but the Leibniz tail does not terminate"
                )
            j = 0
            gj = g
            while True:
                # natural termination first, so exactness is never lost
                # to a cut that would have happened one step too late
                if gj.is_zero():
                    break
                coef = binom_half(a, j)
                if coef.is_zero():
                    break
                order = a + b - j
                if floor is not EXACT and order < floor:
                    cut = True
                    break
                term = f * gj.scale(Scalar.of(coef)) if not coef.is_one() else f * gj
                if not term.is_zero():
                    s = out.get(order)
                    s = term if s is None else s + term
                    if s.is_zero():
                        out.pop(order, None)
                    else:
                        out[order] = s
                j += 1
                gj = gj.deriv("X")

    if floor is EXACT and cut:
        raise AssertionError("cut without a floor")
    if bound is EXACT and cut:
        # both inputs exact, but a tail had to be cut at the requested depth
        floor = req_floor
    elif bound is EXACT and not cut and A.floor is EXACT and B.floor is EXACT:
        floor = EXACT
    return Symbol._raw(A.var, out, floor)


def sym_bracket(A: Symbol, B: Symbol, req_floor=None) -> Symbol:
    return sym_sub(sym_mul(A, B, req_floor), sym_mul(B, A, req_floor))


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
