"""Exact ground arithmetic.

One coefficient format serves the whole package: the reduced int triple
(a, b, d) of a nonzero Gaussian rational (a + i*b)/d, with d > 0,
gcd(a, b, d) = 1 and (a, b) != (0, 0), so equal values have equal triples
and tables of them compare as plain int data.

* ``GaussRat``      -- the public scalar: a Gaussian rational that keeps its
                       reduced triple in private slots.  Every operation
                       works on Python ints and normalises its result with
                       one gcd (Knuth, TAOCP vol. 2, 4.5.1).  ``re`` and
                       ``im`` are read-only views that return Fractions.
                       The constructor takes int and Fraction parts only.
* ``CoeffFn``       -- Laurent polynomials in (t, x, M), one flat dict
                       ``terms`` from exponent triples to the reduced
                       triples of their coefficients.  x stands for the
                       space variable of whichever symbol algebra the value
                       lives in; the enclosing object carries the variable
                       tag.  M is the formal mass parameter; a value free of
                       t and x plays the part of a scalar (a structural
                       constant, a central charge, a pairing value).  Only
                       monomials have inverses.

A symbol keeps its terms in the same triples, in one flat dict from (twice
the order, t, x, M) (psido.Symbol.flat), so a symbol's terms view shares
them.  A scalar becomes a triple only where it enters or leaves a CoeffFn:
the constructor (GaussRat values), ``const``, ``mono``, ``__pow__``,
``x_to_t``/``t_to_x``, ``subs_m``, and printing in textio.  ``triple_of``
and ``gauss_of`` convert one value each way.  Binary operations test the
operand's class first and coerce ints, Fractions and GaussRats only when
it differs.

Every kernel adds into a mutable table over a common denominator and
builds no GaussRat: it takes no gcd and keeps an entry that cancels, so
every sum is accumulated first and normalised late, after Monagan and
Pearce and sympy's ``PolyElement`` over ``ZZ_I``.  Kernel inputs need not
be reduced.  One reducer, ``reduce_flat``, then normalises a filled table
once, where it is wrapped: one gcd per entry, zeros dropped, and for a
symbol dict the orders below the floor.  ``coeff_from_table`` wraps a
(t, x, M) table, as psido.symbol_from_flat wraps a symbol dict;
``_coeff_raw`` wraps a table that is already clean.

A product, sum, difference, derivative or residue with an operand that has
no terms returns at once (values are immutable, so the operand itself may be
the result), after the same type coercion as any other call.  Every other
product and sum of CoeffFns runs through one loop, ``mul_into``, after
sympy's ``PolyElement.__mul__``: it adds f*g term pair by term pair.  A sum
multiplies by the unit, a difference by minus the unit.

The Leibniz composition of symbols runs one loop, ``leibniz_rows``, over
every pair of a left and a right term.  It weighs each pair of a left term
and a right monomial x^q by binom(a, j) (q)_j, read in place from a module
cache of reduced int pairs keyed by (2a, q), with the product's sign folded
into the left term, so composition takes no derivative.  Each pair's
number of terms is fixed before its first term, from a, q and the floor;
each term is added straight into the output dict.  The transform's
monomial map and its deformed images shift a symbol's terms in order and
scale them by an x-free monomial with ``scale_into``; the transport terms
of the extended bracket, loop * d_t W, are added by ``transport_into``.
The dual pairing files its points' monomials as ints (``file_terms``,
``file_flat``) and sums the trace terms of an element into a table of
triples per point (``pair_terms_into``, ``trace_pairs_into``, which reads
the Leibniz weight cache); ``sum_is_zero`` tests a sum as it stands and
``sum_value`` wraps it when its value is read.

Derivatives are term-wise monomial derivations and residues extract the
coefficient of (variable)^-1, so res(d(f)) = 0 holds identically.  A
CoeffFn keeps each derivative in a private slot once it is first taken,
since values never change and the same generator and point data are
differentiated again and again; the slot stays unset until then.  Every
normalized contour integral in the verified formulas is implemented as
plain residue extraction.  Residues of products, res_x(f^(n) g), which
every central cocycle is made of, are read by ``residue_into`` from the
term pairs whose x-powers meet at -1, each weighed by the falling
factorial (q)_n in ints: no derivative, product or residue is built.
Residues of triple products, [t^p x^q](f g h), which the Poisson bracket
is made of, are read the same way by ``triple_into``: h is indexed by
(t, x) once, and only the pairs of an f and a g term that meet a term of
h cost a product.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

__all__ = [
    "GaussRat", "CoeffFn", "GR_ZERO", "GR_ONE", "GR_I", "M",
    "mul_into", "scale_into", "transport_into", "leibniz_rows", "residue_into", "triple_into",
    "coeff_from_table", "triple_of", "gauss_of", "reduce_flat", "file_terms", "file_flat",
    "pair_terms_into", "trace_pairs_into", "sum_value", "sum_is_zero",
]

_new = object.__new__


def _gauss(a: int, b: int, d: int) -> "GaussRat":
    """(a + i*b)/d for d > 0, reduced by the common gcd."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    out = _new(GaussRat)
    out._a = a
    out._b = b
    out._d = d
    return out


class GaussRat:
    """A Gaussian rational (a + i*b)/d with d > 0 and gcd(a, b, d) = 1.

    The triple lives in private slots; like Fraction, instances are never
    changed after construction.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if re.__class__ is not int or im.__class__ is not int:
            # a float part would enter as its binary expansion, 0.1 as
            # 3602879701896397/36028797018963968, so only exact parts pass
            if not isinstance(re, (int, Fraction)) or not isinstance(im, (int, Fraction)):
                raise TypeError(f"GaussRat parts are ints or Fractions, not {re!r} and {im!r}")
            re = Fraction(re)
            im = Fraction(im)
            rd = re.denominator
            idn = im.denominator
            d = rd * idn // gcd(rd, idn)
            # over the lcm of two reduced denominators the triple is reduced
            self._a = re.numerator * (d // rd)
            self._b = im.numerator * (d // idn)
            self._d = d
        else:
            self._a = re
            self._b = im
            self._d = 1

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # ---- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not (self._a or self._b)

    def is_one(self) -> bool:
        return self._a == 1 and not self._b and self._d == 1

    # ---- ring ops ---------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not GaussRat:
            other = _as_gauss(other)
            if other is None:
                return NotImplemented
        d = self._d
        e = other._d
        if d == e:
            return _gauss(self._a + other._a, self._b + other._b, d)
        return _gauss(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        out = _new(GaussRat)
        out._a = -self._a
        out._b = -self._b
        out._d = self._d
        return out

    def __sub__(self, other):
        if other.__class__ is not GaussRat:
            other = _as_gauss(other)
            if other is None:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_gauss(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if other.__class__ is not GaussRat:
            other = _as_gauss(other)
            if other is None:
                return NotImplemented
        a, b = self._a, self._b
        c, e = other._a, other._b
        return _gauss(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def inv(self) -> "GaussRat":
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("inverse of zero GaussRat")
        return _gauss(a * d, -b * d, n)

    def __truediv__(self, other):
        other = _as_gauss(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        # square and multiply: about log2|k| products instead of |k|
        base = self if k >= 0 else self.inv()
        k = abs(k)
        out = GR_ONE
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    # ---- identity ----------------------------------------------------------

    def __eq__(self, other):
        if other.__class__ is not GaussRat:
            other = _as_gauss(other)
            if other is None:
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        # equal values hash equal: a real value hashes like the int or
        # Fraction it equals, and no int or Fraction equals any other
        a, b, d = self._a, self._b, self._d
        if b:
            return hash((a, b, d))
        return hash(a) if d == 1 else hash(Fraction(a, d))

    def __str__(self):
        from .textio import gauss_str

        return gauss_str(self)

    def __repr__(self):
        return f"GaussRat({self.re!r}, {self.im!r})"


def _as_gauss(v):
    if isinstance(v, GaussRat):
        return v
    if isinstance(v, (int, Fraction)):
        return GaussRat(v)
    return None


GR_ZERO = GaussRat(0)
GR_ONE = GaussRat(1)
GR_I = GaussRat(0, 1)


def triple_of(g: GaussRat) -> tuple:
    """The reduced int triple (a, b, d) of g, as a flat symbol dict holds it."""
    return g._a, g._b, g._d


def gauss_of(t: tuple) -> GaussRat:
    """The GaussRat of a reduced triple (a, b, d), built without a gcd."""
    out = _new(GaussRat)
    out._a, out._b, out._d = t
    return out


class CoeffFn:
    """Laurent polynomial in (t, x, M) over the Gaussian rationals.

    ``terms`` maps (t-power, x-power, M-power) to the reduced int triple
    (a, b, d) of a nonzero coefficient (a + i*b)/d.  This
    is the coefficient ring of every symbol order and of the two-variable
    differential operators; t is the loop variable, x the space variable.
    Kept canonical at construction; the terms are never changed afterwards.

    A second private slot, _derivs, keeps d/dt and d/dx by variable once
    deriv has first computed them, as Symbol keeps its terms view: the
    same generator and point values are differentiated again and again.
    It is left unset at construction, so a value that is never
    differentiated costs nothing more (one slot leaves an instance in the
    same allocator size class); equality and printing ignore it.
    """

    __slots__ = ("terms", "_derivs")

    def __init__(self, terms: dict):
        """From a dict (t, x, M) -> GaussRat; zero values are dropped."""
        out = {}
        for k, v in terms.items():
            if not isinstance(v, GaussRat):
                raise TypeError(f"CoeffFn coefficients are GaussRats, not {v!r}")
            if not v.is_zero():
                out[k] = triple_of(v)
        _set_coeff_terms(self, out)

    def __setattr__(self, name, value):
        raise AttributeError("CoeffFn is immutable")

    # ---- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "CoeffFn":
        return _C_ZERO

    @staticmethod
    def one() -> "CoeffFn":
        return _C_ONE

    @staticmethod
    def const(value) -> "CoeffFn":
        """The constant value, from an int, Fraction or GaussRat."""
        g = _as_gauss(value)
        if g is None:
            raise TypeError(f"bad coefficient {value!r}")
        return _as_coeff(g)

    @staticmethod
    def mono(tpow: int, xpow: int, coeff=1) -> "CoeffFn":
        """coeff * t^tpow * x^xpow, for a constant or CoeffFn coeff."""
        c = _as_coeff(coeff)
        if c is None:
            raise TypeError(f"bad coefficient {coeff!r}")
        return _coeff_raw({(p + tpow, q + xpow, m): v for (p, q, m), v in c.terms.items()})

    @staticmethod
    def t_pow(p: int, coeff=1) -> "CoeffFn":
        return CoeffFn.mono(p, 0, coeff)

    @staticmethod
    def x_pow(q: int, coeff=1) -> "CoeffFn":
        return CoeffFn.mono(0, q, coeff)

    # ---- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_t_only(self) -> bool:
        return all(k[1] == 0 for k in self.terms)

    def is_x_only(self) -> bool:
        return all(k[0] == 0 for k in self.terms)

    def min_x_degree(self):
        return min((k[1] for k in self.terms), default=None)

    # ---- ring ops ----------------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not CoeffFn:
            other = _as_coeff(other)
            if other is None:
                return NotImplemented
        # values are immutable, so a sum with zero may return the operand
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        mul_into(out, _UNIT, other.terms.items())
        return coeff_from_table(out)

    __radd__ = __add__

    def __neg__(self):
        return _coeff_raw({k: (-a, -b, d) for k, (a, b, d) in self.terms.items()})

    def __sub__(self, other):
        other = _as_coeff(other)
        if other is None:
            return NotImplemented
        if not other.terms:
            return self
        out = dict(self.terms)
        mul_into(out, _MINUS_UNIT, other.terms.items())
        return coeff_from_table(out)

    def __rsub__(self, other):
        other = _as_coeff(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if other.__class__ is not CoeffFn:
            other = _as_coeff(other)
            if other is None:
                return NotImplemented
        if not self.terms:
            return self
        if not other.terms:
            return other
        out: dict = {}
        mul_into(out, self.terms.items(), other.terms.items())
        return coeff_from_table(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        """Integer power of a monomial c*t^p*x^q*M^m; a negative power is
        its inverse.  Only monomials are units, so anything else is refused."""
        if not isinstance(k, int):
            return NotImplemented
        if len(self.terms) != 1:
            raise ValueError("CoeffFn powers are taken of monomials only")
        (((p, q, m), v),) = self.terms.items()
        return _coeff_raw({(p * k, q * k, m * k): triple_of(gauss_of(v) ** k)})

    # ---- calculus ---------------------------------------------------------------

    # Both maps below send distinct monomials to distinct monomials, so no
    # two terms ever meet and nothing cancels.

    def deriv(self, var: str) -> "CoeffFn":
        """Monomial derivative d/dt (var='T') or d/dx (var='X'), computed
        on first use and kept in the value's own slot."""
        try:
            return self._derivs[var]
        except (AttributeError, KeyError):
            pass
        if var != "T" and var != "X":
            raise ValueError(f"unknown variable {var!r}")
        if not self.terms:
            return self
        out = _derivative(self.terms, var)
        try:
            self._derivs[var] = out
        except AttributeError:
            _set_derivs(self, {var: out})
        return out

    def residue(self, var: str) -> "CoeffFn":
        """Coefficient of var^-1; the result no longer depends on var."""
        if not self.terms and var in ("T", "X"):
            return self
        if var == "T":
            return _coeff_raw({(0, q, m): v for (p, q, m), v in self.terms.items() if p == -1})
        if var == "X":
            return _coeff_raw({(p, 0, m): v for (p, q, m), v in self.terms.items() if q == -1})
        raise ValueError(f"unknown variable {var!r}")

    # ---- substitutions (all monomial, hence exact) ---------------------------------

    # x -> g*M^e*t and t -> g*M^e*x send t^0 x^q M^m (or t^q x^0 M^m) to
    # g^q M^(m + e*q) t^q (or x^q): again distinct monomials stay distinct.

    def x_to_t(self, c) -> "CoeffFn":
        """x -> c*t on a t-free value, for a unit c = g*M^e; error if t
        occurs already."""
        e, g = _mass_unit(c)
        out: dict = {}
        for (p, q, m), v in self.terms.items():
            if p:
                raise ValueError("x_to_t requires a t-free value")
            out[(q, 0, m + e * q)] = triple_of(gauss_of(v) * g ** q)
        return _coeff_raw(out)

    def t_to_x(self, c) -> "CoeffFn":
        """t -> c*x on an x-free value, for a unit c = g*M^e; error if x
        occurs already."""
        e, g = _mass_unit(c)
        out: dict = {}
        for (p, q, m), v in self.terms.items():
            if q:
                raise ValueError("t_to_x requires an x-free value")
            out[(0, p, m + e * p)] = triple_of(gauss_of(v) * g ** p)
        return _coeff_raw(out)

    def x_slice(self, q: int) -> "CoeffFn":
        """Coefficient of x^q, as an x-free value."""
        return _coeff_raw({(p, 0, m): v for (p, qq, m), v in self.terms.items() if qq == q})

    def drop_x_from(self, qmin: int) -> "CoeffFn":
        """Remove all terms with x-power >= qmin."""
        return _coeff_raw({k: v for k, v in self.terms.items() if k[1] < qmin})

    def subs_m(self, value: GaussRat) -> "CoeffFn":
        """Evaluate at M = value (value must be invertible if negative powers occur)."""
        # a zero value zeroes the terms with m > 0, so they stay out of the sum
        out: dict = {}
        mul_into(out, _UNIT, [((p, q, 0), triple_of(gauss_of(v) * value ** m))
                              for (p, q, m), v in self.terms.items()
                              if m <= 0 or not value.is_zero()])
        return coeff_from_table(out)

    # ---- identity -------------------------------------------------------------------

    def __eq__(self, other):
        if other.__class__ is not CoeffFn:
            other = _as_coeff(other)
            if other is None:
                return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __str__(self):
        from .textio import coeff_str

        return coeff_str(self)

    def __repr__(self):
        return f"CoeffFn({self.terms!r})"


# The slots' own setters: they skip the guard in __setattr__, and cost far
# less per call than object.__setattr__.
_set_coeff_terms = CoeffFn.__dict__["terms"].__set__
_set_derivs = CoeffFn.__dict__["_derivs"].__set__


def _derivative(terms: dict, var: str) -> CoeffFn:
    """The monomial derivative of a nonempty term dict along var ('T' or
    'X'); CoeffFn.deriv keeps what it returns."""
    if var == "T":
        return coeff_from_table({(p - 1, q, m): (a * p, b * p, d)
                                 for (p, q, m), (a, b, d) in terms.items() if p})
    return coeff_from_table({(p, q - 1, m): (a * q, b * q, d)
                             for (p, q, m), (a, b, d) in terms.items() if q})


def _coeff_raw(terms: dict) -> CoeffFn:
    """The CoeffFn of a table that is already clean (nonzero reduced
    triples), without copying it; the table must not change afterwards."""
    c = _new(CoeffFn)
    _set_coeff_terms(c, terms)
    return c


def mul_into(acc: dict, f_items, g_items) -> None:
    """Add f*g into acc, a mutable {(t, x, M): (a, b, d)} table that
    coeff_from_table reduces once it is filled.

    f_items and g_items are (key, triple) pairs, such as the term items of
    two CoeffFns.  This is the package's product and sum loop outside
    composition: each product is added over the common denominator, with
    no gcd, and a monomial that cancels stays in acc as a zero.
    """
    get = acc.get
    for (p1, q1, m1), (a1, b1, d1) in f_items:
        for (p2, q2, m2), (a2, b2, d2) in g_items:
            k = (p1 + p2, q1 + q2, m1 + m2)
            a = a1 * a2 - b1 * b2
            b = a1 * b2 + b1 * a2
            d = d1 * d2
            s = get(k)
            if s is None:
                acc[k] = (a, b, d)
                continue
            sa, sb, e = s
            if e == d:
                acc[k] = (a + sa, b + sb, d)
            else:
                acc[k] = (a * e + sa * d, b * e + sb * d, d * e)


def scale_into(acc: dict, items, dt: int, p2: int, m2: int, g: tuple) -> None:
    """Add g t^p2 M^m2 times every term of items, shifted by dt
    twice-orders, into acc, a flat symbol dict
    {(twice the order, t, x, M): (a, b, d)} that reduce_flat reduces once
    it is filled.

    items are (key, triple) pairs of a flat symbol dict and g is an int
    triple.  The factor is free of x, so it commutes with every derivative
    and each term maps to one term.  Each product is added over the common
    denominator, with no gcd, and a monomial that cancels stays in acc as a
    zero.
    """
    a2, b2, d2 = g
    get = acc.get
    for (o, p1, q1, m1), (a1, b1, d1) in items:
        k = (o + dt, p1 + p2, q1, m1 + m2)
        a = a1 * a2 - b1 * b2
        b = a1 * b2 + b1 * a2
        d = d1 * d2
        s = get(k)
        if s is None:
            acc[k] = (a, b, d)
            continue
        sa, sb, e = s
        if e == d:
            acc[k] = (a + sa, b + sb, d)
        else:
            acc[k] = (a * e + sa * d, b * e + sb * d, d * e)


def transport_into(acc: dict, loop, items) -> None:
    """Add loop * d_t of a symbol's terms into acc, a flat symbol dict.

    loop is the term items of an x-free CoeffFn and items the (key, triple)
    pairs of a flat symbol dict; the t-derivative is taken once, left
    unreduced, and each loop monomial scales it as in scale_into.
    """
    dt = [((o, p - 1, q, m), (a * p, b * p, d)) for (o, p, q, m), (a, b, d) in items if p]
    if dt:
        for (p, _, m), v in loop:
            scale_into(acc, dt, 0, p, m, v)


def reduce_flat(flat: dict, low) -> None:
    """Reduce a table of triples that the kernels filled, in place: each
    value by one gcd, each zero dropped, the insertion order of the rest
    kept.  A flat symbol dict, keyed (twice the order, t, x, M), also drops
    each order below low (twice the floor, None for none); a CoeffFn table,
    keyed (t, x, M), is reduced with low None."""
    dead = []
    for k, (a, b, d) in flat.items():
        if not (a or b) or (low is not None and k[0] < low):
            dead.append(k)
            continue
        r = gcd(a, b, d)
        if r != 1:
            flat[k] = (a // r, b // r, d // r)
    for k in dead:
        del flat[k]


# binom(a, j) (q)_j for j = 0, 1, ... as reduced (numerator, denominator)
# int pairs, keyed by (2a, q) and grown on demand by _weights; the one
# weight cache of composition and of the trace pairing.
_WEIGHTS: dict = {}


def _weights(at: int, q: int, n: int) -> list:
    """The cached weights of (at, q), grown to at least n entries.

    Each step multiplies by (a - j + 1)(q - j + 1)/j, that is by
    (2a - 2j + 2)(q - j + 1)/(2j), and reduces by one gcd, so every entry
    from the first zero weight on is (0, 1).  leibniz_rows reads no entry
    at or past the first zero weight; trace_pairs_into reads one entry per
    hit and skips a zero.
    """
    ws = _WEIGHTS.get((at, q))
    if ws is None:
        ws = _WEIGHTS[(at, q)] = [(1, 1)]
    num, den = ws[-1]
    for j in range(len(ws), n):
        num *= (at - 2 * j + 2) * (q - j + 1)
        den *= 2 * j
        g = gcd(num, den)
        num //= g
        den //= g
        ws.append((num, den))
    return ws


def leibniz_rows(acc: dict, f: dict, g: dict, low, sign: int = 1) -> bool:
    """Add sign * sum_j binom(a, j) f g^(j) d^(a+b-j) over every pair of a
    left and a right term into acc, a flat symbol dict.

    f, g and acc are flat symbol dicts {(twice the order, t, x, M):
    (a, b, d)}.  On a right monomial v x^q the j-th Leibniz term is
    binom(a, j) (q)_j v x^(q-j) f, so no derivative is taken: the weight
    binom(a, j) (q)_j is read in place from the module cache of reduced
    int pairs keyed by (2a, q), with no copy of the pair's entries, and
    scales the product of the two terms, which is then added as in
    scale_into, with no gcd and a cancelled monomial kept as a zero for
    reduce_flat.  The sign is folded into each left term once, so the
    right operand is read as it is stored.

    The number of terms of a pair is fixed before its first term: they
    end at the first zero weight (a nonnegative integer a, or q, runs out)
    and at the last order at or above low (twice the floor, None for
    none).  Each term is added straight into acc, and the return value
    says whether the floor cut any term of nonzero weight.  With no floor,
    a pair whose terms never end raises ValueError before any of its terms
    is added.
    """
    cut = False
    get = acc.get
    right = g.items()
    for (at, p1, q1, m1), (a1, b1, d1) in f.items():
        if sign < 0:
            a1 = -a1
            b1 = -b1
        # binom(a, j) vanishes from j = a + 1 on for a nonnegative integer a
        n_a = at // 2 + 1 if at >= 0 and not at & 1 else None
        for (bt, p2, q, m2), (a2, b2, d2) in right:
            order = at + bt
            if low is not None and order < low:
                cut = True
                continue
            # and the falling factorial (q)_j from j = q + 1 on for q >= 0
            n = n_a if q < 0 or (n_a is not None and n_a <= q) else q + 1
            if low is not None:
                above = (order - low) // 2 + 1
                if n is None or above < n:
                    cut = True
                    n = above
            elif n is None:
                raise ValueError(
                    "exact product requested but the Leibniz tail does not terminate"
                )
            ws = _WEIGHTS.get((at, q))
            if ws is None or len(ws) < n:
                ws = _weights(at, q, n)
            p = p1 + p2
            m = m1 + m2
            # the pair's product, which each weight then scales; the first
            # term lands at order at + bt and x-power q1 + q, and the n-th
            # at x-power stop + 1
            pa = a1 * a2 - b1 * b2
            pb = a1 * b2 + b1 * a2
            pd = d1 * d2
            x = q1 + q + 1
            stop = x - n - 1
            order += 2
            for num, den in ws:
                x -= 1
                if x == stop:
                    break
                order -= 2
                k = (order, p, x, m)
                a = pa * num
                b = pb * num
                d = pd * den
                s = get(k)
                if s is None:
                    acc[k] = (a, b, d)
                    continue
                sa, sb, e = s
                if e == d:
                    acc[k] = (a + sa, b + sb, d)
                else:
                    acc[k] = (a * e + sa * d, b * e + sb * d, d * e)
    return cut


# ---- trace pairing sums ----------------------------------------------------------------
#
# A pairing index files the monomials of a list of points under their
# (t, x) exponents as (point, M-power, a, b, d) ints; the kernels below add
# each pairing term into a table point -> M-power -> (a, b, d), an int
# triple that is left unreduced: most sums are only tested for zero, and
# sum_value reduces a row when its value is read.


def file_terms(index: dict, n: int, items) -> None:
    """File the term items of a CoeffFn slot of point n under (t, x)."""
    for (p, q, m), (a, b, d) in items:
        index.setdefault((p, q), []).append((n, m, a, b, d))


def file_flat(orders: dict, n: int, items) -> None:
    """File the (key, triple) pairs of point n's flat symbol dict by twice
    the order, then under (t, x)."""
    for (o, p, q, m), (a, b, d) in items:
        index = orders.get(o)
        if index is None:
            index = orders[o] = {}
        index.setdefault((p, q), []).append((n, m, a, b, d))


def _sum_into(sums: dict, n: int, m: int, a: int, b: int, d: int) -> None:
    """Add (a + i*b)/d M^m to the sum of point n, over the common
    denominator and with no gcd."""
    row = sums.get(n)
    if row is None:
        sums[n] = {m: (a, b, d)}
        return
    s = row.get(m)
    if s is None:
        row[m] = (a, b, d)
        return
    sa, sb, e = s
    if e == d:
        row[m] = (sa + a, sb + b, d)
    else:
        row[m] = (sa * d + a * e, sb * d + b * e, e * d)


def pair_terms_into(sums: dict, items, index: dict) -> None:
    """Add [t^-1](f v) for every filed loop value v into sums, f given by
    its term items; both are x-free, so t^p meets t^(-1-p)."""
    for (p, q, e), (a2, b2, d2) in items:
        hits = index.get((-1 - p, -q))
        if hits is None:
            continue
        for n, m, a1, b1, d1 in hits:
            _sum_into(sums, n, m + e, a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)


def trace_pairs_into(sums: dict, items, orders, low=None) -> None:
    """Add [t^-1 x^-1](f_a d_x^j g_b) binom(a, j), for j = a + b + 1 >= 0,
    into sums for every filed order a of the points and every term of
    W = sum g_b d^b at or above low (twice W's floor, None for EXACT).

    items are the (key, triple) pairs of W's flat dict, reduced or not,
    and orders the (twice the order, index) pairs of the points' symbols.
    A dict that no wrap has reduced may hold terms below the floor, which
    the wrap would drop; they are skipped here.  The monomial
    t^p x^q M^e d^b of W meets the t^(-1-p) x^(j-1-q) monomials of f_a,
    weighed by binom(a, j) (q)_j, which d_x^j puts on x^q; that weight is
    read from the cache that leibniz_rows reads.
    """
    for (bt, p, q, e), (a2, b2, d2) in items:
        if low is not None and bt < low:
            continue
        tp = -1 - p
        for at, index in orders:
            j = (at + bt) // 2 + 1  # orders on the space side are integers
            if j < 0:
                continue
            hits = index.get((tp, j - 1 - q))
            if hits is None:
                continue
            ws = _WEIGHTS.get((at, q))
            if ws is None or len(ws) <= j:
                ws = _weights(at, q, j + 1)
            num, den = ws[j]
            if not num:
                continue
            wa = a2 * num
            wb = b2 * num
            wd = d2 * den
            for n, m, a1, b1, d1 in hits:
                _sum_into(sums, n, m + e, a1 * wa - b1 * wb, a1 * wb + b1 * wa, d1 * wd)


def sum_value(row: dict) -> CoeffFn:
    """The x-free value sum c M^m of a row M-power -> unreduced triple."""
    return coeff_from_table({(0, 0, m): v for m, v in row.items()})


def sum_is_zero(row: dict) -> bool:
    """Whether every unreduced triple of a row is zero."""
    return not any(a or b for a, b, _ in row.values())


def residue_into(acc: dict, f_items, g_items, n: int, sign: int) -> None:
    """Add sign * res_x(f^(n) g) into acc, a mutable {(t, 0, M): (a, b, d)}
    table.

    f_items and g_items are the term items of two CoeffFns and n >= 0 the
    order of the derivative on f.  On monomials v x^q of f and w x^r of g
    the product f^(n) g has the term (q)_n v w x^(q+r-n), so only pairs
    with q + r = n - 1 reach x^-1; each is weighed by the falling factorial
    (q)_n in ints and no product, derivative or residue is built.  Sums are
    kept as in mul_into.
    """
    get = acc.get
    for (p1, q1, m1), (a1, b1, d1) in f_items:
        w = sign
        for i in range(n):
            w *= q1 - i
        if not w:
            continue
        a1 *= w
        b1 *= w
        r = n - 1 - q1
        for (p2, q2, m2), (a2, b2, d2) in g_items:
            if q2 != r:
                continue
            k = (p1 + p2, 0, m1 + m2)
            a = a1 * a2 - b1 * b2
            b = a1 * b2 + b1 * a2
            d = d1 * d2
            s = get(k)
            if s is None:
                acc[k] = (a, b, d)
                continue
            sa, sb, e = s
            if e == d:
                acc[k] = (a + sa, b + sb, d)
            else:
                acc[k] = (a * e + sa * d, b * e + sb * d, d * e)


def triple_into(acc: dict, f_items, g_items, h_items, p: int, q: int, sign: int) -> None:
    """Add sign * [t^p x^q](f g h) into acc, a mutable {(0, 0, M): (a, b, d)}
    table.

    f_items, g_items and h_items are the term items of three CoeffFns.  h
    is indexed once by the (t, x) exponents that an f and a g term must
    sum to for the triple to land on t^p x^q; each pair of an f and a g
    term then costs one lookup, and only the pairs that meet a term of h
    go on.  Each hit multiplies three triples in ints and adds the product
    as in mul_into; no product of the three is built.  The sign is folded
    into the terms of f.
    """
    index: dict = {}
    for (p3, q3, m3), (a3, b3, d3) in h_items:
        index.setdefault((p - p3, q - q3), []).append((m3, a3, b3, d3))
    if not index:
        return
    get = acc.get
    for (p1, q1, m1), (a1, b1, d1) in f_items:
        a1 *= sign
        b1 *= sign
        for (p2, q2, m2), (a2, b2, d2) in g_items:
            hits = index.get((p1 + p2, q1 + q2))
            if hits is None:
                continue
            a12 = a1 * a2 - b1 * b2
            b12 = a1 * b2 + b1 * a2
            d12 = d1 * d2
            m12 = m1 + m2
            for m3, a3, b3, d3 in hits:
                k = (0, 0, m12 + m3)
                a = a12 * a3 - b12 * b3
                b = a12 * b3 + b12 * a3
                d = d12 * d3
                s = get(k)
                if s is None:
                    acc[k] = (a, b, d)
                    continue
                sa, sb, e = s
                if e == d:
                    acc[k] = (a + sa, b + sb, d)
                else:
                    acc[k] = (a * e + sa * d, b * e + sb * d, d * e)


def coeff_from_table(table: dict) -> CoeffFn:
    """Wrap a {(t, x, M): (a, b, d)} table that the kernels filled as a
    CoeffFn, reducing it in place (reduce_flat): one gcd per entry and
    zeros dropped.  Every CoeffFn kernel result is wrapped here, as
    psido.symbol_from_flat wraps a symbol's; the table must not change
    afterwards."""
    reduce_flat(table, None)
    return _coeff_raw(table)


def _as_coeff(v):
    if v.__class__ is CoeffFn:
        return v
    g = _as_gauss(v)
    if g is None:
        return None
    return _C_ZERO if g.is_zero() else _coeff_raw({(0, 0, 0): triple_of(g)})


def _mass_unit(c) -> tuple:
    """(e, g) for a unit c = g*M^e, given as a CoeffFn or a constant."""
    c = _as_coeff(c)
    if c is not None and len(c.terms) == 1:
        (((p, q, e), g),) = c.terms.items()
        if not (p or q):
            return e, gauss_of(g)
    raise ValueError(f"not a unit g*M^e: {c!r}")


_C_ZERO = CoeffFn({})
# the shared zero, which most derivatives of zero are taken of, keeps
# itself as both derivatives, so it never reaches the miss path of deriv
_set_derivs(_C_ZERO, {"T": _C_ZERO, "X": _C_ZERO})
_C_ONE = CoeffFn({(0, 0, 0): GR_ONE})
_UNIT = tuple(_C_ONE.terms.items())
_MINUS_UNIT = (((0, 0, 0), (-1, 0, 1)),)
M = CoeffFn({(0, 0, 1): GR_ONE})  # the mass parameter

# The recurring structural constants of the verified formulas.
I_HALF_OVER_M = GaussRat(0, Fraction(1, 2)) * M ** -1   # i/(2M)
MINUS_2I_M = GaussRat(0, -2) * M                        # -2iM
TWO_I_M = GaussRat(0, 2) * M                            # 2iM
I_M = GR_I * M                                          # iM
