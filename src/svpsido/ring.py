"""Exact ground arithmetic.

Two layers, both immutable and float-free:

* ``GaussRat``      -- Gaussian rationals (a + i*b)/d, stored as a reduced
                       integer triple: d > 0 and gcd(a, b, d) = 1, so equal
                       values have equal triples.  Every operation works on
                       Python ints and normalises its result with one gcd
                       (Knuth, TAOCP vol. 2, 4.5.1).  ``re`` and ``im`` are
                       read-only views that return Fractions.
* ``CoeffFn``       -- Laurent polynomials in (t, x, M) over GaussRat, one
                       flat dict from exponent triples to coefficients.
                       x stands for the space variable of whichever symbol
                       algebra the value lives in; the enclosing object
                       carries the variable tag.  M is the formal mass
                       parameter; a value free of t and x plays the part of
                       a scalar (a structural constant, a central charge, a
                       pairing value).  Only monomials have inverses.

Binary operations test the operand's class first and coerce ints,
Fractions and GaussRats only when it differs.

A product, sum, difference, derivative or residue with an operand that has
no terms returns at once (values are immutable, so the operand itself may be
the result), after the same type coercion as any other call.  Every other
product and sum of CoeffFns runs through one loop, ``mul_into``,
after sympy's ``PolyElement.__mul__``: it adds scale*f*g term pair by term
pair into a mutable {(t, x, M): GaussRat} table, dropping what cancels, and
``coeff_from_table`` wraps the finished table once.  A sum multiplies by the
unit, with scale -1 to subtract.  The Leibniz composition of symbols, the
transform's monomial map and the loop shift keep one table per output and
accumulate every contribution to it before wrapping it.

Derivatives are term-wise monomial derivations and residues extract the
coefficient of (variable)^-1, so res(d(f)) = 0 holds identically.  Every
normalized contour integral in the verified formulas is implemented as
plain residue extraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

__all__ = ["GaussRat", "CoeffFn", "GR_ZERO", "GR_ONE", "GR_I", "M", "mul_into", "coeff_from_table"]

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


class CoeffFn:
    """Laurent polynomial in (t, x, M) over GaussRat.

    ``terms`` maps (t-power, x-power, M-power) to a nonzero GaussRat.  This
    is the coefficient ring of every symbol order and of the two-variable
    differential operators; t is the loop variable, x the space variable.
    Kept canonical at construction; instances are never mutated afterwards.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        _set_coeff_terms(self, {k: v for k, v in terms.items() if not v.is_zero()})

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
        return _coeff_raw(out)

    __radd__ = __add__

    def __neg__(self):
        return _coeff_raw({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        other = _as_coeff(other)
        if other is None:
            return NotImplemented
        if not other.terms:
            return self
        out = dict(self.terms)
        mul_into(out, _UNIT, other.terms.items(), _MINUS_ONE)
        return _coeff_raw(out)

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
        return _coeff_raw(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        """Integer power of a monomial c*t^p*x^q*M^m; a negative power is
        its inverse.  Only monomials are units, so anything else is refused."""
        if not isinstance(k, int):
            return NotImplemented
        if len(self.terms) != 1:
            raise ValueError("CoeffFn powers are taken of monomials only")
        (((p, q, m), v),) = self.terms.items()
        return _coeff_raw({(p * k, q * k, m * k): v ** k})

    # ---- calculus ---------------------------------------------------------------

    # Both maps below send distinct monomials to distinct monomials, so no
    # two terms ever meet and nothing cancels.

    def deriv(self, var: str) -> "CoeffFn":
        """Monomial derivative d/dt (var='T') or d/dx (var='X')."""
        if not self.terms and var in ("T", "X"):
            return self
        if var == "T":
            return _coeff_raw(
                {(p - 1, q, m): _gauss(v._a * p, v._b * p, v._d)
                 for (p, q, m), v in self.terms.items() if p}
            )
        if var == "X":
            return _coeff_raw(
                {(p, q - 1, m): _gauss(v._a * q, v._b * q, v._d)
                 for (p, q, m), v in self.terms.items() if q}
            )
        raise ValueError(f"unknown variable {var!r}")

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
            out[(q, 0, m + e * q)] = v * g ** q
        return _coeff_raw(out)

    def t_to_x(self, c) -> "CoeffFn":
        """t -> c*x on an x-free value, for a unit c = g*M^e; error if x
        occurs already."""
        e, g = _mass_unit(c)
        out: dict = {}
        for (p, q, m), v in self.terms.items():
            if q:
                raise ValueError("t_to_x requires an x-free value")
            out[(0, p, m + e * p)] = v * g ** p
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
        mul_into(out, _UNIT, [((p, q, 0), v * value ** m) for (p, q, m), v in self.terms.items()
                              if m <= 0 or not value.is_zero()])
        return _coeff_raw(out)

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


# The slot's own setter: it skips the guard in __setattr__, and costs far
# less per call than object.__setattr__.
_set_coeff_terms = CoeffFn.__dict__["terms"].__set__


def _coeff_raw(terms: dict) -> CoeffFn:
    c = _new(CoeffFn)
    _set_coeff_terms(c, terms)
    return c


def mul_into(acc: dict, f_items, g_items, scale=None) -> None:
    """Add scale*f*g into acc, a mutable {(t, x, M): GaussRat} table.

    f_items and g_items are the term items of two CoeffFns; scale is a
    GaussRat, None standing for 1.  This is the package's one product and
    sum loop: each term pair costs one normalising gcd, with the product
    and the running sum fused.  A monomial that cancels leaves the table,
    so a table that holds no zero stays so.
    """
    get = acc.get
    for (p1, q1, m1), v1 in f_items:
        if scale is not None:
            v1 = v1 * scale
        a1, b1, d1 = v1._a, v1._b, v1._d
        for (p2, q2, m2), v2 in g_items:
            k = (p1 + p2, q1 + q2, m1 + m2)
            a2, b2 = v2._a, v2._b
            a = a1 * a2 - b1 * b2
            b = a1 * b2 + b1 * a2
            d = d1 * v2._d
            s = get(k)
            if s is None:
                acc[k] = _gauss(a, b, d)
                continue
            e = s._d
            if e == d:
                a += s._a
                b += s._b
            else:
                a = a * e + s._a * d
                b = b * e + s._b * d
                d *= e
            if a or b:
                acc[k] = _gauss(a, b, d)
            else:
                del acc[k]


def coeff_from_table(acc: dict) -> CoeffFn:
    """The CoeffFn of a table that mul_into filled, without copying it;
    the table must not change afterwards."""
    return _coeff_raw(acc)


def _as_coeff(v):
    if v.__class__ is CoeffFn:
        return v
    g = _as_gauss(v)
    if g is None:
        return None
    return _C_ZERO if g.is_zero() else _coeff_raw({(0, 0, 0): g})


def _mass_unit(c) -> tuple:
    """(e, g) for a unit c = g*M^e, given as a CoeffFn or a constant."""
    c = _as_coeff(c)
    if c is not None and len(c.terms) == 1:
        (((p, q, e), g),) = c.terms.items()
        if not (p or q):
            return e, g
    raise ValueError(f"not a unit g*M^e: {c!r}")


_C_ZERO = CoeffFn({})
_C_ONE = CoeffFn({(0, 0, 0): GR_ONE})
_UNIT = tuple(_C_ONE.terms.items())
_MINUS_ONE = GaussRat(-1)
M = CoeffFn({(0, 0, 1): GR_ONE})  # the mass parameter

# The recurring structural constants of the verified formulas.
I_HALF_OVER_M = GaussRat(0, Fraction(1, 2)) * M ** -1   # i/(2M)
MINUS_2I_M = GaussRat(0, -2) * M                        # -2iM
TWO_I_M = GaussRat(0, 2) * M                            # 2iM
I_M = GR_I * M                                          # iM
