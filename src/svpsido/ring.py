"""Exact ground arithmetic.

Three layers, all immutable and float-free:

* ``GaussRat``      -- Gaussian rationals (a + i*b)/d, stored as a reduced
                       integer triple: d > 0 and gcd(a, b, d) = 1, so equal
                       values have equal triples.  Every operation works on
                       Python ints and normalises its result with one gcd
                       (Knuth, TAOCP vol. 2, 4.5.1).  ``re`` and ``im`` are
                       read-only views that return Fractions.
* ``Scalar``        -- Laurent polynomials in the formal mass parameter M
                       with GaussRat coefficients.  Units are the nonzero
                       monomials c*M^k; only those may be divided by.
* ``CoeffFn``       -- bivariate Laurent polynomials in (t, x) over Scalar.
                       x stands for the space variable of whichever symbol
                       algebra the value lives in; the enclosing object
                       carries the variable tag.

Binary operations test the operand's class first and coerce ints,
Fractions and lower layers only when it differs.

Derivatives are term-wise monomial derivations and residues extract the
coefficient of (variable)^-1, so res(d(f)) = 0 holds identically.  Every
normalized contour integral in the verified formulas is implemented as
plain residue extraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

__all__ = ["GaussRat", "Scalar", "CoeffFn", "GR_ZERO", "GR_ONE", "GR_I"]

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
        base = self if k >= 0 else self.inv()
        out = GR_ONE
        for _ in range(abs(k)):
            out = out * base
        return out

    # ---- identity ----------------------------------------------------------

    def __eq__(self, other):
        if other.__class__ is not GaussRat:
            other = _as_gauss(other)
            if other is None:
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        return hash((self.re, self.im))

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


class Scalar:
    """Laurent polynomial in the mass parameter M over GaussRat.

    ``terms`` maps the integer M-power to a nonzero GaussRat.  Kept
    canonical at construction; instances are never mutated afterwards.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        object.__setattr__(
            self, "terms", {k: v for k, v in terms.items() if not v.is_zero()}
        )

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # ---- constructors -------------------------------------------------------

    @staticmethod
    def of(value) -> "Scalar":
        """Constant scalar from an int, Fraction or GaussRat."""
        g = _as_gauss(value)
        if g is None:
            raise TypeError(f"cannot make Scalar from {value!r}")
        return Scalar({0: g})

    @staticmethod
    def zero() -> "Scalar":
        return _S_ZERO

    @staticmethod
    def one() -> "Scalar":
        return _S_ONE

    @staticmethod
    def m_pow(k: int, coeff=1) -> "Scalar":
        """coeff * M^k."""
        g = _as_gauss(coeff)
        return Scalar({k: g})

    # ---- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_unit(self) -> bool:
        return len(self.terms) == 1

    def constant_part(self) -> GaussRat:
        return self.terms.get(0, GR_ZERO)

    # ---- ring ops ------------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not Scalar:
            other = _as_scalar(other)
            if other is None:
                return NotImplemented
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k)
            s = v if s is None else s + v
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return _scalar_raw(out)

    __radd__ = __add__

    def __neg__(self):
        return _scalar_raw({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if other.__class__ is not Scalar:
            other = _as_scalar(other)
            if other is None:
                return NotImplemented
        out: dict = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = k1 + k2
                prod = v1 * v2
                s = out.get(k)
                s = prod if s is None else s + prod
                if s.is_zero():
                    out.pop(k, None)
                else:
                    out[k] = s
        return _scalar_raw(out)

    __rmul__ = __mul__

    def unit_inv(self) -> "Scalar":
        """Inverse of a monomial unit c*M^k; error on anything else."""
        if len(self.terms) != 1:
            raise ZeroDivisionError("Scalar division only by monomial units")
        ((k, v),) = self.terms.items()
        return Scalar({-k: v.inv()})

    def __truediv__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        return self * other.unit_inv()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        base = self if k >= 0 else self.unit_inv()
        out = _S_ONE
        for _ in range(abs(k)):
            out = out * base
        return out

    # ---- substitution ----------------------------------------------------------

    def subs_m(self, value: GaussRat) -> "Scalar":
        """Evaluate at M = value (value must be invertible if negative powers occur)."""
        acc = GR_ZERO
        for k, v in self.terms.items():
            acc = acc + v * (value ** k)
        return Scalar({0: acc})

    # ---- identity -----------------------------------------------------------------

    def __eq__(self, other):
        if other.__class__ is not Scalar:
            other = _as_scalar(other)
            if other is None:
                return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __str__(self):
        from .textio import scalar_str

        return scalar_str(self)

    def __repr__(self):
        return f"Scalar({self.terms!r})"


def _scalar_raw(terms: dict) -> Scalar:
    s = Scalar.__new__(Scalar)
    object.__setattr__(s, "terms", terms)
    return s


def _scalar_times_int(v: Scalar, n: int) -> Scalar:
    """v * n for a nonzero int n."""
    return _scalar_raw({k: _gauss(g._a * n, g._b * n, g._d) for k, g in v.terms.items()})


def _as_scalar(v):
    if v.__class__ is Scalar:
        return v
    g = _as_gauss(v)
    if g is not None:
        return _scalar_raw({} if g.is_zero() else {0: g})
    return None


_S_ZERO = Scalar({})
_S_ONE = Scalar({0: GR_ONE})


class CoeffFn:
    """Laurent polynomial in (t, x) over Scalar.

    ``terms`` maps (t-power, x-power) to a nonzero Scalar.  This is the
    coefficient ring of every symbol order and of the two-variable
    differential operators; t is the loop variable, x the space variable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        object.__setattr__(
            self, "terms", {k: v for k, v in terms.items() if not v.is_zero()}
        )

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
    def const(s) -> "CoeffFn":
        s = _as_scalar(s)
        return CoeffFn({(0, 0): s})

    @staticmethod
    def mono(tpow: int, xpow: int, coeff=1) -> "CoeffFn":
        """coeff * t^tpow * x^xpow."""
        s = _as_scalar(coeff)
        if s is None:
            raise TypeError(f"bad coefficient {coeff!r}")
        return CoeffFn({(tpow, xpow): s})

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
        return all(q == 0 for (_, q) in self.terms)

    def is_x_only(self) -> bool:
        return all(p == 0 for (p, _) in self.terms)

    def x_degrees(self):
        return [q for (_, q) in self.terms]

    def min_x_degree(self):
        return min((q for (_, q) in self.terms), default=None)

    def max_x_degree(self):
        return max((q for (_, q) in self.terms), default=None)

    # ---- ring ops ----------------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not CoeffFn:
            other = _as_coeff(other)
            if other is None:
                return NotImplemented
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k)
            s = v if s is None else s + v
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return _coeff_raw(out)

    __radd__ = __add__

    def __neg__(self):
        return _coeff_raw({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        other = _as_coeff(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_coeff(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if other.__class__ is not CoeffFn:
            other = _as_coeff(other)
            if other is None:
                return NotImplemented
        out: dict = {}
        for (p1, q1), v1 in self.terms.items():
            for (p2, q2), v2 in other.terms.items():
                k = (p1 + p2, q1 + q2)
                s = out.get(k)
                prod = v1 * v2
                s = prod if s is None else s + prod
                if s.is_zero():
                    out.pop(k, None)
                else:
                    out[k] = s
        return _coeff_raw(out)

    __rmul__ = __mul__

    def scale(self, s) -> "CoeffFn":
        s = _as_scalar(s)
        if s.is_zero():
            return _C_ZERO
        return _coeff_raw({k: v * s for k, v in self.terms.items()})

    # ---- calculus ---------------------------------------------------------------

    # Both maps below send distinct monomials to distinct monomials, so no
    # two terms ever meet and nothing cancels.

    def deriv(self, var: str) -> "CoeffFn":
        """Monomial derivative d/dt (var='T') or d/dx (var='X')."""
        if var == "T":
            return _coeff_raw(
                {(p - 1, q): _scalar_times_int(v, p) for (p, q), v in self.terms.items() if p}
            )
        if var == "X":
            return _coeff_raw(
                {(p, q - 1): _scalar_times_int(v, q) for (p, q), v in self.terms.items() if q}
            )
        raise ValueError(f"unknown variable {var!r}")

    def residue(self, var: str) -> "CoeffFn":
        """Coefficient of var^-1; the result no longer depends on var."""
        if var == "T":
            return _coeff_raw({(0, q): v for (p, q), v in self.terms.items() if p == -1})
        if var == "X":
            return _coeff_raw({(p, 0): v for (p, q), v in self.terms.items() if q == -1})
        raise ValueError(f"unknown variable {var!r}")

    # ---- substitutions (all monomial, hence exact) ---------------------------------

    def scale_x(self, c: Scalar) -> "CoeffFn":
        """x -> c*x for an invertible monomial Scalar c."""
        out: dict = {}
        for (p, q), v in self.terms.items():
            s = v * (c ** q)
            if not s.is_zero():
                out[(p, q)] = s
        return _coeff_raw(out)

    def x_to_t(self, c: Scalar) -> "CoeffFn":
        """x -> c*t on an x-only value; error if t occurs already."""
        out: dict = {}
        for (p, q), v in self.terms.items():
            if p != 0:
                raise ValueError("x_to_t requires a t-free value")
            s = v * (c ** q)
            if not s.is_zero():
                out[(q, 0)] = s
        return _coeff_raw(out)

    def t_to_x(self, c: Scalar) -> "CoeffFn":
        """t -> c*x on a t-only value; error if x occurs already."""
        out: dict = {}
        for (p, q), v in self.terms.items():
            if q != 0:
                raise ValueError("t_to_x requires an x-free value")
            s = v * (c ** p)
            if not s.is_zero():
                out[(0, p)] = s
        return _coeff_raw(out)

    def x_slice(self, q: int) -> "CoeffFn":
        """Coefficient of x^q, as a t-only value."""
        out: dict = {}
        for (p, qq), v in self.terms.items():
            if qq == q:
                out[(p, 0)] = v
        return _coeff_raw(out)

    def drop_x_from(self, qmin: int) -> "CoeffFn":
        """Remove all terms with x-power >= qmin."""
        return _coeff_raw({k: v for k, v in self.terms.items() if k[1] < qmin})

    def subs_m(self, value: GaussRat) -> "CoeffFn":
        out: dict = {}
        for k, v in self.terms.items():
            s = v.subs_m(value)
            if not s.is_zero():
                out[k] = s
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


def _coeff_raw(terms: dict) -> CoeffFn:
    c = CoeffFn.__new__(CoeffFn)
    object.__setattr__(c, "terms", terms)
    return c


def _as_coeff(v):
    if v.__class__ is CoeffFn:
        return v
    s = _as_scalar(v)
    if s is not None:
        return _coeff_raw({} if s.is_zero() else {(0, 0): s})
    return None


_C_ZERO = CoeffFn({})
_C_ONE = CoeffFn({(0, 0): _S_ONE})

# The recurring structural constants of the verified formulas.
I_HALF_OVER_M = Scalar.m_pow(-1, GaussRat(0, Fraction(1, 2)))   # i/(2M)
MINUS_2I_M = Scalar.m_pow(1, GaussRat(0, -2))                   # -2iM
TWO_I_M = Scalar.m_pow(1, GaussRat(0, 2))                       # 2iM
I_M = Scalar.m_pow(1, GaussRat(0, 1))                           # iM
