"""Half-integer order arithmetic.

Symbol orders live in (1/2)Z.  Storing the doubled value as a plain int keeps
every comparison, addition and hash exact.  Inside the package an order or
a floor is that int (the flat keys, Symbol.low, Symbol.rows); HalfInt, the
public order scalar, is a plain immutable value built only where an order
enters (low_of) or leaves the public API (floor_of, Symbol.top, the keys
of Symbol.terms), and order_str prints an order from its twice-int.  A
HalfInt compares with an int as an order, HalfInt(2) == 1, so a twice-int
passed as an order compares wrongly with no error.
The module also fixes the package-wide convention for the "no
truncation" sentinel: a floor of ``None`` means every order below the stored
terms is identically zero (written EXACT in text form).
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering

__all__ = ["HalfInt", "EXACT", "h", "hmax", "low_of", "floor_of", "max_low", "order_str"]

# Floor sentinel: all orders below the stored support are exactly zero.
EXACT = None


@total_ordering
class HalfInt:
    """An element of (1/2)Z, stored as twice its value."""

    __slots__ = ("twice",)

    def __init__(self, twice: int):
        if not isinstance(twice, int):
            raise TypeError("HalfInt stores twice the value as an int")
        object.__setattr__(self, "twice", twice)

    def __setattr__(self, name, value):
        raise AttributeError("HalfInt is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, past __setattr__
        return (HalfInt, (self.twice,))

    # ---- constructors -------------------------------------------------

    @staticmethod
    def of(n: int) -> "HalfInt":
        return HalfInt(2 * n)

    @staticmethod
    def parse(text: str) -> "HalfInt":
        """Accepts '3', '-2', '1/2', '-7/2', in any decimal digits, as the
        calculator's grammar reads exponents; not the underscores that
        int() would take between digits."""
        s = text.strip()
        if "_" in s:
            raise ValueError(f"not a half-integer: {text!r}")
        if "/" in s:
            num, den = s.split("/", 1)
            den = den.strip()
            if not den.isdecimal() or int(den) != 2:
                raise ValueError(f"not a half-integer: {text!r}")
            return HalfInt(int(num))
        return HalfInt(2 * int(s))

    # ---- queries -------------------------------------------------------

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def as_int(self) -> int:
        if self.twice % 2 != 0:
            raise ValueError(f"{self} is not an integer")
        return self.twice // 2

    def as_fraction(self) -> Fraction:
        return Fraction(self.twice, 2)

    # ---- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, HalfInt):
            return HalfInt(self.twice + other.twice)
        if isinstance(other, int):
            return HalfInt(self.twice + 2 * other)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, HalfInt):
            return HalfInt(self.twice - other.twice)
        if isinstance(other, int):
            return HalfInt(self.twice - 2 * other)
        return NotImplemented

    def __neg__(self):
        return HalfInt(-self.twice)

    # ---- order / identity ----------------------------------------------

    def _cmp_key(self, other):
        if isinstance(other, HalfInt):
            return other.twice
        if isinstance(other, int):
            return 2 * other
        return None

    def __eq__(self, other):
        if other.__class__ is HalfInt:
            return self.twice == other.twice
        k = self._cmp_key(other)
        return NotImplemented if k is None else self.twice == k

    def __lt__(self, other):
        k = self._cmp_key(other)
        return NotImplemented if k is None else self.twice < k

    def __hash__(self):
        # an integral value hashes like its int, so a HalfInt key finds the
        # entry of the equal int, matching __eq__
        return hash(Fraction(self.twice, 2))

    def __str__(self):
        return order_str(self.twice)

    def __repr__(self):
        return f"HalfInt({self.twice})"


def order_str(t: int) -> str:
    """The text of the order t/2: '3', '-2', '-7/2'."""
    return str(t // 2) if t % 2 == 0 else f"{t}/2"


def h(value) -> HalfInt:
    """Coerce an int, Fraction, HalfInt or 'p/2' string to HalfInt."""
    if isinstance(value, HalfInt):
        return value
    if isinstance(value, int):
        return HalfInt(2 * value)
    if isinstance(value, str):
        return HalfInt.parse(value)
    if isinstance(value, Fraction):
        if value.denominator in (1, 2):
            return HalfInt(int(value * 2))
        raise ValueError(f"{value} is not a half-integer")
    raise TypeError(f"cannot coerce {value!r} to HalfInt")


def low_of(floor) -> int | None:
    """Twice a floor given in any form h() takes, EXACT for EXACT."""
    return EXACT if floor is EXACT else h(floor).twice


def floor_of(low) -> HalfInt | None:
    """The public floor of twice-int low: a HalfInt, or EXACT."""
    return EXACT if low is EXACT else HalfInt(low)


def max_low(a, b):
    """The higher of two floors of one form, twice-ints or (as hmax)
    HalfInts, EXACT acting as -infinity."""
    if a is EXACT:
        return b
    if b is EXACT or a >= b:
        return a
    return b


hmax = max_low
