"""Half-integer order arithmetic.

Symbol orders live in (1/2)Z.  Storing the doubled value as a plain int keeps
every comparison, addition and hash exact, with no rational machinery on the
hot path.  The module also fixes the package-wide convention for the "no
truncation" sentinel: a floor of ``None`` means every order below the stored
terms is identically zero (written EXACT in text form).
"""

from __future__ import annotations

import sys
from fractions import Fraction

__all__ = ["HalfInt", "EXACT", "h", "hmax", "hmin"]

# Floor sentinel: all orders below the stored support are exactly zero.
EXACT = None

# Numeric hashes reduce modulo this prime; 1/2 hashes as its inverse of 2.
_HASH_MODULUS = sys.hash_info.modulus
_HASH_HALF = (_HASH_MODULUS + 1) // 2


class HalfInt:
    """An element of (1/2)Z, stored as twice its value."""

    __slots__ = ("twice",)

    def __init__(self, twice: int):
        if not isinstance(twice, int):
            raise TypeError("HalfInt stores twice the value as an int")
        _set_twice(self, twice)

    def __setattr__(self, name, value):
        raise AttributeError("HalfInt is immutable")

    # ---- constructors -------------------------------------------------

    @staticmethod
    def of(n: int) -> "HalfInt":
        return HalfInt(2 * n)

    @staticmethod
    def half(k: int) -> "HalfInt":
        """k/2 as a HalfInt."""
        return HalfInt(k)

    @staticmethod
    def parse(text: str) -> "HalfInt":
        """Accepts '3', '-2', '1/2', '-7/2'."""
        s = text.strip()
        if "/" in s:
            num, den = s.split("/", 1)
            if den.strip() != "2":
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

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, HalfInt):
            return HalfInt(self.twice - other.twice)
        if isinstance(other, int):
            return HalfInt(self.twice - 2 * other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, int):
            return HalfInt(2 * other - self.twice)
        return NotImplemented

    def __neg__(self):
        return HalfInt(-self.twice)

    def __mul__(self, other):
        # scaling by an integer stays in (1/2)Z
        if isinstance(other, int):
            return HalfInt(self.twice * other)
        return NotImplemented

    __rmul__ = __mul__

    # ---- order / identity ----------------------------------------------

    def _cmp_key(self, other):
        if isinstance(other, HalfInt):
            return other.twice
        if isinstance(other, int):
            return 2 * other
        return None

    def __eq__(self, other):
        k = self._cmp_key(other)
        return NotImplemented if k is None else self.twice == k

    def __lt__(self, other):
        k = self._cmp_key(other)
        return NotImplemented if k is None else self.twice < k

    def __le__(self, other):
        k = self._cmp_key(other)
        return NotImplemented if k is None else self.twice <= k

    def __gt__(self, other):
        k = self._cmp_key(other)
        return NotImplemented if k is None else self.twice > k

    def __ge__(self, other):
        k = self._cmp_key(other)
        return NotImplemented if k is None else self.twice >= k

    def __hash__(self):
        # equals hash(Fraction(twice, 2)), so a HalfInt key finds the entry
        # of the int or Fraction of equal value, matching __eq__
        t = self.twice
        if not t & 1:
            return hash(t >> 1)
        if t > 0:
            return t % _HASH_MODULUS * _HASH_HALF % _HASH_MODULUS
        # hash() turns a -1 from here into -2, as Fraction does by hand
        return -(-t % _HASH_MODULUS * _HASH_HALF % _HASH_MODULUS)

    def __str__(self):
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self):
        return f"HalfInt({self.twice})"


# The slot's own setter: it skips the guard in __setattr__, and costs far
# less per call than object.__setattr__.
_set_twice = HalfInt.__dict__["twice"].__set__


def h(value) -> HalfInt:
    """Coerce an int, Fraction, HalfInt or 'p/2' string to HalfInt."""
    if isinstance(value, HalfInt):
        return value
    if isinstance(value, int):
        return HalfInt.of(value)
    if isinstance(value, str):
        return HalfInt.parse(value)
    if isinstance(value, Fraction):
        if value.denominator in (1, 2):
            return HalfInt(int(value * 2))
        raise ValueError(f"{value} is not a half-integer")
    raise TypeError(f"cannot coerce {value!r} to HalfInt")


def hmax(a, b):
    """max of two floors where None (EXACT) acts as -infinity."""
    if a is EXACT:
        return b
    if b is EXACT:
        return a
    return a if a >= b else b


def hmin(a, b):
    """min of two floors where None (EXACT) acts as -infinity."""
    if a is EXACT or b is EXACT:
        return EXACT
    return a if a <= b else b
