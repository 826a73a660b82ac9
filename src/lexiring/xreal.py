"""Exact nonnegative rationals extended with infinity.

``XReal`` is the residue scalar used throughout the library: an
arbitrary-precision fraction ``num/den`` kept in lowest terms, or the
single point at infinity.  Infinity is encoded as ``den == 0`` with
``num == 1`` so equality and hashing stay structural.

Arithmetic conventions (these are load-bearing, not defaults):
  * ``inf + a == a + inf == inf``
  * ``inf * a == a * inf == inf`` for ``a > 0``
  * ``0 * inf == inf * 0 == 0``  (the absorbing-zero law must hold)
Division is deliberately partial: dividing by zero, by infinity, or
dividing infinity raises :class:`~lexiring.errors.DomainError`.
"""

from __future__ import annotations

from math import gcd

from .errors import DomainError


class XReal:
    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        if den == 0:
            # infinity; normalize so there is exactly one representation
            self.num = 1
            self.den = 0
            return
        if num < 0 or den < 0:
            raise DomainError(f"negative rational {num}/{den} is not representable")
        g = gcd(num, den)
        self.num = num // g
        self.den = den // g

    # -- predicates ------------------------------------------------------

    @property
    def is_inf(self) -> bool:
        return self.den == 0

    @property
    def is_zero(self) -> bool:
        return self.num == 0 and self.den != 0

    @property
    def is_integral(self) -> bool:
        return self.den == 1

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "XReal") -> "XReal":
        if self.den == 0 or other.den == 0:
            return INF
        return XReal(self.num * other.den + other.num * self.den, self.den * other.den)

    def __mul__(self, other: "XReal") -> "XReal":
        if self.den == 0:
            return ZERO if other.is_zero else INF
        if other.den == 0:
            return ZERO if self.is_zero else INF
        return XReal(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "XReal") -> "XReal":
        if self.den == 0:
            raise DomainError("cannot divide infinity")
        if other.den == 0:
            raise DomainError("cannot divide by infinity")
        if other.num == 0:
            raise DomainError("division by zero")
        return XReal(self.num * other.den, self.den * other.num)

    def minus(self, other: "XReal") -> "XReal":
        """Truncated difference; defined only for self >= other, inf - inf excluded."""
        if self.den == 0:
            if other.den == 0:
                raise DomainError("inf - inf is undefined")
            return INF
        if other.den == 0 or other > self:
            raise DomainError("difference would be negative")
        return XReal(self.num * other.den - other.num * self.den, self.den * other.den)

    # -- order -----------------------------------------------------------

    def _cmp(self, other: "XReal") -> int:
        if self.den == 0:
            return 0 if other.den == 0 else 1
        if other.den == 0:
            return -1
        lhs = self.num * other.den
        rhs = other.num * self.den
        return (lhs > rhs) - (lhs < rhs)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        return isinstance(other, XReal) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- formatting ------------------------------------------------------

    def __str__(self) -> str:
        if self.den == 0:
            return "inf"
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"

    def __repr__(self) -> str:
        return f"XReal({self})"


ZERO = XReal(0)
ONE = XReal(1)
INF = XReal(1, 0)

