"""Exact dyadic rational scalars num / 2**exp.

Every quantity the library certifies (norms, densities, gains) is a dyadic
rational, so plain integer arithmetic on numerators is enough for exactness.
Canonical form: exp >= 0, and num is odd unless exp == 0; zero is (0, 0).
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

__all__ = [
    "DyadicScalar",
    "ZERO",
    "ONE",
]

_PARSE_RE = re.compile(r"^(-?\d+)(?:/2\^(\d+))?$")

DyadicLike = Union["DyadicScalar", int]


class DyadicScalar:
    """Immutable exact rational of the form num / 2**exp."""

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
        if exp < 0:
            raise ValueError("exponent must be non-negative")
        if num == 0:
            exp = 0
        elif exp > 0:
            # num & -num is num's lowest set bit: 2^(trailing zeros).
            shift = min(exp, (num & -num).bit_length() - 1)
            num >>= shift
            exp -= shift
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    def __setattr__(self, name, value):
        raise AttributeError("DyadicScalar is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "DyadicScalar":
        """Parse 'NUM/2^EXP' or a bare integer string."""
        m = _PARSE_RE.match(text.strip())
        if not m:
            raise ValueError(f"cannot parse dyadic scalar from {text!r}")
        num = int(m.group(1))
        exp = int(m.group(2)) if m.group(2) is not None else 0
        return cls(num, exp)

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other: DyadicLike) -> "DyadicScalar":
        if isinstance(other, DyadicScalar):
            return other
        if isinstance(other, int):
            return DyadicScalar(other, 0)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: DyadicLike) -> "DyadicScalar":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        e = max(self.exp, o.exp)
        return DyadicScalar(
            (self.num << (e - self.exp)) + (o.num << (e - o.exp)), e
        )

    __radd__ = __add__

    def __sub__(self, other: DyadicLike) -> "DyadicScalar":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: DyadicLike) -> "DyadicScalar":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: DyadicLike) -> "DyadicScalar":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return DyadicScalar(self.num * o.num, self.exp + o.exp)

    __rmul__ = __mul__

    def __neg__(self) -> "DyadicScalar":
        return DyadicScalar(-self.num, self.exp)

    def __abs__(self) -> "DyadicScalar":
        return DyadicScalar(abs(self.num), self.exp)

    def mul_pow2(self, k: int) -> "DyadicScalar":
        """Exact value * 2**k (k may be negative)."""
        if k >= 0:
            if k <= self.exp:
                return DyadicScalar(self.num, self.exp - k)
            return DyadicScalar(self.num << (k - self.exp), 0)
        return DyadicScalar(self.num, self.exp - k)

    def frac(self) -> "DyadicScalar":
        """Fractional part in [0, 1); exact, no float modulo."""
        return DyadicScalar(self.num & ((1 << self.exp) - 1), self.exp)

    # -- comparisons ---------------------------------------------------

    def _cmp(self, other: DyadicLike) -> int:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented  # type: ignore[return-value]
        e = max(self.exp, o.exp)
        d = (self.num << (e - self.exp)) - (o.num << (e - o.exp))
        return (d > 0) - (d < 0)

    def __eq__(self, other) -> bool:
        if isinstance(other, DyadicScalar):
            return self.num == other.num and self.exp == other.exp
        if isinstance(other, int):
            return self.exp == 0 and self.num == other
        return NotImplemented

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c >= 0

    def __hash__(self):
        return hash(self.as_fraction())

    def __bool__(self):
        return self.num != 0

    # -- conversions ---------------------------------------------------

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    def __float__(self) -> float:
        # Fraction handles numerators too large for float(num) / 2**exp.
        return float(self.as_fraction())

    def decimal_str(self) -> str:
        """Exact decimal expansion (num * 5**exp with the point inserted)."""
        if self.exp == 0:
            return str(self.num)
        digits = str(abs(self.num) * 5 ** self.exp)
        sign = "-" if self.num < 0 else ""
        if len(digits) <= self.exp:
            digits = digits.rjust(self.exp + 1, "0")
        return f"{sign}{digits[:-self.exp]}.{digits[-self.exp:]}"

    def __str__(self) -> str:
        if self.exp == 0:
            return str(self.num)
        return f"{self.num}/2^{self.exp}"

    def __repr__(self) -> str:
        return f"DyadicScalar({self.num}, {self.exp})"


ZERO = DyadicScalar(0)
ONE = DyadicScalar(1)

