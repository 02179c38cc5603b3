"""Dyadic-valued tables on F2^n and their exact Walsh-Hadamard transforms.

A table stores one shared exponent and an array of integer numerators, so
the butterfly only ever adds and subtracts integers.  With the probability
normalization used here, hat(f)(g) = 2^-n * sum_x f(x) (-1)^<g,x>, the
forward transform adds n to the exponent and the inverse adds nothing.
"""
from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterable, List, Optional, Union

import numpy as np

from . import _kernels
from .dyadic import DyadicScalar
from .groups import GroupDim, as_dim

__all__ = [
    "FunctionTable",
    "Spectrum",
    "fwht",
    "inverse_fwht",
    "a_norm",
    "l1_norm",
    "l2_norm_sq",
    "spectrum_l2_sq",
    "exact_sum",
    "exact_product",
    "lp_norm",
]

_I64_MAX = (1 << 63) - 1
# |v| * 2^-exp stays a normal float64 for 1 <= |v| <= 2^63 up to this exp.
_LP_MAX_EXP = 1000


def _int_minmax(nums: np.ndarray) -> int:
    """Largest absolute numerator, as a Python int."""
    if nums.size == 0:
        return 0
    if nums.dtype == object:
        return max((abs(int(v)) for v in nums.flat), default=0)
    return max(int(nums.max()), -int(nums.min()))


def _narrow(arr: np.ndarray) -> np.ndarray:
    """The integers in arr as int64 when every |v| <= 2^63 - 1, else as an
    object array of Python ints (so uint64 above 2^63 - 1 and int64 -2^63,
    whose magnitude wraps under np.abs, stay exact)."""
    if arr.dtype == object:
        # index(), unlike int(), refuses 2.5 instead of truncating it.
        arr = np.array([operator.index(v) for v in arr], dtype=object)
    elif not np.issubdtype(arr.dtype, np.integer):
        raise TypeError("numerators must be integers")
    if _int_minmax(arr) <= _I64_MAX:
        return arr.astype(np.int64)
    return arr.astype(object)


class _DyadicTable:
    """Shared storage for function tables and spectra."""

    __slots__ = ("dim", "nums", "exp")

    def __init__(self, dim: Union[GroupDim, int], nums, exp: int):
        d = as_dim(dim)
        if exp < 0:
            raise ValueError("table exponent must be non-negative")
        arr = np.asarray(nums)
        if arr.shape != (d.order,):
            raise ValueError(
                f"expected {d.order} entries, got shape {arr.shape}")
        arr = _narrow(arr)
        # Strip powers of two shared by every numerator; all-zero -> exp 0.
        acc = int(np.bitwise_or.reduce(arr))
        if acc == 0:
            exp = 0
            arr = np.zeros(d.order, dtype=np.int64)
        elif exp > 0:
            shift = min(exp, (acc & -acc).bit_length() - 1)
            if shift:
                arr = arr >> shift
                if arr.dtype == object:
                    arr = _narrow(arr)
                exp -= shift
        arr.setflags(write=False)
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "nums", arr)
        object.__setattr__(self, "exp", exp)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zeros(cls, dim: Union[GroupDim, int]):
        d = as_dim(dim)
        return cls(d, np.zeros(d.order, dtype=np.int64), 0)

    @classmethod
    def from_values(cls, dim: Union[GroupDim, int],
                    values: Iterable[Union[DyadicScalar, int, Fraction]]):
        """Build from heterogeneous exact values, raising on non-dyadics."""
        d = as_dim(dim)
        scalars = []
        for v in values:
            if isinstance(v, DyadicScalar):
                scalars.append(v)
            elif isinstance(v, int):
                scalars.append(DyadicScalar(v))
            elif isinstance(v, Fraction):
                scalars.append(DyadicScalar.from_fraction(v))
            else:
                raise TypeError(f"unsupported table value {v!r}")
        if len(scalars) != d.order:
            raise ValueError(f"expected {d.order} values, got {len(scalars)}")
        exp = max((s.exp for s in scalars), default=0)
        nums = [s.num << (exp - s.exp) for s in scalars]
        return cls(d, np.array(nums, dtype=object), exp)

    def __len__(self) -> int:
        return self.dim.order

    def __getitem__(self, i: int) -> DyadicScalar:
        return DyadicScalar(int(self.nums[i]), self.exp)

    def to_dyadics(self) -> List[DyadicScalar]:
        return [DyadicScalar(int(v), self.exp) for v in self.nums]

    def to_fractions(self) -> List[Fraction]:
        den = 1 << self.exp
        return [Fraction(int(v), den) for v in self.nums]

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.dim == other.dim and self.exp == other.exp
                and bool(np.array_equal(self.nums, other.nums)))

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(n={self.dim.n}, exp={self.exp}, "
                f"nums={list(self.nums[:8])}{'...' if len(self) > 8 else ''})")


class FunctionTable(_DyadicTable):
    """Function F2^n -> dyadic rationals, indexed by point mask."""


class Spectrum(_DyadicTable):
    """Fourier coefficients indexed by character mask."""


def _butterfly_copy(nums: np.ndarray, n: int) -> np.ndarray:
    """Fresh array holding the unnormalized WHT of nums, always exact.

    int64 is used only when every intermediate provably fits: each butterfly
    stage at most doubles the largest absolute value, so max|num| * 2**n
    must stay below 2**63.  Otherwise the object-dtype numpy path carries
    arbitrary-precision integers.
    """
    if nums.dtype == np.int64 and _int_minmax(nums) <= (_I64_MAX >> n):
        out = nums.copy()
    else:
        out = nums.astype(object)
    _kernels.wht_rows(out.reshape(1, -1))
    return out


def fwht(f: FunctionTable) -> Spectrum:
    """Exact spectrum with hat(f)(g) = 2^-n sum_x f(x) (-1)^<g,x>."""
    return Spectrum(f.dim, _butterfly_copy(f.nums, f.dim.n), f.exp + f.dim.n)


def inverse_fwht(s: Spectrum) -> FunctionTable:
    """Exact inverse; f(x) = sum_g hat(f)(g) (-1)^<g,x> (no 2^-n factor)."""
    return FunctionTable(s.dim, _butterfly_copy(s.nums, s.dim.n), s.exp)


def exact_sum(x: np.ndarray, y: Optional[np.ndarray] = None,
              absolute: bool = False) -> int:
    """Exact sum of x, of |x| (absolute) or of x * y, as a Python int.

    int64 reduces only when max|x| * max|y| * size <= 2**63 - 1, which
    bounds every term and every partial sum; otherwise, and always for
    object dtype, the terms are summed as Python ints.
    """
    x = x.ravel()
    if y is not None:
        y = y.ravel()
        if y.shape != x.shape:
            raise ValueError("exact_sum needs arrays of one length")
    if not x.size:
        return 0
    if x.dtype == np.int64 and (y is None or y.dtype == np.int64):
        peak = _int_minmax(x) * (1 if y is None else _int_minmax(y))
        if peak * x.size <= _I64_MAX:
            if y is not None:
                return int(np.dot(x, y))
            return int((np.abs(x) if absolute else x).sum())
    if y is not None:
        return sum(int(a) * int(b) for a, b in zip(x.flat, y.flat))
    if absolute:
        return sum(abs(int(v)) for v in x.flat)
    return sum(int(v) for v in x.flat)


def exact_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact elementwise x * y: int64 when the bit lengths of max|x| and
    max|y| sum below 63 (so every product fits), object dtype otherwise."""
    if (x.dtype == np.int64 and y.dtype == np.int64
            and _int_minmax(x).bit_length()
            + _int_minmax(y).bit_length() < 63):
        return x * y
    return np.array([int(a) * int(b) for a, b in zip(x.flat, y.flat)],
                    dtype=object)


def _abs_sum(nums: np.ndarray) -> int:
    return exact_sum(nums, absolute=True)


def _sq_sum(nums: np.ndarray) -> int:
    return exact_sum(nums, nums)


def a_norm(s: Spectrum) -> DyadicScalar:
    """Fourier-algebra (Wiener) norm: sum of |hat(f)(g)| over all g."""
    return DyadicScalar(_abs_sum(s.nums), s.exp)


def l1_norm(f: FunctionTable) -> DyadicScalar:
    """Mean of |f| over the group (probability normalization)."""
    return DyadicScalar(_abs_sum(f.nums), f.exp + f.dim.n)


def l2_norm_sq(f: FunctionTable) -> DyadicScalar:
    """Mean of f^2; by Parseval equals the spectrum's plain sum of squares."""
    return DyadicScalar(_sq_sum(f.nums), 2 * f.exp + f.dim.n)


def spectrum_l2_sq(s: Spectrum) -> DyadicScalar:
    return DyadicScalar(_sq_sum(s.nums), 2 * s.exp)


def lp_norm(f: FunctionTable, p: float) -> float:
    """Float L^p mean norm; p in {1, 2} agrees with the exact routes."""
    if p < 1:
        raise ValueError("lp_norm requires p >= 1")
    if f.nums.dtype == np.int64 and f.exp <= _LP_MAX_EXP:
        # Rounding v to float64 and then scaling by the normal power of two
        # 2^-exp is exact, so each entry equals float(Fraction(v, 2^exp)).
        vals = np.abs(f.nums.astype(np.float64)) * 2.0 ** -f.exp
    else:
        vals = np.array([abs(float(Fraction(int(v), 1 << f.exp)))
                         for v in f.nums.flat], dtype=np.float64)
    return float(np.mean(vals ** p) ** (1.0 / p))
