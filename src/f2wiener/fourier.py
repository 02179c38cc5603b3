"""Dyadic-valued tables on F2^n and their exact Walsh-Hadamard transforms.

A table stores one shared exponent and an array of integer numerators, so
the butterfly only ever adds and subtracts integers.  With the probability
normalization used here, hat(f)(g) = 2^-n * sum_x f(x) (-1)^<g,x>, the
forward transform adds n to the exponent and the inverse adds nothing.

Every table also stores its peak, max|num| over its stored numerators, as a
Python int.  It is found in the one scan that picks int64 or object storage,
and it bounds what the exact routes below reach: the transforms pass it to
_kernels.wht_rows, which picks its route from it, and the norms and the
Beckner product pass it to exact_sum and exact_product, which pick their
dtype from it.  So no table is rescanned for its bound.  Tables the
package builds itself hand their fresh arrays over without a copy
(_adopt); the public constructors copy.
"""
from __future__ import annotations

import operator
from fractions import Fraction
from typing import Optional, Tuple, Union

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
    return max(int(nums.max()), -int(nums.min()))


def _widen(peak: int, *arrays: np.ndarray) -> tuple:
    """The arrays as they are if all are int64 and peak <= 2^63 - 1, else
    object copies of Python ints.  peak bounds every |value| the caller's
    one numpy expression reaches, so the expression is exact either way."""
    if peak <= _I64_MAX and all(a.dtype == np.int64 for a in arrays):
        return arrays
    return tuple(a.astype(object) for a in arrays)


def _narrow(arr: np.ndarray, copy: bool = True) -> Tuple[np.ndarray, int]:
    """(The integers in arr, max|v|), stored as int64 when every |v| <=
    2^63 - 1, else as an object array of Python ints (so uint64 above
    2^63 - 1 and int64 -2^63, whose magnitude wraps under np.abs, stay
    exact).  copy=False keeps arr itself when it is already stored so."""
    kind = arr.dtype.kind
    if kind == "O":
        if copy:
            # index(), unlike int(), refuses 2.5 instead of truncating it.
            arr = np.array([operator.index(v) for v in arr], dtype=object)
            copy = False
    elif kind not in "iu":
        raise TypeError("numerators must be integers")
    peak = _int_minmax(arr)
    return arr.astype(np.int64 if peak <= _I64_MAX else object,
                      copy=copy), peak


class _DyadicTable:
    """Shared storage for function tables and spectra."""

    __slots__ = ("dim", "nums", "exp", "peak")

    def __init__(self, dim: Union[GroupDim, int], nums, exp: int):
        d = as_dim(dim)
        if exp < 0:
            raise ValueError("table exponent must be non-negative")
        arr = np.asarray(nums)
        if arr.shape != (d.order,):
            raise ValueError(
                f"expected {d.order} entries, got shape {arr.shape}")
        self._store(d, *_narrow(arr), exp)

    @classmethod
    def _adopt(cls, dim: GroupDim, arr: np.ndarray, exp: int):
        # For arrays of 2^n integers the package has just built and hands
        # over: no checks and no copy; arr becomes read-only.
        obj = object.__new__(cls)
        obj._store(dim, *_narrow(arr, copy=False), exp)
        return obj

    def _store(self, d: GroupDim, arr: np.ndarray, peak: int, exp: int):
        # Strip powers of two shared by every numerator; all-zero -> exp 0.
        if peak == 0:
            exp = 0
        elif exp > 0:
            acc = int(np.bitwise_or.reduce(arr))
            shift = min(exp, (acc & -acc).bit_length() - 1)
            if shift:
                arr = arr >> shift
                peak >>= shift
                if arr.dtype == object and peak <= _I64_MAX:
                    arr = arr.astype(np.int64)
                exp -= shift
        arr.setflags(write=False)
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "nums", arr)
        object.__setattr__(self, "exp", exp)
        object.__setattr__(self, "peak", peak)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __len__(self) -> int:
        return self.dim.order

    def __getitem__(self, i: int) -> DyadicScalar:
        return DyadicScalar(int(self.nums[i]), self.exp)

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


def _butterfly_copy(t: _DyadicTable) -> np.ndarray:
    """Fresh array holding the unnormalized WHT of t.nums, always exact.

    Each butterfly stage at most doubles the largest absolute value, so
    t.peak * 2^n bounds every intermediate.
    """
    out = _widen(t.peak << t.dim.n, t.nums)[0].copy()
    _kernels.wht_rows(out.reshape(1, -1), t.peak)
    return out


def fwht(f: FunctionTable) -> Spectrum:
    """Exact spectrum with hat(f)(g) = 2^-n sum_x f(x) (-1)^<g,x>."""
    return Spectrum._adopt(f.dim, _butterfly_copy(f), f.exp + f.dim.n)


def inverse_fwht(s: Spectrum) -> FunctionTable:
    """Exact inverse; f(x) = sum_g hat(f)(g) (-1)^<g,x> (no 2^-n factor)."""
    return FunctionTable._adopt(s.dim, _butterfly_copy(s), s.exp)


def exact_sum(x: np.ndarray, y: Optional[np.ndarray] = None,
              absolute: bool = False, *, x_peak: Optional[int] = None,
              y_peak: Optional[int] = None) -> int:
    """Exact sum of x, of |x| (absolute) or of x * y, as a Python int.

    max|x| * max|y| * size bounds every term and every partial sum.
    x_peak and y_peak, when given, are bounds on max|x| and max|y| (a
    table's peak), so x and y are not scanned for them.
    """
    x = x.ravel()
    if x_peak is None:
        x_peak = _int_minmax(x)
    if y is None:
        (x,) = _widen(x_peak * x.size, x)
        return int((np.abs(x) if absolute else x).sum())
    y = y.ravel()
    if y.shape != x.shape:
        raise ValueError("exact_sum needs arrays of one length")
    if y_peak is None:
        y_peak = _int_minmax(y)
    x, y = _widen(x_peak * y_peak * x.size, x, y)
    return int(np.dot(x, y))


def exact_product(x: np.ndarray, y: np.ndarray, *,
                  x_peak: Optional[int] = None,
                  y_peak: Optional[int] = None) -> np.ndarray:
    """Exact elementwise x * y; max|x| * max|y| bounds every product.

    x_peak and y_peak are as in exact_sum.
    """
    if x_peak is None:
        x_peak = _int_minmax(x)
    if y_peak is None:
        y_peak = _int_minmax(y)
    x, y = _widen(x_peak * y_peak, x, y)
    return x * y


def _abs_sum(nums: np.ndarray, peak: Optional[int] = None) -> int:
    return exact_sum(nums, absolute=True, x_peak=peak)


def _sq_sum(nums: np.ndarray, peak: Optional[int] = None) -> int:
    return exact_sum(nums, nums, x_peak=peak, y_peak=peak)


def a_norm(s: Spectrum) -> DyadicScalar:
    """Fourier-algebra (Wiener) norm: sum of |hat(f)(g)| over all g."""
    return DyadicScalar(_abs_sum(s.nums, s.peak), s.exp)


def l1_norm(f: FunctionTable) -> DyadicScalar:
    """Mean of |f| over the group (probability normalization)."""
    return DyadicScalar(_abs_sum(f.nums, f.peak), f.exp + f.dim.n)


def l2_norm_sq(f: FunctionTable) -> DyadicScalar:
    """Mean of f^2; by Parseval equals the spectrum's plain sum of squares."""
    return DyadicScalar(_sq_sum(f.nums, f.peak), 2 * f.exp + f.dim.n)


def spectrum_l2_sq(s: Spectrum) -> DyadicScalar:
    return DyadicScalar(_sq_sum(s.nums, s.peak), 2 * s.exp)


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
