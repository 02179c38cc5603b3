"""Dyadic-valued tables on F2^n and their exact Walsh-Hadamard transforms.

A table stores one shared exponent and int64 numerators of magnitude at
most 2^63 - 1 (OverflowError otherwise).  With the probability
normalization used here, hat(f)(g) = 2^-n * sum_x f(x) (-1)^<g,x>, so the
transform adds n to the exponent.

Every table also stores its peak, max|num|, as a Python int, found in the
one scan that checks that bound.  The peak bounds what the exact routes
below reach: fwht passes it to _kernels.wht_rows, which refuses a table
past its float bound, and the norms pass it to exact_sum, which refuses
a sum that could pass 2^63 - 1.  So no table is rescanned for its bound.
Tables the package builds itself hand their fresh arrays over without a
copy (_adopt); the public constructors copy.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import List, Optional, Tuple, Union

import numpy as np

from . import _kernels
from .dyadic import DyadicScalar
from .groups import GroupDim, as_dim

__all__ = [
    "FunctionTable",
    "Spectrum",
    "fwht",
    "a_norm",
    "l1_norm",
    "l2_norm_sq",
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


def _check_bound(bound: int, what: str, *arrays: np.ndarray) -> None:
    """Refuse arrays that are not int64 (TypeError) and a bound on the
    magnitudes an int64 step reaches above 2^63 - 1 (OverflowError)."""
    if any(a.dtype != np.int64 for a in arrays):
        raise TypeError(f"{what} takes int64 arrays")
    if bound > _I64_MAX:
        raise OverflowError(f"{what} bound {bound} is above 2^63 - 1")


def _narrow(arr: np.ndarray, copy: bool = True) -> Tuple[np.ndarray, int]:
    """(The integers in arr as int64, max|v|); refuses non-integers and any
    |v| > 2^63 - 1, such as -2^63, whose magnitude wraps under np.abs.
    copy=False keeps arr itself when it is already int64."""
    kind = arr.dtype.kind
    if kind == "O":
        # index(), unlike int(), refuses 2.5 instead of truncating it, and
        # numpy refuses a Python int past int64 with OverflowError.
        arr = np.array([operator.index(v) for v in arr], dtype=np.int64)
        copy = False
    elif kind not in "iu":
        raise TypeError("numerators must be integers")
    peak = _int_minmax(arr)
    _check_bound(peak, "numerator")
    return arr.astype(np.int64, copy=copy), peak


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
        if arr.dtype.kind == "f" and not isinstance(nums, np.ndarray):
            # numpy reads a list that mixes an int in [2^63, 2^64) with
            # small ones as float64; read it entry by entry, so such an int
            # is refused for its size and a float for its type.
            arr = np.array([operator.index(v) for v in nums], dtype=np.int64)
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
                # arr is the table's own array, copied or adopted.
                arr >>= shift
                peak >>= shift
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


def fwht(f) -> Spectrum:
    """Exact spectrum with hat(f)(g) = 2^-n sum_x f(x) (-1)^<g,x> of a
    FunctionTable f, or of the indicator of a PointSet f; refused when
    max|f| * 2^n > 2^53 (see _kernels.wht_rows).

    A set's indicator is written into the output straight from its
    bitmap, so no int64 table of it stands beside the output.
    """
    out = np.empty(f.dim.order, dtype=np.int64)
    if isinstance(f, _DyadicTable):
        out[...] = f.nums
        peak, exp = f.peak, f.exp
    else:
        out[...] = f.bool_mask()
        peak, exp = min(f.size, 1), 0
    _kernels.wht_rows(out.reshape(1, -1), peak)
    return Spectrum._adopt(f.dim, out, exp + f.dim.n)


def exact_sum(x: np.ndarray, y: Optional[np.ndarray] = None,
              absolute: bool = False, *, bound: Optional[int] = None) -> int:
    """Exact sum of the int64 array x, of |x| (absolute) or of x * y, as a
    Python int.

    bound caps the magnitude of every term and partial sum; by default x
    (and y) are scanned for max|x| * size (times max|y|).  A caller that
    knows a table's peak, or has a tighter proof (Parseval, say), passes
    its own.  Raises OverflowError when bound is above 2^63 - 1.
    """
    arrays = (x.ravel(),) if y is None else (x.ravel(), y.ravel())
    if arrays[-1].shape != arrays[0].shape:
        raise ValueError("exact_sum needs arrays of one length")
    if bound is None:
        bound = x.size * math.prod(map(_int_minmax, arrays))
    _check_bound(bound, "sum", *arrays)
    if y is None:
        return int((np.abs(x) if absolute else x).sum())
    return int(np.dot(*arrays))


def exact_product(x: np.ndarray, y: np.ndarray, *,
                  bound: Optional[int] = None) -> np.ndarray:
    """Exact elementwise x * y of int64 arrays.

    bound caps every |product|; by default it is max|x| * max|y|, and a
    caller that knows the peaks passes their product.  Raises
    OverflowError when bound is above 2^63 - 1.
    """
    if bound is None:
        bound = _int_minmax(x) * _int_minmax(y)
    _check_bound(bound, "product", x, y)
    return x * y


def _abs_sum(t: _DyadicTable) -> int:
    return exact_sum(t.nums, absolute=True, bound=t.peak * len(t))


def _sq_sum(t: _DyadicTable) -> int:
    return exact_sum(t.nums, t.nums, bound=t.peak * t.peak * len(t))


def a_norm(s: Spectrum) -> DyadicScalar:
    """Fourier-algebra (Wiener) norm: sum of |hat(f)(g)| over all g."""
    return DyadicScalar(_abs_sum(s), s.exp)


def l1_norm(f: FunctionTable) -> DyadicScalar:
    """Mean of |f| over the group (probability normalization)."""
    return DyadicScalar(_abs_sum(f), f.exp + f.dim.n)


def l2_norm_sq(f: FunctionTable) -> DyadicScalar:
    """Mean of f^2; by Parseval equals the spectrum's plain sum of squares."""
    return DyadicScalar(_sq_sum(f), 2 * f.exp + f.dim.n)


def lp_norm(nums: np.ndarray, exps, p: float) -> List[float]:
    """Float L^p mean norm of each row nums[t] / 2^exps[t] of an int64
    (T, N) stack; p in {1, 2} agrees with the exact routes."""
    if p < 1:
        raise ValueError("lp_norm requires p >= 1")
    exps = np.asarray(exps, dtype=np.int64)
    vals = np.abs(nums.astype(np.float64))
    # Rounding v to float64 and then scaling by the normal power of two
    # 2^-exp is exact, so each entry equals float(Fraction(v, 2^exp)).
    small = exps <= _LP_MAX_EXP
    vals *= np.ldexp(1.0, -np.where(small, exps, 0))[:, None]
    for t in np.flatnonzero(~small).tolist():
        vals[t] = [abs(float(Fraction(v, 1 << int(exps[t]))))
                   for v in nums[t].tolist()]
    # Each row's mean is reduced alone, as np.mean reduces a single row.
    return [float(m ** (1.0 / p)) for m in np.mean(vals ** p, axis=1)]
