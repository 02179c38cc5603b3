"""Point sets, coset averaging projections, and their residuals.

For a set A and a dual subspace V, the projection chi_A * mu (mu the
normalized indicator of the annihilator of V) is constant on annihilator
cosets and equals the density of A inside each coset.  The residual
f_V = chi_A - chi_A * mu has mean zero on every coset and spectrum
supported off V, so ||f_V||_1 = 2 <chi_A, f_V> (acceptance criterion 4 in
tests/test_acceptance.py checks this on residual tables).  No table of
f_V is built here: residual_norms reads its norms off A's count in each
coset for verify, and the iteration takes its ||f_V||_1 the same way.
residual_l1 and physical_lower_bound work on stacks: one set and one
subspace per row, all on the same F2^n.
"""
from __future__ import annotations

import math
import operator
from typing import Iterable, List, Sequence, Tuple, Union

import numpy as np

from .dyadic import DyadicScalar
from .fourier import _I64_MAX, _check_bound, fwht
from .groups import GroupDim, as_dim, label_table

__all__ = [
    "PointSet",
    "residual_l1",
    "residual_norms",
    "physical_lower_bound",
    "frac_quadratic_gap",
    "set_a_norm",
]


class PointSet:
    """Subset of F2^n stored as a 2**n-bit integer bitmap."""

    __slots__ = ("dim", "bits")

    def __init__(self, dim: Union[GroupDim, int], bits: int):
        d = as_dim(dim)
        if bits < 0 or bits.bit_length() > d.order:
            raise ValueError("bitmap does not fit the group")
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("PointSet is immutable")

    @classmethod
    def from_points(cls, dim: Union[GroupDim, int],
                    points: Iterable[int]) -> "PointSet":
        d = as_dim(dim)
        pts = np.asarray(list(points))
        outside = np.flatnonzero((pts < 0) | (pts >= d.order))
        if outside.size:
            raise ValueError(f"point {pts[outside[0]]} outside the group")
        ind = np.zeros(d.order, dtype=bool)
        ind[pts.astype(np.int64)] = True
        return cls.from_indicator(d, ind)

    @classmethod
    def from_indicator(cls, dim: Union[GroupDim, int],
                       arr: Sequence[int]) -> "PointSet":
        d = as_dim(dim)
        packed = np.packbits(np.asarray(arr) != 0, bitorder="little")
        return cls(d, int.from_bytes(packed.tobytes(), "little"))

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def density(self) -> DyadicScalar:
        return DyadicScalar(self.size, self.dim.n)

    def bool_mask(self) -> np.ndarray:
        order = self.dim.order
        nbytes = max(1, order // 8)
        raw = np.frombuffer(self.bits.to_bytes(nbytes, "little"),
                            dtype=np.uint8)
        return np.unpackbits(raw, bitorder="little")[:order].astype(bool)

    def set_hex(self) -> str:
        width = max(1, self.dim.order // 4)
        return format(self.bits, f"0{width}x")

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return self.dim == other.dim and self.bits == other.bits

    def __hash__(self):
        return hash((self.dim, self.bits))

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"PointSet(n={self.dim.n}, size={self.size})"


def set_a_norm(a: PointSet) -> DyadicScalar:
    """Wiener norm sum_g |hat(chi_A)(g)|, as sum |S| / 2^n; that sum is at
    most |A| * 2^n <= 2^60, so int64 holds it exactly."""
    spec = fwht(a)
    return DyadicScalar(int(np.abs(spec, out=spec).sum()), a.dim.n)


def _index_dtype(top: int) -> np.dtype:
    """int32 if it holds every value up to top in magnitude, else int64."""
    return np.dtype(np.int32 if top < 1 << 31 else np.int64)


def residual_norms(counts: np.ndarray, n: int,
                   dims: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """||f_V||_1 of each row as canonical (nums, exps), from A's counts.

    Row t of the (T, B) int64 array counts holds A's count c in each
    coset of the annihilator of V_t, dims[t] = dim V_t; labels that no
    coset takes count 0.  f_V is 1 - c/m on c points of a coset of
    m = 2^(n - d) and -c/m on the rest, so ||f_V||_1 = sum 2c(m - c) /
    2^(2n - d) = 2(m |A| - sum c^2) / 2^(2n - d), and ||f_V||_2^2 is half
    of it.  m |A| and sum c^2 are at most 2^(2n), so int64 is exact for
    n <= 31 and past that the rows are refused.
    """
    _check_bound(1 << 2 * n, "residual norm", counts)
    dims = np.asarray(dims, dtype=np.int64)
    total = (counts.sum(axis=1) << (n - dims)) - np.einsum(
        "ij,ij->i", counts, counts)
    return _canonical(2 * total, 2 * n - dims)


def _canonical(nums: np.ndarray,
               exps: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each nums[t] / 2^exps[t] in DyadicScalar's canonical form: num odd
    unless exp is 0, and zero as (0, 0); nums are non-negative."""
    # num & -num is num's lowest set bit; its bit count less one is the
    # number of trailing zeros (num = 0 gives 0 & 0 = 0, handled below).
    low = nums & -nums
    shift = np.minimum(np.bitwise_count(np.maximum(low - 1, 0)), exps)
    return nums >> shift, np.where(nums == 0, 0, exps - shift)


def residual_l1(ind: np.ndarray, chars: np.ndarray,
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(nums, exps, dims): ||f_V||_1 of every row as canonical
    nums / 2^exps, and dims[t] = dim V_t, by residual_norms.

    ind is a (T, 2^n) int8 stack of indicators and V_t is the span of the
    characters in row t of the (T, K) int64 array chars.  Keys (row, coset
    label, ind) lie below T 2^(K + 1); they are int32 when that bound fits
    it, else int64.
    """
    rows, order = ind.shape
    n = order.bit_length() - 1
    width = chars.shape[1]
    dtype = _index_dtype(max((rows << (width + 1)) - 1, order))
    keys, dims = label_table(chars, n, dtype)
    keys += (np.arange(rows, dtype=dtype) << width)[:, None]
    keys <<= 1
    keys |= ind
    # One bincount over (row, coset label, ind), labels being below 2^K:
    # bin 2k + 1 counts A's points in coset k.
    counts = np.bincount(keys.ravel(), minlength=rows << (width + 1))
    return (*residual_norms(counts.reshape(rows, -1, 2)[..., 1], n, dims),
            dims)


def physical_lower_bound(sizes: np.ndarray, n: int,
                         dims: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Exact 2 |V|^-1 {alpha |V|} (1 - {alpha |V|}) for alpha = size / 2^n
    and |V| = 2^dim, row by row, as canonical (nums, exps).

    This is the sharp floor for ||f_V||_1 at density alpha; it is attained
    by unions of annihilator cosets plus one partial coset.  With m =
    2^(n - dim) and r = size mod m, {alpha |V|} = r / m, so the floor is
    r (m - r) / 2^(2n - dim - 1).
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    dims = np.asarray(dims, dtype=np.int64)
    if ((sizes < 0) | (sizes > 1 << n) | (dims < 0) | (dims > n)).any():
        raise ValueError("sizes must lie in [0, 2^n] and dims in [0, n]")
    m = np.int64(1) << (n - dims)
    r = sizes & (m - 1)
    return _canonical(r * (m - r), 2 * n - dims - 1)


def frac_quadratic_gap(nums: np.ndarray, dens: np.ndarray, m: np.ndarray,
                       ) -> Tuple[List[int], List[int], List[int]]:
    """(lhs, rhs, squares): row r's sum(d - d^2) = lhs[r] / squares[r] and
    g(1-g) = rhs[r] / squares[r], g the fractional part of sum(d).

    Row r's deltas are nums[r, i] / dens[r, i] for i < m[r]; the columns
    after them only pad.  The left side dominates the right for any deltas
    in [0, 1]; exact over general rationals, not only dyadics.
    """
    nums, dens, m = np.asarray(nums), np.asarray(dens), np.asarray(m)
    used = np.arange(nums.shape[1]) < m[:, None]
    outside = np.flatnonzero(used & ((dens < 1) | (nums < 0) | (nums > dens)))
    if outside.size:
        r, i = divmod(int(outside[0]), nums.shape[1])
        raise ValueError(f"delta {nums[r, i]}/{dens[r, i]} outside [0, 1]")
    # Integers over the row's least common denominator L: d_i = a_i / L, so
    # sum(d - d^2) = (L sum a - sum a^2) / L^2 and g = (sum a mod L) / L.
    # Every a_i is at most L, so each sum is at most width * L^2: rows with
    # width * L^2 < 2^63 (for eight deltas, L < 2^30) are summed as int64
    # rows, and the rest, whose L^2 can pass 2^63 (eight dens up to 64 give
    # L up to 2^48), in Python ints.  np.lcm gives a row's L exactly while
    # the product of its dens stays below 2^62.
    dens = np.where(used, dens, 1).astype(np.int64)
    nums = np.where(used, nums, 0).astype(np.int64)
    fits = dens.prod(axis=1, dtype=np.float64) < 2.0 ** 62
    lcd = np.lcm.reduce(np.where(fits[:, None], dens, 1), axis=1, initial=1)
    fits &= lcd <= math.isqrt(_I64_MAX // max(nums.shape[1], 1))
    lcd[~fits] = 1
    a = nums * (lcd[:, None] // dens)
    total = a.sum(axis=1)
    g = total % lcd
    lhs = (lcd * total - (a * a).sum(axis=1)).tolist()
    rhs = (g * (lcd - g)).tolist()
    squares = (lcd * lcd).tolist()
    for r in np.flatnonzero(~fits).tolist():
        den_row = dens[r].tolist()
        lcd_r = math.lcm(*den_row)
        a_r = [x * (lcd_r // d) for x, d in zip(nums[r].tolist(), den_row)]
        total_r = sum(a_r)
        g_r = total_r % lcd_r
        lhs[r] = lcd_r * total_r - sum(map(operator.mul, a_r, a_r))
        rhs[r] = g_r * (lcd_r - g_r)
        squares[r] = lcd_r * lcd_r
    return lhs, rhs, squares
