"""Point sets, coset averaging projections, and their residuals.

For a set A and a dual subspace V, the projection chi_A * mu (mu the
normalized indicator of the annihilator of V) is constant on annihilator
cosets and equals the density of A inside each coset.  The residual
f_V = chi_A - chi_A * mu has mean zero on every coset, spectrum supported
off V, and satisfies the exact identity ||f_V||_1 = 2 <chi_A, f_V>.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple, Union

import numpy as np

from .dyadic import DyadicScalar, ONE
from .fourier import FunctionTable, Spectrum, a_norm, exact_sum, fwht
from .groups import DualSubspace, GroupDim, as_dim, coset_index_table, parity

__all__ = [
    "PointSet",
    "ResidualTable",
    "residual",
    "residual_l1",
    "frac_product",
    "physical_lower_bound",
    "frac_quadratic_gap",
    "set_a_norm",
    "set_spectrum",
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
        bits = 0
        for p in points:
            if not 0 <= p < d.order:
                raise ValueError(f"point {p} outside the group")
            bits |= 1 << p
        return cls(d, bits)

    @classmethod
    def from_indicator(cls, dim: Union[GroupDim, int],
                       arr: Sequence[int]) -> "PointSet":
        d = as_dim(dim)
        packed = np.packbits(np.asarray(arr) != 0, bitorder="little")
        return cls(d, int.from_bytes(packed.tobytes(), "little"))

    @classmethod
    def full(cls, dim: Union[GroupDim, int]) -> "PointSet":
        d = as_dim(dim)
        return cls(d, (1 << d.order) - 1)

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def density(self) -> DyadicScalar:
        return DyadicScalar(self.size, self.dim.n)

    def contains(self, x: int) -> bool:
        return bool((self.bits >> x) & 1)

    def points(self) -> List[int]:
        out = []
        b = self.bits
        while b:
            low = b & -b
            out.append(low.bit_length() - 1)
            b ^= low
        return out

    def indicator(self) -> FunctionTable:
        return FunctionTable(self.dim, self._indicator_array(), 0)

    def _indicator_array(self) -> np.ndarray:
        order = self.dim.order
        nbytes = max(1, order // 8)
        raw = np.frombuffer(self.bits.to_bytes(nbytes, "little"),
                            dtype=np.uint8)
        return np.unpackbits(raw, bitorder="little")[:order].astype(np.int64)

    def bool_mask(self) -> np.ndarray:
        return self._indicator_array().astype(bool)

    def complement(self) -> "PointSet":
        return PointSet(self.dim, self.bits ^ ((1 << self.dim.order) - 1))

    def translate(self, x: int) -> "PointSet":
        return PointSet.from_points(self.dim, [p ^ x for p in self.points()])

    def map_linear(self, rows: Sequence[int]) -> "PointSet":
        """Image under the linear map whose i-th output bit is <rows[i], x>."""
        if len(rows) != self.dim.n:
            raise ValueError("need one row per output bit")
        pts = []
        for p in self.points():
            y = 0
            for i, r in enumerate(rows):
                y |= parity(r, p) << i
            pts.append(y)
        return PointSet.from_points(self.dim, pts)

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


@dataclass(frozen=True)
class ResidualTable:
    """Residual f_V = chi_A minus its coset averages, with its provenance."""

    table: FunctionTable
    subspace: DualSubspace
    source: PointSet


def set_spectrum(a: PointSet) -> Spectrum:
    return fwht(a.indicator())


def set_a_norm(a: PointSet) -> DyadicScalar:
    return a_norm(set_spectrum(a))


def residual(a: PointSet, v: DualSubspace) -> ResidualTable:
    """chi_A minus its coset averaging; mean zero on every coset."""
    n = a.dim.n
    d = v.dim
    syn = coset_index_table(v, n)
    counts = np.bincount(syn[a.bool_mask()], minlength=1 << d)
    nums = (a._indicator_array() << (n - d)) - counts[syn]
    return ResidualTable(FunctionTable(a.dim, nums, n - d), v, a)


def residual_l1(fv: ResidualTable) -> DyadicScalar:
    """||f_V||_1, computed twice: directly, and as 2 <chi_A, f_V>.

    The two routes must agree exactly for every set and subspace; a
    mismatch means broken arithmetic, not a bad input.
    """
    t = fv.table
    shift = t.exp + t.dim.n
    direct = DyadicScalar(exact_sum(t.nums, absolute=True), shift)
    doubled = DyadicScalar(2 * exact_sum(t.nums[fv.source.bool_mask()]),
                           shift)
    if direct != doubled:
        raise ArithmeticError(
            "l1/inner-product identity violated: "
            f"{direct} != {doubled} (n={t.dim.n}, dim V={fv.subspace.dim})"
        )
    return direct


def frac_product(alpha: DyadicScalar, d: int,
                 ) -> Tuple[DyadicScalar, DyadicScalar]:
    """(t, t(1 - t)) for t = {alpha 2^d}, the fractional part of alpha 2^d."""
    t = alpha.mul_pow2(d).frac()
    return t, t * (ONE - t)


def physical_lower_bound(alpha: DyadicScalar, order: int) -> DyadicScalar:
    """Exact 2 |V|^-1 {alpha |V|} (1 - {alpha |V|}) for |V| = order.

    This is the sharp floor for ||f_V||_1 at density alpha; it is attained
    by unions of annihilator cosets plus one partial coset.
    """
    if order < 1 or order & (order - 1):
        raise ValueError("order must be a power of two")
    d = order.bit_length() - 1
    return (frac_product(alpha, d)[1] * 2).mul_pow2(-d)


def frac_quadratic_gap(deltas: Sequence[Union[Fraction, int]],
                       ) -> Tuple[Fraction, Fraction]:
    """(sum(d_i - d_i^2), g(1-g)) with g the fractional part of sum(d_i).

    The left side dominates the right for any d_i in [0, 1]; exact over
    general rationals, not only dyadics.
    """
    ds = [Fraction(d) for d in deltas]
    for d in ds:
        if not 0 <= d.numerator <= d.denominator:
            raise ValueError(f"delta {d} outside [0, 1]")
    # Integers over the least common denominator L: d_i = a_i / L, so
    # sum(d - d^2) = sum a(L - a) / L^2 and g = (sum a mod L) / L.
    lcd = math.lcm(*(d.denominator for d in ds))
    nums = [d.numerator * (lcd // d.denominator) for d in ds]
    g = sum(nums) % lcd
    den = lcd * lcd
    return (Fraction(sum(a * (lcd - a) for a in nums), den),
            Fraction(g * (lcd - g), den))
