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
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

from .dyadic import DyadicScalar, ONE
from .fourier import FunctionTable, a_norm, exact_sum, fwht
from .groups import DualSubspace, GroupDim, _unit_labels, as_dim

__all__ = [
    "PointSet",
    "ResidualTable",
    "residual",
    "residual_l1",
    "residual_norms",
    "frac_product",
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

    def indicator(self) -> FunctionTable:
        return FunctionTable._adopt(self.dim, self._indicator_array(), 0)

    def _indicator_array(self, dtype=np.int64) -> np.ndarray:
        order = self.dim.order
        nbytes = max(1, order // 8)
        raw = np.frombuffer(self.bits.to_bytes(nbytes, "little"),
                            dtype=np.uint8)
        return np.unpackbits(raw, bitorder="little")[:order].astype(dtype)

    def bool_mask(self) -> np.ndarray:
        return self._indicator_array(bool)

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


def set_a_norm(a: PointSet) -> DyadicScalar:
    return a_norm(fwht(a.indicator()))


def residual(a: PointSet, v: DualSubspace) -> ResidualTable:
    """chi_A minus its coset averaging; mean zero on every coset."""
    n = a.dim.n
    d = v.dim
    # Labels are linear in x, so the label of x + e_j is x's label XOR
    # e_j's: the whole group's table doubles over the n unit vectors.
    syn = np.zeros(a.dim.order, dtype=np.int64)
    for j, u in enumerate(_unit_labels(v, n)):
        np.bitwise_xor(syn[:1 << j], u, out=syn[1 << j:2 << j])
    ind = a._indicator_array()
    counts = np.bincount(syn[ind != 0], minlength=1 << d)
    nums = (ind << (n - d)) - counts[syn]
    return ResidualTable(FunctionTable._adopt(a.dim, nums, n - d), v, a)


def residual_norms(counts: np.ndarray,
                   n: int) -> Tuple[DyadicScalar, DyadicScalar]:
    """(||f_V||_1, ||f_V||_2^2) from A's count c in each of the 2^d cosets.

    f_V is 1 - c/m on c points of a coset of m = 2^(n - d) and -c/m on the
    rest, so ||f_V||_1 = sum 2c(m - c) / 2^(2n - d) and ||f_V||_2^2 is half.
    """
    d = counts.size.bit_length() - 1
    m = 1 << (n - d)
    # 2^d terms of at most m * m: at most 2^(2n - d) <= 2^60 for n <= 30.
    total = exact_sum(counts, m - counts)
    return (DyadicScalar(2 * total, 2 * n - d),
            DyadicScalar(total, 2 * n - d))


def residual_l1(fv: ResidualTable) -> DyadicScalar:
    """||f_V||_1, computed twice: directly, and as 2 <chi_A, f_V>.

    The two routes must agree exactly for every set and subspace; a
    mismatch means broken arithmetic, not a bad input.
    """
    t = fv.table
    shift = t.exp + t.dim.n
    # 2^n numerators of magnitude at most 2^(n - dim V): at most 2^(2n).
    bound = t.peak * len(t)
    direct = DyadicScalar(exact_sum(t.nums, absolute=True, bound=bound),
                          shift)
    doubled = DyadicScalar(
        2 * exact_sum(t.nums[fv.source.bool_mask()], bound=bound), shift)
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
    ds = [d if type(d) in (Fraction, int) else Fraction(d) for d in deltas]
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
