"""Extremal sets: unions of shifted annihilator cosets of nested subspaces.

With exponents d_1 < ... < d_k, density alpha = sum_i 2^-d_i, the set
A = union_i (x_1 + ... + x_{i-1} + ann(L_i)) over the nested dual spaces
L_i spanned by the first d_i coordinates has Wiener norm at most k, while
every coset-averaging residual of A stays small.  The shifts x_i flip the
sign of exactly one witness character each, which is what keeps the
spectrum summable.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .dyadic import DyadicScalar, ZERO
from .groups import DualSubspace, GroupDim, as_dim, char_sign
from .setfuncs import PointSet

__all__ = [
    "ExponentOverflow",
    "DyadicDensity",
    "density_family",
    "CosetUnionWitness",
    "build_coset_union",
]


class ExponentOverflow(ValueError):
    """A construction exponent exceeds the ambient dimension."""


@dataclass(frozen=True)
class DyadicDensity:
    """Density sum_i 2**-exponents[i] with strictly increasing exponents."""

    exponents: Tuple[int, ...]

    def __post_init__(self):
        exps = self.exponents
        if not exps:
            raise ValueError("need at least one exponent")
        if any(e < 1 for e in exps):
            raise ValueError("exponents must be >= 1")
        if any(b <= a for a, b in zip(exps, exps[1:])):
            raise ValueError("exponents must be strictly increasing")

    @property
    def k(self) -> int:
        return len(self.exponents)

    def value(self) -> DyadicScalar:
        return sum((DyadicScalar(1, e) for e in self.exponents), ZERO)


def density_family(kind: str, k: int) -> DyadicDensity:
    """Named exponent patterns: geometric4 (2,4,..,2k), double_exp (2^i)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if kind == "geometric4":
        return DyadicDensity(tuple(2 * i for i in range(1, k + 1)))
    if kind == "double_exp":
        return DyadicDensity(tuple(1 << i for i in range(k)))
    raise ValueError(f"unknown density family {kind!r}")


@dataclass(frozen=True)
class CosetUnionWitness:
    """Everything needed to re-check a coset-union construction."""

    dim: GroupDim
    density: DyadicDensity
    lambdas: Tuple[DualSubspace, ...]
    gammas: Tuple[int, ...]
    offsets: Tuple[int, ...]
    parts: Tuple[PointSet, ...]

    def validate(self) -> None:
        exps = self.density.exponents
        k = len(exps)
        n = self.dim.n
        if len(self.lambdas) != k or len(self.gammas) != k:
            raise ValueError("witness arity mismatch")
        if len(self.offsets) != max(0, k - 1):
            raise ValueError("need one offset per part after the first")
        prev = DualSubspace.trivial()
        for i, (lam, d) in enumerate(zip(self.lambdas, exps)):
            if lam.dim != d:
                raise ValueError(f"lambda_{i} has dimension {lam.dim} != {d}")
            if not prev.is_subspace_of(lam):
                raise ValueError("lambdas are not nested")
            g = self.gammas[i]
            if not lam.contains(g) or prev.contains(g):
                raise ValueError(f"gamma_{i} not in lambda_{i} minus lambda_{i-1}")
            prev = lam
        # Each offset must flip its own witness character and no other.
        for i, x in enumerate(self.offsets, start=1):
            for j, g in enumerate(self.gammas):
                want = -1 if j == i - 1 else 1
                if char_sign(g, x) != want:
                    raise ValueError(
                        f"offset x_{i} pairs wrongly with gamma_{j}"
                    )
        seen = 0
        for i, (part, d) in enumerate(zip(self.parts, exps)):
            if part.size != 1 << (n - d):
                raise ValueError(f"part {i} has wrong cardinality")
            if seen & part.bits:
                raise ValueError("parts are not disjoint")
            seen |= part.bits

    def union(self) -> PointSet:
        bits = 0
        for p in self.parts:
            bits |= p.bits
        return PointSet(self.dim, bits)


def build_coset_union(density: DyadicDensity,
                      dim: Union[GroupDim, int],
                      ) -> Tuple[PointSet, CosetUnionWitness]:
    """Canonical coset-union set for a density and ambient dimension.

    Uses the coordinate subspaces L_i = span(e_0..e_{d_i - 1}), witness
    characters gamma_i = e_{d_i - 1} and offsets x_i = e_{d_i - 1} (as
    points).  Deterministic: same input, same set.
    """
    d = as_dim(dim)
    n = d.n
    exps = density.exponents
    if exps[-1] > n:
        raise ExponentOverflow(
            f"exponent {exps[-1]} exceeds the dimension {n}"
        )
    lambdas = tuple(
        DualSubspace(tuple(1 << j for j in range(e))) for e in exps
    )
    gammas = tuple(1 << (e - 1) for e in exps)
    offsets = tuple(1 << (e - 1) for e in exps[:-1])
    parts = []
    for i, e in enumerate(exps):
        # Part i is ann(L_i) + x_1 + ... + x_i; the offsets are distinct bits
        # below e, so it is every 2^e-th point from their sum on.
        ind = np.zeros(d.order, dtype=bool)
        ind[sum(offsets[:i])::1 << e] = True
        parts.append(PointSet.from_indicator(d, ind))
    witness = CosetUnionWitness(d, density, lambdas, gammas, offsets,
                                tuple(parts))
    witness.validate()
    return witness.union(), witness
