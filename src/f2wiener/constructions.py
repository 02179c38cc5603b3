"""Extremal sets: unions of shifted annihilator cosets of nested subspaces.

With exponents d_1 < ... < d_k, density alpha = sum_i 2^-d_i, the set
A = union_i (x_1 + ... + x_{i-1} + ann(L_i)) over the nested dual spaces
L_i spanned by the first d_i coordinates has Wiener norm at most k, while
every coset-averaging residual of A stays small.  The shifts x_i flip the
sign of exactly one witness character each, which is what keeps the
spectrum summable.  A CosetUnionWitness records a construction by these
generators alone (the d_i, L_i, gamma_i and x_i); its union() builds A.
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


def _coordinate_span(d: int) -> DualSubspace:
    """span(e_0..e_{d-1}), whose annihilator is the multiples of 2^d."""
    return DualSubspace._unchecked(tuple(1 << j for j in range(d)))


@dataclass(frozen=True)
class CosetUnionWitness:
    """The generators of a coset-union construction, which fix its set."""

    dim: GroupDim
    density: DyadicDensity
    lambdas: Tuple[DualSubspace, ...]
    gammas: Tuple[int, ...]
    offsets: Tuple[int, ...]

    def validate(self) -> None:
        exps = self.density.exponents
        k = len(exps)
        if len(self.lambdas) != k or len(self.gammas) != k:
            raise ValueError("witness arity mismatch")
        if len(self.offsets) != max(0, k - 1):
            raise ValueError("need one offset per part after the first")
        prev = DualSubspace.trivial()
        for i, (lam, d) in enumerate(zip(self.lambdas, exps)):
            # union() reads ann(lambda_i) as the multiples of 2^d.
            if lam != _coordinate_span(d):
                raise ValueError(f"lambda_{i} is not span(e_0..e_{d - 1})")
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
                        f"offset x_{i} pairs wrongly with gamma_{j}")

    def union(self) -> PointSet:
        """The set: part i (from 0) is ann(lambda_i) + x_1 + ... + x_i,
        every 2^d_i-th point from (x_1 ^ ... ^ x_i) mod 2^d_i on."""
        exps = self.density.exponents
        ind = np.zeros(self.dim.order, dtype=bool)
        shift = 0
        for d, x in zip(exps, self.offsets + (0,)):
            ind[shift & ((1 << d) - 1)::1 << d] = True
            shift ^= x
        # The union has the parts' total size exactly when they are disjoint.
        if np.count_nonzero(ind) != sum(1 << (self.dim.n - d) for d in exps):
            raise ValueError("parts are not disjoint")
        return PointSet.from_indicator(self.dim, ind)


def build_coset_union(density: DyadicDensity,
                      dim: Union[GroupDim, int],
                      ) -> Tuple[PointSet, CosetUnionWitness]:
    """Canonical coset-union set for a density and ambient dimension.

    Uses the coordinate subspaces L_i = span(e_0..e_{d_i - 1}), witness
    characters gamma_i = e_{d_i - 1} and offsets x_i = e_{d_i - 1} (as
    points).  Deterministic: same input, same set.
    """
    d = as_dim(dim)
    exps = density.exponents
    if exps[-1] > d.n:
        raise ExponentOverflow(f"exponent {exps[-1]} exceeds the dimension "
                               f"{d.n}")
    witness = CosetUnionWitness(
        d, density, tuple(_coordinate_span(e) for e in exps),
        tuple(1 << (e - 1) for e in exps),
        tuple(1 << (e - 1) for e in exps[:-1]))
    witness.validate()
    return witness.union(), witness
