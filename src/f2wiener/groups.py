"""The group F2^n, its self-dual pairing, and subspaces of the dual.

Points and characters are both n-bit integer masks; the pairing is the
parity of the AND.  Subspaces carry a canonical reduced-row-echelon basis
(rows sorted by pivot, pivot = lowest set bit), so equal subspaces compare
equal as tuples.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, List, Sequence

import numpy as np

__all__ = [
    "HARD_DIM_CAP",
    "HARD_EXP_CAP",
    "GroupDim",
    "as_dim",
    "parity",
    "char_sign",
    "DualSubspace",
    "subspace_insert",
    "subspace_extend",
    "annihilator_basis",
    "coset_index_table",
    "all_subspaces",
    "subspace_count",
    "random_subspace",
]

HARD_DIM_CAP = 30
# Largest exponent taken from outside (certificates, profile alphas): no
# exact value on a group the tool accepts has a denominator above
# 4^HARD_DIM_CAP.
HARD_EXP_CAP = 2 * HARD_DIM_CAP


@dataclass(frozen=True)
class GroupDim:
    """Dimension n of the group F2^n; tables have 2**n entries."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int):
            raise TypeError("group dimension must be an int")
        if not 1 <= self.n <= HARD_DIM_CAP:
            raise ValueError(
                f"group dimension {self.n} outside [1, {HARD_DIM_CAP}]"
            )

    @property
    def order(self) -> int:
        return 1 << self.n

    def points(self) -> range:
        return range(1 << self.n)


def as_dim(dim) -> GroupDim:
    return dim if isinstance(dim, GroupDim) else GroupDim(dim)


def parity(a: int, b: int) -> int:
    """Pairing <a, b> in F2: parity of the AND of the two masks."""
    return (a & b).bit_count() & 1


def char_sign(gamma: int, x: int) -> int:
    """Character value (-1)^<gamma, x> as +-1."""
    return 1 - 2 * parity(gamma, x)


def _pivot(row: int) -> int:
    return (row & -row).bit_length() - 1


@dataclass(frozen=True)
class DualSubspace:
    """Subspace of the dual group, held as a canonical RREF basis."""

    basis: tuple = field(default=())

    def __post_init__(self):
        rows = self.basis
        prev = -1
        for i, r in enumerate(rows):
            if r <= 0:
                raise ValueError("basis rows must be positive masks")
            p = _pivot(r)
            if p <= prev:
                raise ValueError("basis rows must be sorted by pivot")
            prev = p
            for j, other in enumerate(rows):
                if i != j and (other >> p) & 1:
                    raise ValueError("basis is not fully reduced")

    @classmethod
    def _unchecked(cls, basis: tuple) -> "DualSubspace":
        # Fast path for callers whose rows are RREF by construction.
        obj = object.__new__(cls)
        object.__setattr__(obj, "basis", basis)
        return obj

    @classmethod
    def trivial(cls) -> "DualSubspace":
        return cls(())

    @classmethod
    def span(cls, masks: Sequence[int]) -> "DualSubspace":
        return subspace_extend(cls.trivial(), masks)

    @classmethod
    def full(cls, n: int) -> "DualSubspace":
        return cls(tuple(1 << i for i in range(n)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def order(self) -> int:
        return 1 << len(self.basis)

    def reduce(self, gamma: int) -> int:
        """Residue of gamma modulo the subspace (zero iff member)."""
        for r in self.basis:
            if (gamma >> _pivot(r)) & 1:
                gamma ^= r
        return gamma

    def contains(self, gamma: int) -> bool:
        return self.reduce(gamma) == 0

    def is_subspace_of(self, other: "DualSubspace") -> bool:
        return all(other.contains(r) for r in self.basis)

    def elements(self) -> List[int]:
        """All 2**dim members, by doubling over the basis."""
        return self.element_array().tolist()

    def element_array(self) -> np.ndarray:
        """elements() as an int64 array, in the same order."""
        elems = np.zeros(1, dtype=np.int64)
        for r in self.basis:
            elems = np.concatenate((elems, elems ^ np.int64(r)))
        return elems

    def reduce_array(self, gammas: np.ndarray) -> np.ndarray:
        """reduce() applied to every entry of an int64 array of masks."""
        out = gammas.copy()
        for r in self.basis:
            out ^= ((out >> _pivot(r)) & 1) * np.int64(r)
        return out


def subspace_insert(v: DualSubspace, gamma: int) -> DualSubspace:
    """Smallest subspace containing v and gamma (v itself if dependent)."""
    if gamma < 0:
        raise ValueError("character masks are non-negative")
    g = v.reduce(gamma)
    if g == 0:
        return v
    p = _pivot(g)
    # g is reduced against v, so clearing p from every old row keeps the
    # rows in RREF.
    rows = [r ^ g if (r >> p) & 1 else r for r in v.basis]
    rows.append(g)
    rows.sort(key=_pivot)
    return DualSubspace._unchecked(tuple(rows))


def subspace_extend(v: DualSubspace, masks: Sequence[int]) -> DualSubspace:
    """Smallest subspace containing v and every mask.

    Every mask is reduced against the basis at once and only a survivor is
    inserted, so subspace_insert runs once per added dimension.  The basis
    is canonical, so the result equals inserting the masks one by one.
    """
    rest = v.reduce_array(np.asarray(masks, dtype=np.int64))
    while True:
        rest = rest[rest != 0]
        if not rest.size:
            return v
        g = int(rest[0])
        v = subspace_insert(v, g)
        # g is zero at every old pivot, so clearing its own pivot leaves
        # rest reduced against the whole new basis.
        rest ^= ((rest >> _pivot(g)) & 1) * np.int64(g)


def annihilator_basis(v: DualSubspace, n: int) -> List[int]:
    """Point-space basis of the annihilator {x : <g, x> = 0 for all g in v}.

    One basis vector per non-pivot coordinate b, in increasing b: e_b plus,
    for every basis row with bit b set, that row's pivot coordinate.
    |v| * |ann| = 2**n.
    """
    basis = v.basis
    if basis and max(basis) >> n:
        raise ValueError("basis mask exceeds the group dimension")
    cols = [1 << b for b in range(n)]
    # Each row adds its pivot to the column of every other bit it has set,
    # then clears its own pivot's column.  In RREF no row holds another
    # row's pivot bit, so exactly the non-pivot columns stay nonzero.
    for r in basis:
        pivot = r & -r
        rest = r ^ pivot
        while rest:
            bit = rest & -rest
            cols[bit.bit_length() - 1] |= pivot
            rest ^= bit
        cols[pivot.bit_length() - 1] = 0
    return [c for c in cols if c]


def coset_index_table(v: DualSubspace, n: int, pts: np.ndarray) -> np.ndarray:
    """Coset label of each point x in pts: bit i is <basis[i], x>."""
    if any(r >= (1 << n) for r in v.basis):
        raise ValueError("basis mask exceeds the group dimension")
    idx = np.zeros(pts.shape, dtype=np.int64)
    for i, r in enumerate(v.basis):
        bits = np.bitwise_count(pts & np.int64(r)).astype(np.int64) & 1
        idx |= bits << i
    return idx


def _subsets(mask: int) -> List[int]:
    out = [0]
    s = mask
    while s:
        low = s & -s
        out += [x | low for x in out]
        s ^= low
    return out


def all_subspaces(n: int) -> Iterator[DualSubspace]:
    """Every subspace of an n-dimensional F2 space, via RREF enumeration.

    For each pivot set {p_1 < ... < p_d} the free bits of row i are the
    non-pivot coordinates above p_i; every assignment gives one subspace,
    each exactly once.
    """
    for d in range(n + 1):
        for pivots in itertools.combinations(range(n), d):
            pivot_mask = 0
            for p in pivots:
                pivot_mask |= 1 << p
            choices = []
            for p in pivots:
                free = 0
                for b in range(p + 1, n):
                    if not (pivot_mask >> b) & 1:
                        free |= 1 << b
                choices.append([(1 << p) | s for s in _subsets(free)])
            for rows in itertools.product(*choices):
                yield DualSubspace._unchecked(rows)


def subspace_count(n: int) -> int:
    """Total number of subspaces (sum of Gaussian binomials at q=2)."""
    total = 0
    for d in range(n + 1):
        num = den = 1
        for i in range(d):
            num *= (1 << n) - (1 << i)
            den *= (1 << d) - (1 << i)
        total += num // den
    return total


def random_subspace(rng: np.random.Generator, n: int,
                    max_dim: int | None = None) -> DualSubspace:
    if max_dim is None:
        max_dim = n
    v = DualSubspace.trivial()
    for _ in range(int(rng.integers(0, max_dim + 1))):
        v = subspace_insert(v, int(rng.integers(1, 1 << n)))
    return v

