"""The group F2^n, its self-dual pairing, and subspaces of the dual.

Points and characters are both n-bit integer masks; the pairing is the
parity of the AND.  Subspaces carry a canonical reduced-row-echelon basis
(rows sorted by pivot, pivot = lowest set bit), so equal subspaces compare
equal as tuples.  subspace_extend grows a basis; a subspace does not list
its members, which the iteration builds as V grows (StepState.grow).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, List, Sequence, Tuple

import numpy as np

__all__ = [
    "HARD_DIM_CAP",
    "HARD_EXP_CAP",
    "GroupDim",
    "as_dim",
    "char_sign",
    "DualSubspace",
    "subspace_extend",
    "annihilator_basis",
    "label_table",
    "kernel_dims",
    "subspace_batches",
    "all_subspaces",
    "subspace_count",
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


def as_dim(dim) -> GroupDim:
    return dim if isinstance(dim, GroupDim) else GroupDim(dim)


def char_sign(gamma: int, x: int) -> int:
    """Character value (-1)^<gamma, x> as +-1: the pairing <gamma, x> is
    the parity of the AND of the two masks."""
    return 1 - 2 * ((gamma & x).bit_count() & 1)


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

    def reduce_array(self, gammas: np.ndarray) -> np.ndarray:
        """reduce() applied to every entry of an integer array of masks, in
        its own type, which must hold every basis row."""
        out = gammas.copy()
        pick = np.empty_like(out)
        for r in self.basis:
            _clear_pivot(out, r, pick)
        return out


def _clear_pivot(gammas: np.ndarray, r: int, pick: np.ndarray) -> None:
    """Add the row r to every entry of gammas with r's pivot bit set, in
    place; pick is scratch of gammas' shape and type."""
    np.right_shift(gammas, _pivot(r), out=pick)
    pick &= 1
    pick *= r
    gammas ^= pick


# subspace_extend reduces the masks this many at a time, so its scratch
# stays small however large the mask array.
_EXTEND_CHUNK = 1 << 16


def subspace_extend(v: DualSubspace, masks: Sequence[int]) -> DualSubspace:
    """Smallest subspace containing v and every mask.

    The masks are reduced against the basis a chunk at a time, and each
    survivor becomes a new row, so the basis grows once per added
    dimension; it is canonical, so the result equals adding the masks one
    by one.  An int32 array of masks is reduced in int32 while every basis
    row fits.  XOR with non-negative rows never clears a sign bit, so a
    negative mask survives, and is refused there (ValueError).
    """
    masks = np.asarray(masks)
    for lo in range(0, masks.size, _EXTEND_CHUNK):
        rest = masks[lo:lo + _EXTEND_CHUNK]
        if rest.dtype != np.int32 or max(v.basis, default=0) >> 31:
            rest = rest.astype(np.int64)
        rest = v.reduce_array(rest)
        pick = np.empty_like(rest)
        while True:
            g = int(rest[np.argmax(rest != 0)])
            if not g:
                break
            if g < 0:
                raise ValueError("character masks are non-negative")
            # g is zero at every old pivot, so clearing its pivot from the
            # old rows keeps them in RREF, and clearing it from rest leaves
            # rest reduced against the whole new basis.
            p = _pivot(g)
            rows = [r ^ g if (r >> p) & 1 else r for r in v.basis]
            rows.append(g)
            rows.sort(key=_pivot)
            v = DualSubspace._unchecked(tuple(rows))
            _clear_pivot(rest, g, pick)
    return v


def _check_bound(basis: tuple, n: int) -> None:
    if basis and max(basis) >> n:
        raise ValueError("basis mask exceeds the group dimension")


def _annihilators(rows: np.ndarray, pivots: Sequence[int],
                  n: int) -> np.ndarray:
    """Annihilator bases of RREF bases that share one pivot set.

    rows is (B, d) int64, row i of every basis having pivot pivots[i].  The
    result is (B, n - d): one vector per non-pivot coordinate j, in
    increasing j, equal to e_j plus the pivot of every row with bit j set.
    In RREF no row holds another row's pivot, so these span the annihilator
    and |v| * |ann| = 2**n.
    """
    free = np.array([j for j in range(n) if j not in pivots], dtype=np.int64)
    out = np.repeat(np.int64(1) << free[None, :], len(rows), axis=0)
    for i, p in enumerate(pivots):
        out |= ((rows[:, i, None] >> free) & 1) << p
    return out


def annihilator_basis(v: DualSubspace, n: int) -> List[int]:
    """Point-space basis of the annihilator {x : <g, x> = 0 for all g in v}.

    One basis vector per non-pivot coordinate, in increasing order (see
    _annihilators).  A subspace from all_subspaces carries its basis for
    the n it was enumerated in; any other goes through the same formula.
    """
    stored = v.__dict__.get("_annihilator")
    if stored is not None and stored[0] == n:
        return list(stored[1])
    if n > HARD_DIM_CAP:  # the formula works in int64
        raise ValueError(f"group dimension {n} above {HARD_DIM_CAP}")
    _check_bound(v.basis, n)
    rows = np.array([v.basis], dtype=np.int64).reshape(1, v.dim)
    return _annihilators(rows, [_pivot(r) for r in v.basis], n)[0].tolist()


def label_table(chars: np.ndarray, n: int,
                dtype=np.int64) -> Tuple[np.ndarray, np.ndarray]:
    """(labels, dims) for a stack of character lists on F2^n.

    chars is (T, K) int64.  labels is (T, 2^n) in the integer type dtype,
    which must hold K bits: bit i of labels[t, x] is <chars[t, i], x>, so
    x's label names its coset of the annihilator of V_t, the span of row
    t's characters (a zero character adds a bit that is always 0).  Labels
    are linear in x, so the label of x + e_j is x's label XOR e_j's, and
    the table doubles over the n unit vectors; bit i of e_j's label is bit
    j of chars[t, i].  dims[t] = dim V_t is the F2 rank of row t, read off
    the kernel: the 2^(n - dims[t]) points with label 0.
    """
    if chars.size and chars.min() < 0:
        raise ValueError("character masks are non-negative")
    _check_bound((chars.max(initial=0),), n)
    rows, width = chars.shape
    weights = np.int64(1) << np.arange(width, dtype=np.int64)
    units = (((chars[:, None, :] >> np.arange(n, dtype=np.int64)[:, None])
              & 1) @ weights).astype(dtype)
    labels = np.zeros((rows, 1 << n), dtype=dtype)
    for j in range(n):
        np.bitwise_xor(labels[:, :1 << j], units[:, j, None],
                       out=labels[:, 1 << j:2 << j])
    return labels, kernel_dims(np.count_nonzero(labels == 0, axis=1), n)


def kernel_dims(kernel: np.ndarray, n: int) -> np.ndarray:
    """dim V for each annihilator size 2^(n - dim V) in kernel, as int64."""
    # kernel is a power of two, 2^k, and k ones make up kernel - 1.
    return n - np.bitwise_count(kernel - 1).astype(np.int64)


SUBSPACE_BATCH = 256


def subspace_batches(n: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Every subspace of F2^n as (rows, annihilators) int64 array pairs.

    For each pivot set {p_1 < ... < p_d}, in order of d and then of
    itertools.combinations, the free bits of row i are the non-pivot
    coordinates above p_i.  Each assignment t gives one RREF basis, each
    subspace exactly once: the bits of t fill the free bits of the last
    row first, lowest bit first, so t counts in itertools.product order
    over each row's subsets.  rows is (B, d) and annihilators (B, n - d)
    (see _annihilators), with B at most SUBSPACE_BATCH.
    """
    for d in range(n + 1):
        for pivots in itertools.combinations(range(n), d):
            # bit q of t sets bit b of row i, for the q-th (i, b) here:
            # the last row's free bits first, lowest first
            places = [(i, b) for i in reversed(range(d))
                      for b in range(pivots[i] + 1, n) if b not in pivots]
            lead = np.array([[1 << p for p in pivots]], dtype=np.int64)
            total = 1 << len(places)
            for start in range(0, total, SUBSPACE_BATCH):
                t = np.arange(start, min(total, start + SUBSPACE_BATCH),
                              dtype=np.int64)
                rows = np.repeat(lead, len(t), axis=0)
                for q, (i, b) in enumerate(places):
                    rows[:, i] |= ((t >> q) & 1) << b
                yield rows, _annihilators(rows, pivots, n)


def all_subspaces(n: int) -> Iterator[DualSubspace]:
    """Every subspace of F2^n, in subspace_batches order.

    Each one carries its annihilator basis for n, which annihilator_basis
    returns without recomputing; it is not a dataclass field, so equality,
    hash and repr stay those of the basis.
    """
    new = object.__new__
    for rows, anns in subspace_batches(n):
        for basis, ann in zip(rows.tolist(), anns.tolist()):
            # frozen, so fill the instance dict as _unchecked does
            v = new(DualSubspace)
            attrs = v.__dict__
            attrs["basis"] = tuple(basis)
            attrs["_annihilator"] = (n, ann)
            yield v


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
