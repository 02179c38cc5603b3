"""Small-scale searches for sets of minimal Wiener norm.

The exhaustive search prunes by affine invariance: the norm is unchanged
by translations and by invertible linear maps, so for size >= 1 only sets
containing 0 are scanned, and for size >= 2 only sets containing {0, 1}.
The exhaustive scan reads its candidates a chunk at a time straight into
an index array, with no tuple per candidate, transforms the chunk's rows
and keeps the first minimum in enumeration order.  The annealing search
keeps the unnormalized integer spectrum of the current set and prices each
single-point swap exactly, mostly by four lookups in two transformed tables
(`_kernels.swap_delta`, applied to a run of proposals at once), else by
adding its change in place to an int16 or int32 copy of the spectrum; all
randomness is drawn up front, so a seed fixes the result.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Optional, Union

import numpy as np

from . import _kernels
from .dyadic import DyadicScalar
from .fourier import fwht
from .groups import GroupDim, as_dim
from .setfuncs import PointSet, set_a_norm

__all__ = [
    "BudgetExceeded",
    "AnnealParams",
    "MAX_ANNEAL_STEPS",
    "SearchRecord",
    "min_norm_exhaustive",
    "min_norm_anneal",
    "CSV_COLUMNS",
    "check_ledger",
    "append_record",
]


class BudgetExceeded(ValueError):
    """The raw candidate count exceeds the evaluation budget."""


DEFAULT_BUDGET = 10_000_000

# The pregenerated annealing streams (two int64 index arrays, one float64
# array) take 24 bytes per step, so this cap bounds them at 24 MB.
MAX_ANNEAL_STEPS = 1_000_000

# int64 entries per transformed chunk of the exhaustive scan (1 MiB), so its
# memory does not grow with n.
_CHUNK_ENTRIES = 1 << 17


@dataclass(frozen=True)
class AnnealParams:
    """Start temperature, per-step cooling factor and proposal count.

    Construction raises ValueError unless t0 is finite and > 0,
    0 < cooling <= 1 and 0 <= steps <= MAX_ANNEAL_STEPS.
    """

    t0: float = 1.0
    cooling: float = 0.995
    steps: int = 10_000

    def __post_init__(self):
        real = (int, float)
        if not (isinstance(self.t0, real) and math.isfinite(self.t0)
                and self.t0 > 0):
            raise ValueError(f"t0 must be finite and > 0, not {self.t0!r}")
        if not (isinstance(self.cooling, real) and 0 < self.cooling <= 1):
            raise ValueError(
                f"cooling must lie in (0, 1], not {self.cooling!r}")
        if not (isinstance(self.steps, int)
                and 0 <= self.steps <= MAX_ANNEAL_STEPS):
            raise ValueError(f"steps must lie in [0, {MAX_ANNEAL_STEPS}], "
                             f"not {self.steps!r}")


@dataclass(frozen=True)
class SearchRecord:
    """Outcome of one search; best_norm is recomputed from best_set."""

    n: int
    set_size: int
    method: str
    seed: int
    best_set: PointSet
    best_norm: DyadicScalar
    evaluations: int


def _record(dim: GroupDim, size: int, method: str, seed: int,
            best: PointSet, evaluations: int,
            claimed_total: Optional[int] = None) -> SearchRecord:
    # Independent recomputation; the search's own bookkeeping must agree.
    norm = set_a_norm(best)
    if claimed_total is not None and norm != DyadicScalar(claimed_total,
                                                          dim.n):
        raise ArithmeticError(
            f"search bookkeeping drifted: {claimed_total}/2^{dim.n} "
            f"!= {norm}"
        )
    return SearchRecord(dim.n, size, method, seed, best, norm, evaluations)


def min_norm_exhaustive(dim: Union[GroupDim, int], size: int,
                        budget: int = DEFAULT_BUDGET) -> SearchRecord:
    """Scan all sets of the given size up to affine equivalence.

    The budget check uses the raw binomial count, before pruning, so the
    cost model does not depend on the pruning being sound.
    """
    d = as_dim(dim)
    order = d.order
    if not 0 < size <= order:
        raise ValueError(f"size must lie in [1, {order}]")
    if math.comb(order, size) > budget:
        raise BudgetExceeded(f"C({order}, {size}) = {math.comb(order, size)} "
                             f"exceeds the budget {budget}")
    fixed = 2 if size >= 2 else 1
    free = size - fixed
    evaluations = math.comb(order - fixed, free)
    # Each candidate's free points, read a chunk at a time into an array.
    points = chain.from_iterable(combinations(range(fixed, order), free))
    buf = np.empty((max(1, _CHUNK_ENTRIES // order), order), dtype=np.int64)
    row_index = np.arange(len(buf))[:, None]
    best_total = best_points = None
    for start in range(0, evaluations, len(buf)):
        k = min(len(buf), evaluations - start)
        picks = np.fromiter(points, np.int64, k * free).reshape(k, free)
        rows = buf[:k]
        rows[:] = 0
        rows[:, :fixed] = 1
        rows[row_index[:k], picks] = 1
        _kernels.wht_rows(rows, peak=1)
        # Each row sum is at most size * order <= 2^(2n), exact in int64.
        totals = np.abs(rows).sum(axis=1)
        i = int(np.argmin(totals))
        # Strict: on a tie the earlier chunk keeps its first minimum.
        if best_total is None or totals[i] < best_total:
            best_total = int(totals[i])
            best_points = list(range(fixed)) + picks[i].tolist()
    best = PointSet.from_points(d, best_points)
    return _record(d, size, "exhaustive", 0, best, evaluations, best_total)


def min_norm_anneal(dim: Union[GroupDim, int], size: int,
                    params: Optional[AnnealParams] = None,
                    seed: int = 0) -> SearchRecord:
    """Simulated annealing over single-point swaps at fixed size.

    Deterministic for a given seed: the proposal indices and acceptance
    draws are pregenerated, the spectrum updates are exact integers, and
    only strict improvements move the incumbent.
    """
    d = as_dim(dim)
    order = d.order
    if not 0 < size < order:
        raise ValueError("annealing needs a nontrivial size")
    if params is None:
        params = AnnealParams()
    rng = np.random.default_rng(seed)
    perm = rng.permutation(order).astype(np.int64)
    members = np.sort(perm[:size]).astype(np.int64)
    nonmembers = np.sort(perm[size:]).astype(np.int64)
    wht = fwht(PointSet.from_points(d, members.tolist()))
    pick_out = rng.integers(0, size, params.steps).astype(np.int64)
    pick_in = rng.integers(0, order - size, params.steps).astype(np.int64)
    accept = rng.random(params.steps)
    best_members = np.empty(size, dtype=np.int64)
    best_total = _kernels.anneal_sweep(
        wht, members, nonmembers, pick_out, pick_in, accept,
        params.t0, params.cooling, float(order), best_members,
    )
    best = PointSet.from_points(d, [int(x) for x in best_members])
    return _record(d, size, "anneal", seed, best, params.steps + 1,
                   best_total)


CSV_COLUMNS = ["n", "size", "method", "seed", "best_norm_num",
               "best_norm_exp", "set_hex", "evaluations"]


def check_ledger(path: str) -> None:
    """Refuse (ValueError) a non-empty file not headed by CSV_COLUMNS."""
    header = ",".join(CSV_COLUMNS).encode()
    if os.path.isfile(path) and os.path.getsize(path):
        with open(path, "rb") as fh:
            first = fh.readline(len(header) + 2)
        if first not in (header + b"\r\n", header + b"\n"):
            raise ValueError(f"{path} is not a search ledger: its first line "
                             f"is not {header.decode()}")


def append_record(path: str, rec: SearchRecord) -> None:
    """Append one row to the CSV ledger, writing the header on first use."""
    import csv

    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(CSV_COLUMNS)
        writer.writerow([
            rec.n, rec.set_size, rec.method, rec.seed, rec.best_norm.num,
            rec.best_norm.exp, rec.best_set.set_hex(), rec.evaluations,
        ])
