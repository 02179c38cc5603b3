"""Seeded randomized checks of the exact inequalities and identities.

Trial i of seed S draws from the stream of numpy.random.default_rng([S, i])
whatever the number of jobs, so a run is reproducible and can be sharded
across a worker pool without changing the outcome.  Seeds must be
non-negative.  A violation message names the trial; theorems being
theorems, any violation is an implementation bug.

The tA, lem1 and beckner trials are drawn one by one, in trial order, and
then evaluated in groups that share n: each group is checked as one
stacked (trials, 2^n) table once it is full (see _GROUP_ROWS), and what is
left when the trials run out is checked last.  The techlem trials are not
drawn by Generator calls: their draws are decoded as arrays from the first
words of each stream, a block of trials at a time, as numpy would draw
them (a trial where numpy would reject a word is drawn by the Generator),
and each block is checked as integer rows.  chang trials are checked as
they are drawn.  Each trial's outcome depends only on its own draws, and
violations are reported in trial order, so every stream, message and
--jobs result is that of checking the trials one at a time.
"""
from __future__ import annotations

import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

from ._streams import techlem_draws, trial_rngs
from .chang import (RieszProduct, beckner_verify, chang_cardinality_bound,
                    chang_span, riesz_product)
from .dyadic import DyadicScalar
from .fourier import FunctionTable, fwht, l1_norm, l2_norm_sq
from .groups import GroupDim, parity_labels
from .setfuncs import (frac_quadratic_gap, physical_lower_bound, residual_l1,
                       residual_rows)

__all__ = [
    "SUITE_NAMES",
    "SuiteResult",
    "run_suite",
]

BECKNER_SLACK = 1e-9
# The smoothing parameters a Beckner trial draws from, 1/4 to 1.
_ETAS = tuple(DyadicScalar(k, 2) for k in range(1, 5))

# Upper limits for run_suite, checked before any worker starts: a pool of
# at most MAX_JOBS processes and a bounded run.
MAX_JOBS = 64
MAX_TRIALS = 1_000_000

# A group of pending trials that share n is evaluated once it holds
# _GROUP_ROWS trials or _GROUP_ENTRIES table entries, so its int64 working
# arrays stay at about 64 KB each and the trials drawn but not yet
# evaluated at about 100 KB in all.
_GROUP_ROWS = 256
_GROUP_ENTRIES = 1 << 13


@dataclass(frozen=True)
class SuiteResult:
    name: str
    trials: int
    violations: List[str]

    @property
    def ok(self) -> bool:
        return not self.violations


# (trial, message) pairs.
Found = List[Tuple[int, str]]


class _Pending:
    """The trials of one n that are drawn but not yet evaluated.

    Each field of a draw has its own (rows, width) array, and row r holds
    the r-th trial's value, padded with zeros; a group holds _GROUP_ROWS
    trials or _GROUP_ENTRIES table entries, whichever is fewer.
    """

    def __init__(self, n: int, fields: Tuple[Tuple[int, type], ...]):
        rows = min(_GROUP_ROWS, max(1, _GROUP_ENTRIES >> n))
        self.ids: List[int] = []
        self.arrays = [np.zeros((rows, width), dtype=dtype)
                       for width, dtype in fields]

    def add(self, i: int, values: tuple) -> bool:
        """Store trial i's values; True once the group is full."""
        row = len(self.ids)
        self.ids.append(i)
        for arr, value in zip(self.arrays, values):
            arr[row, :len(value)] = value
        return row + 1 == len(self.arrays[0])

    def stacks(self) -> List[np.ndarray]:
        return [arr[:len(self.ids)] for arr in self.arrays]


def _draw_set_and_subspace(rng: np.random.Generator) -> Tuple[int, tuple]:
    """A random set A of F2^n, 2 <= n <= 12, and up to n characters
    spanning V."""
    n = int(rng.integers(2, 13))
    ind = rng.integers(0, 2, size=1 << n)
    k = int(rng.integers(0, n + 1))
    return n, (ind, rng.integers(1, 1 << n, size=k))


def _set_fields(n: int):
    # A's indicator and V's characters.
    return ((1 << n, np.int8), (n, np.int64))


def _filled(chars: np.ndarray) -> np.ndarray:
    """chars without the columns that only pad: k characters fill the
    first k columns of a row."""
    return chars[:, :int(np.count_nonzero(chars, axis=1).max())]


def _eval_ta(n: int, ids: List[int], ind: np.ndarray,
             chars: np.ndarray) -> Found:
    chars = _filled(chars)
    fv = residual_rows(ind, chars)
    got, got_exp, broken = residual_l1(fv)
    # Closed form from the coset counts alone, independent of the table:
    # label A's points by per-character parity (in int16, as masks have
    # n <= 12 bits) and count each coset.  f_V is 1 - c/m on c points of a
    # coset of m = 2^(n - dim V) and -c/m on the rest, so ||f_V||_1 =
    # sum 2c(m - c) / 2^(2n - dim V) = 2(m |A| - sum c^2) / 2^(2n - dim V).
    width = chars.shape[1]
    keys = parity_labels(chars[:, None, :].astype(np.int16),
                         np.arange(1 << n, dtype=np.int16))
    keys += (np.arange(len(ids), dtype=np.int64) << width)[:, None]
    counts = np.bincount(keys[ind != 0], minlength=len(ids) << width)
    counts = counts.reshape(len(ids), -1)
    sizes = ind.sum(axis=1, dtype=np.int64)
    m = np.int64(1) << (n - fv.dims)
    closed = 2 * (m * sizes - (counts * counts).sum(axis=1))
    # Both at exponent 2n - dim V, got after its canonical shift.
    exp = 2 * n - fv.dims
    bad = (got << (exp - got_exp)) != closed
    bad[list(broken)] = True
    found = []
    for t in np.flatnonzero(bad).tolist():
        if t in broken:
            msg = f"{broken[t]} (|A|={sizes[t]})"
        else:
            msg = (f"residual_l1 {DyadicScalar(int(got[t]), int(got_exp[t]))}"
                   " != coset closed form "
                   f"{DyadicScalar(int(closed[t]), int(exp[t]))} "
                   f"(n={n}, |A|={sizes[t]}, dimV={fv.dims[t]})")
        found.append((ids[t], msg))
    return found


def _eval_lem1(n: int, ids: List[int], ind: np.ndarray,
               chars: np.ndarray) -> Found:
    fv = residual_rows(ind, _filled(chars))
    got, got_exp, broken = residual_l1(fv)
    if broken:
        # An invariant violation, raised as the table route raises it.
        raise ArithmeticError(broken[min(broken)])
    sizes = ind.sum(axis=1, dtype=np.int64)
    floor, floor_exp = physical_lower_bound(sizes, n, fv.dims)
    # Compared over the shared denominator 2^max(exp); every numerator is
    # at most 2^(2n) <= 2^24 and every exponent at most 2n.
    top = np.maximum(got_exp, floor_exp)
    below = (got << (top - got_exp)) < (floor << (top - floor_exp))
    return [(ids[t],
             f"||f_V||_1 = {DyadicScalar(int(got[t]), int(got_exp[t]))} "
             "below the floor "
             f"{DyadicScalar(int(floor[t]), int(floor_exp[t]))} "
             f"(n={n}, |A|={sizes[t]}, dimV={fv.dims[t]})")
            for t in np.flatnonzero(below).tolist()]


def _independent_chars(rng: np.random.Generator, n: int,
                       count: int) -> List[int]:
    """count linearly independent characters, each drawn at random and
    kept when it lies outside the span of those kept so far."""
    span = {0}
    out: List[int] = []
    guard = 0
    while len(out) < count:
        g = int(rng.integers(1, 1 << n))
        if g not in span:
            out.append(g)
            span |= {s ^ g for s in span}
        guard += 1
        if guard > 64 * count + 64:
            raise RuntimeError("failed to sample independent characters")
    return out


def _draw_beckner(rng: np.random.Generator) -> Tuple[int, tuple]:
    """A table of integers in [-8, 8] over 2^exp, exp <= 3, on F2^n,
    2 <= n <= 10, up to four independent characters and an eta."""
    n = int(rng.integers(2, 11))
    nums = rng.integers(-8, 9, size=1 << n, dtype=np.int64)
    exp = int(rng.integers(0, 4))
    count = int(rng.integers(0, min(n, 4) + 1))
    lambdas = _independent_chars(rng, n, count)
    return n, (nums, (exp,), lambdas, (int(rng.integers(0, 4)),))


def _beckner_fields(n: int):
    # f's numerators and exponent, the characters and the index of eta.
    return ((1 << n, np.int8), (1, np.int64), (4, np.int64), (1, np.int64))


def _eval_beckner(n: int, ids: List[int], nums: np.ndarray,
                  exps: np.ndarray, lambdas: np.ndarray,
                  eta_idx: np.ndarray) -> Found:
    exps = exps[:, 0]
    etas = [_ETAS[j] for j in eta_idx[:, 0].tolist()]
    p = riesz_product(n, lambdas, etas)
    mass = np.abs(p.nums).sum(axis=1)
    exact = mass == np.int64(1) << (p.exps + n)
    found = [(ids[t], f"Riesz product mass "
              f"{DyadicScalar(int(mass[t]), int(p.exps[t]) + n)} != 1 "
              f"(n={n}, eta={float(etas[t])})")
             for t in np.flatnonzero(~exact).tolist()]
    keep = np.flatnonzero(exact)
    if keep.size < len(ids):
        p = RieszProduct(p.nums[keep], p.exps[keep], p.lambdas[keep],
                         tuple(etas[t] for t in keep.tolist()))
    lhs, rhs = beckner_verify(nums[keep], exps[keep], p)
    ks = np.count_nonzero(lambdas, axis=1)
    for t, left, right in zip(keep.tolist(), lhs, rhs):
        if left > right * (1.0 + BECKNER_SLACK):
            found.append((ids[t], (
                f"smoothing bound violated: {left!r} > {right!r} "
                f"(n={n}, eta={float(etas[t])}, k={ks[t]})")))
    return found


def _run_techlem(seed: int, start: int, count: int) -> Found:
    found: Found = []
    for first, nums, dens, m in techlem_draws(seed, start, count):
        lhs, rhs, squares = frac_quadratic_gap(nums, dens, m)
        for t, (left, right, sq) in enumerate(zip(lhs, rhs, squares)):
            if left < right:
                k = m[t]
                deltas = [Fraction(a, d) for a, d in
                          zip(nums[t, :k].tolist(), dens[t, :k].tolist())]
                found.append((first + t, (
                    f"sum(d - d^2) = {Fraction(left, sq)} < "
                    f"{Fraction(right, sq)} = g(1-g) for deltas {deltas}")))
    return found


def _trial_chang(rng: np.random.Generator) -> Optional[str]:
    n = int(rng.integers(2, 11))
    nums = rng.integers(-8, 9, size=1 << n, dtype=np.int64)
    f = FunctionTable._adopt(GroupDim(n), nums, int(rng.integers(0, 4)))
    base = l1_norm(f)
    if base.num == 0:
        return None
    j = int(rng.integers(0, 5))
    eps = DyadicScalar(1, j)
    threshold = base * eps
    spec = fwht(f)
    w = chang_span(spec, threshold)
    # |num| / 2^spec.exp >= threshold, compared over the shared
    # denominator 2^(spec.exp + threshold.exp), apart from chang_span's cut;
    # numpy >= 2 compares int64 with an out-of-range Python int exactly.
    # Here spec.peak <= 8 * 2^10 and threshold.exp <= 3 + 10 + 4, so the
    # shifted magnitudes stay at most 2^30.
    if spec.peak << threshold.exp > np.iinfo(np.int64).max:
        raise OverflowError("shifted magnitudes pass 2^63 - 1")
    large = np.flatnonzero(
        (np.abs(spec.nums) << threshold.exp) >= threshold.num << spec.exp)
    outside = large[w.reduce_array(large) != 0]
    if outside.size:
        g = int(outside.min())
        return f"large character {g} outside the span (n={n}, eps={eps})"
    bound = chang_cardinality_bound(base, l2_norm_sq(f), eps.as_fraction())
    if w.dim > bound:
        return (f"span dimension {w.dim} above the Chang bound {bound!r} "
                f"(n={n}, eps={eps})")
    return None


# Batched suites: (draw, the fields of a draw on F2^n, evaluate a group of
# draws that share n).
_BATCHED = {
    "tA": (_draw_set_and_subspace, _set_fields, _eval_ta),
    "lem1": (_draw_set_and_subspace, _set_fields, _eval_lem1),
    "beckner": (_draw_beckner, _beckner_fields, _eval_beckner),
}
SUITE_NAMES = ("tA", "lem1", "techlem", "beckner", "chang")


def _run_batched(name: str, rngs) -> Found:
    """Draw each trial in order and evaluate it with the pending trials of
    its n, a group at a time; violations in trial order."""
    draw, fields, evaluate = _BATCHED[name]
    pending: Dict[int, _Pending] = {}
    found: Found = []
    for i, rng in rngs:
        n, values = draw(rng)
        group = pending.get(n)
        if group is None:
            group = pending[n] = _Pending(n, fields(n))
        if group.add(i, values):
            found += evaluate(n, group.ids, *group.arrays)
            del pending[n]
    for n, group in pending.items():
        found += evaluate(n, group.ids, *group.stacks())
    found.sort(key=lambda hit: hit[0])
    return found


def _run_chunk(name: str, seed: int, start: int, count: int) -> List[str]:
    if name == "techlem":
        found = _run_techlem(seed, start, count)
    elif name == "chang":
        found = [(i, msg) for i, rng in trial_rngs(seed, start, count)
                 if (msg := _trial_chang(rng)) is not None]
    else:
        found = _run_batched(name, trial_rngs(seed, start, count))
    return [f"trial {i}: {msg}" for i, msg in found]


def run_suite(name: str, trials: int, seed: int, jobs: int = 1) -> SuiteResult:
    """Run one named suite; jobs > 1 shards trials without changing them."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; pick from {SUITE_NAMES}")
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must lie in [1, {MAX_TRIALS}]")
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, not {seed}")
    if not 1 <= jobs <= MAX_JOBS:
        raise ValueError(f"jobs must lie in [1, {MAX_JOBS}]")
    if jobs == 1 or trials < 4:
        return SuiteResult(name, trials, _run_chunk(name, seed, 0, trials))
    chunk = (trials + jobs - 1) // jobs
    spans = [(start, min(chunk, trials - start))
             for start in range(0, trials, chunk)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        parts = list(pool.map(_run_chunk, [name] * len(spans),
                              [seed] * len(spans),
                              [s for s, _ in spans],
                              [c for _, c in spans]))
    violations: List[str] = []
    for part in parts:
        violations.extend(part)
    return SuiteResult(name, trials, violations)
