"""Seeded randomized checks of the exact inequalities and identities.

Trial i of seed S draws from a stream of words that is a pure function of
(S, i) (see _streams and _draws), whatever the number of jobs, so a run is
reproducible and can be sharded across a worker pool without changing the
outcome.
Seeds must be non-negative.  A violation message names the trial;
theorems being theorems, any violation is an implementation bug.

Every suite draws its trials as arrays, and the tA, lem1, beckner and
chang trials come in groups that share n, each evaluated as one stacked
(trials, 2^n) table; each block of techlem trials is checked as integer
rows.  Each trial's outcome depends only on its own draws, and violations
are reported in trial order, so every message and --jobs result is that
of checking the trials one at a time.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

import numpy as np

from . import _kernels
from ._draws import beckner_draws, chang_draws, set_draws, techlem_draws
from .chang import (RieszProduct, beckner_verify, chang_cardinality_bound,
                    riesz_product, span_dims)
from .dyadic import DyadicScalar
from .setfuncs import frac_quadratic_gap, physical_lower_bound, residual_l1

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


def _filled(chars: np.ndarray) -> np.ndarray:
    """chars without the columns that only pad: k characters fill the
    first k columns of a row."""
    return chars[:, :int(np.count_nonzero(chars, axis=1).max())]


def _coset_squares(ind: np.ndarray,
                   chars: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(|A|, 2^w sum_y c_y^2) for each row of an int8 stack of indicators:
    c_y counts A in coset y of the annihilator of V, the span of the row's
    w characters, padding included.  By Parseval on V, sum c^2 =
    2^-dim V sum_{g in V} S(g)^2, S the transform of A's indicator, and
    the 2^w subset XORs of the characters cover V 2^(w - dim V) times each.
    """
    rows, width = chars.shape
    spec = _kernels.wht_rows(ind.astype(np.int64), 1)
    sizes = spec[:, 0].copy()
    spec *= spec
    # Row t's subset XORs, offset by t 2^n to index the flat spectrum.
    combos = np.zeros((rows, 1 << width), dtype=np.int64)
    combos[:, 0] = np.arange(rows) * ind.shape[1]
    for i in range(width):
        np.bitwise_xor(combos[:, :1 << i], chars[:, i, None],
                       out=combos[:, 1 << i:2 << i])
    return sizes, np.take(spec, combos, out=combos, mode="clip").sum(axis=1)


def _eval_ta(n: int, ids: np.ndarray, ind: np.ndarray,
             chars: np.ndarray) -> Found:
    chars = _filled(chars)
    got, got_exp, dims = residual_l1(ind, chars)
    # Closed form from A's spectrum alone, independent of the coset
    # labels: f_V is 1 - c/m on the c points of A in a coset of m =
    # 2^(n - dim V) and -c/m on the rest, so ||f_V||_1 = 2(m |A| - sum
    # c^2) / 2^(2n - dim V).  Both over 2^(2n - dim V + w), got after its
    # canonical shift.
    sizes, squares = _coset_squares(ind, chars)
    exp = 2 * n - dims + chars.shape[1]
    closed = 2 * ((sizes << (exp - n)) - squares)
    return [(int(ids[t]),
             f"residual_l1 {DyadicScalar(int(got[t]), int(got_exp[t]))}"
             " != coset closed form "
             f"{DyadicScalar(int(closed[t]), int(exp[t]))} "
             f"(n={n}, |A|={sizes[t]}, dimV={dims[t]})")
            for t in np.flatnonzero(
                (got << (exp - got_exp)) != closed).tolist()]


def _eval_lem1(n: int, ids: np.ndarray, ind: np.ndarray,
               chars: np.ndarray) -> Found:
    got, got_exp, dims = residual_l1(ind, _filled(chars))
    sizes = ind.sum(axis=1, dtype=np.int64)
    floor, floor_exp = physical_lower_bound(sizes, n, dims)
    # Compared over the shared denominator 2^max(exp); every numerator is
    # at most 2^(2n) <= 2^24 and every exponent at most 2n.
    top = np.maximum(got_exp, floor_exp)
    below = (got << (top - got_exp)) < (floor << (top - floor_exp))
    return [(int(ids[t]),
             f"||f_V||_1 = {DyadicScalar(int(got[t]), int(got_exp[t]))} "
             "below the floor "
             f"{DyadicScalar(int(floor[t]), int(floor_exp[t]))} "
             f"(n={n}, |A|={sizes[t]}, dimV={dims[t]})")
            for t in np.flatnonzero(below).tolist()]


def _eval_beckner(n: int, ids: np.ndarray, nums: np.ndarray,
                  exps: np.ndarray, lambdas: np.ndarray,
                  eta_idx: np.ndarray) -> Found:
    etas = [_ETAS[j] for j in eta_idx.tolist()]
    p = riesz_product(n, lambdas, etas)
    mass = np.abs(p.nums).sum(axis=1)
    exact = mass == np.int64(1) << (p.exps + n)
    found = [(int(ids[t]), f"Riesz product mass "
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
            found.append((int(ids[t]), (
                f"smoothing bound violated: {left!r} > {right!r} "
                f"(n={n}, eta={float(etas[t])}, k={ks[t]})")))
    return found


def _eval_techlem(ids: np.ndarray, nums: np.ndarray, dens: np.ndarray,
                  m: np.ndarray) -> Found:
    lhs, rhs, squares = frac_quadratic_gap(nums, dens, m)
    found = []
    for t, (left, right) in enumerate(zip(lhs, rhs)):
        if left < right:
            k = m[t]
            deltas = [Fraction(a, d) for a, d in
                      zip(nums[t, :k].tolist(), dens[t, :k].tolist())]
            found.append((int(ids[t]), (
                f"sum(d - d^2) = {Fraction(left, squares[t])} < "
                f"{Fraction(right, squares[t])} = g(1-g) for deltas "
                f"{deltas}")))
    return found


def _eval_chang(n: int, ids: np.ndarray, nums: np.ndarray, exps: np.ndarray,
                js: np.ndarray) -> Found:
    # f = nums / 2^exp has ||f||_1 = l1 / 2^(exp + n), and a zero table
    # draws no eps; eps = 2^-j makes the threshold l1 / 2^(exp + n + j).
    l1 = np.abs(nums).sum(axis=1, dtype=np.int64)
    live = np.flatnonzero(l1).tolist()
    if not live:
        return []
    spec = nums[live].astype(np.int64)
    exps, js, l1 = exps[live], js[live], l1[live]
    l2 = (spec * spec).sum(axis=1).tolist()
    _kernels.wht_rows(spec)
    spec_exps = exps + n
    dims = span_dims(spec, spec_exps.tolist(), l1.tolist(),
                     (spec_exps + js).tolist()).tolist()
    found = []
    for t, (exp, j, norm) in enumerate(zip(exps.tolist(), js.tolist(),
                                           l1.tolist())):
        eps = DyadicScalar(1, j)
        bound = chang_cardinality_bound(
            DyadicScalar(norm, exp + n),
            DyadicScalar(l2[t], 2 * exp + n), eps.as_fraction())
        if dims[t] > bound:
            found.append((int(ids[live[t]]), (
                f"span dimension {dims[t]} above the Chang bound "
                f"{bound!r} (n={n}, eps={eps})")))
    return found


# Each suite: (its trials in groups, evaluate such a group).  A group is
# (n, trials, *fields) for trials of one n, techlem's (trials, *fields).
_SUITES = {
    "tA": (set_draws, _eval_ta),
    "lem1": (set_draws, _eval_lem1),
    "techlem": (techlem_draws, _eval_techlem),
    "beckner": (beckner_draws, _eval_beckner),
    "chang": (chang_draws, _eval_chang),
}
SUITE_NAMES = tuple(_SUITES)


def _run_chunk(name: str, seed: int, start: int, count: int) -> List[str]:
    draws, evaluate = _SUITES[name]
    found: Found = []
    for group in draws(seed, start, count):
        found += evaluate(*group)
    found.sort(key=lambda hit: hit[0])
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
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=len(spans)) as pool:
        parts = list(pool.map(_run_chunk, [name] * len(spans),
                              [seed] * len(spans),
                              [s for s, _ in spans],
                              [c for _, c in spans]))
    violations: List[str] = []
    for part in parts:
        violations.extend(part)
    return SuiteResult(name, trials, violations)
