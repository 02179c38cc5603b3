"""Seeded randomized checks of the exact inequalities and identities.

Each suite draws independent trials from a per-trial generator seeded by
(seed, index), so a run is reproducible and can be sharded across a
worker pool without changing the outcome.  A violation message names the
trial; theorems being theorems, any violation is an implementation bug.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

import numpy as np

from .chang import chang_cardinality_bound, chang_span, riesz_product, beckner_verify
from .dyadic import DyadicScalar
from .fourier import FunctionTable, exact_sum, fwht, l1_norm
from .groups import (DualSubspace, GroupDim, coset_index_table,
                     random_subspace, subspace_insert)
from .setfuncs import (PointSet, frac_quadratic_gap, physical_lower_bound,
                       residual, residual_l1)

__all__ = [
    "SUITE_NAMES",
    "SuiteResult",
    "run_suite",
    "random_point_set",
    "random_table",
    "random_independent_chars",
]

SUITE_NAMES = ("tA", "lem1", "techlem", "beckner", "chang")

BECKNER_SLACK = 1e-9

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


def random_point_set(rng: np.random.Generator, n: int) -> PointSet:
    mask = rng.integers(0, 2, size=1 << n)
    return PointSet.from_indicator(GroupDim(n), mask)


def random_table(rng: np.random.Generator, n: int, span: int = 8,
                 max_exp: int = 3) -> FunctionTable:
    nums = rng.integers(-span, span + 1, size=1 << n).astype(np.int64)
    return FunctionTable(GroupDim(n), nums, int(rng.integers(0, max_exp + 1)))


def random_independent_chars(rng: np.random.Generator, n: int,
                             count: int) -> List[int]:
    v = DualSubspace.trivial()
    out: List[int] = []
    guard = 0
    while len(out) < count:
        g = int(rng.integers(1, 1 << n))
        w = subspace_insert(v, g)
        if w.dim > v.dim:
            out.append(g)
            v = w
        guard += 1
        if guard > 64 * count + 64:
            raise RuntimeError("failed to sample independent characters")
    return out


def _trial_ta(rng: np.random.Generator) -> Optional[str]:
    n = int(rng.integers(2, 13))
    a = random_point_set(rng, n)
    v = random_subspace(rng, n)
    fv = residual(a, v)
    try:
        got = residual_l1(fv)
    except ArithmeticError as exc:
        return f"{exc} (|A|={a.size})"
    # Closed form, independent of the residual table: a coset of m points
    # holding c points of A contributes c(1 - c/m) + (m - c)c/m to the sum
    # of |f_V|, so ||f_V||_1 = sum 2c(m - c) / 2^(2n - d).
    d = v.dim
    m = 1 << (n - d)
    counts = np.bincount(coset_index_table(v, n)[a.bool_mask()],
                         minlength=1 << d)
    closed = DyadicScalar(2 * exact_sum(counts, m - counts), 2 * n - d)
    if got != closed:
        return (f"residual_l1 {got} != coset closed form {closed} "
                f"(n={n}, |A|={a.size}, dimV={d})")
    return None


def _trial_lem1(rng: np.random.Generator) -> Optional[str]:
    n = int(rng.integers(2, 13))
    a = random_point_set(rng, n)
    v = random_subspace(rng, n)
    got = residual_l1(residual(a, v))
    floor = physical_lower_bound(a.density(), v.order)
    if got < floor:
        return (f"||f_V||_1 = {got} below the floor {floor} "
                f"(n={n}, |A|={a.size}, dimV={v.dim})")
    return None


def _trial_techlem(rng: np.random.Generator) -> Optional[str]:
    m = int(rng.integers(1, 9))
    deltas = []
    for _ in range(m):
        den = int(rng.integers(1, 65))
        deltas.append(Fraction(int(rng.integers(0, den + 1)), den))
    lhs, rhs = frac_quadratic_gap(deltas)
    if lhs < rhs:
        return f"sum(d - d^2) = {lhs} < {rhs} = g(1-g) for deltas {deltas}"
    return None


def _trial_beckner(rng: np.random.Generator) -> Optional[str]:
    n = int(rng.integers(2, 11))
    f = random_table(rng, n)
    count = int(rng.integers(0, min(n, 4) + 1))
    lambdas = random_independent_chars(rng, n, count)
    eta = float(rng.choice([0.25, 0.5, 0.75, 1.0]))
    p = riesz_product(n, lambdas, eta)
    mass = l1_norm(p.table)
    if mass != DyadicScalar(1):
        return f"Riesz product mass {mass} != 1 (n={n}, eta={eta})"
    lhs, rhs = beckner_verify(f, lambdas, eta)
    if lhs > rhs * (1.0 + BECKNER_SLACK):
        return (f"smoothing bound violated: {lhs!r} > {rhs!r} "
                f"(n={n}, eta={eta}, k={count})")
    return None


def _trial_chang(rng: np.random.Generator) -> Optional[str]:
    n = int(rng.integers(2, 11))
    f = random_table(rng, n)
    base = l1_norm(f)
    if base.num == 0:
        return None
    j = int(rng.integers(0, 5))
    eps = DyadicScalar(1, j)
    threshold = base * eps
    spec = fwht(f)
    w, bound = chang_span(spec, threshold)
    # Walk magnitudes from the largest down with exact comparisons; every
    # character above the first one below the threshold is large.
    mags = np.abs(spec.nums)
    order = np.argsort(mags, kind="stable")[::-1]
    count = 0
    for g in order.tolist():
        if DyadicScalar(int(mags[g]), spec.exp) < threshold:
            break
        count += 1
    large = order[:count]
    outside = large[w.reduce_array(large) != 0]
    if outside.size:
        g = int(outside.min())
        return f"large character {g} outside the span (n={n}, eps={eps})"
    if w.dim > bound:
        return (f"span dimension {w.dim} above the Chang bound {bound!r} "
                f"(n={n}, eps={eps})")
    independent = chang_cardinality_bound(f, float(eps))
    if abs(independent - bound) > 1e-9 * max(1.0, abs(bound)):
        return f"bound mismatch {bound!r} vs {independent!r}"
    return None


_TRIALS = {
    "tA": _trial_ta,
    "lem1": _trial_lem1,
    "techlem": _trial_techlem,
    "beckner": _trial_beckner,
    "chang": _trial_chang,
}


def _run_chunk(name: str, seed: int, start: int, count: int) -> List[str]:
    trial = _TRIALS[name]
    out = []
    for i in range(start, start + count):
        rng = np.random.default_rng([seed, i])
        msg = trial(rng)
        if msg is not None:
            out.append(f"trial {i}: {msg}")
    return out


def run_suite(name: str, trials: int, seed: int, jobs: int = 1) -> SuiteResult:
    """Run one named suite; jobs > 1 shards trials without changing them."""
    if name not in _TRIALS:
        raise ValueError(f"unknown suite {name!r}; pick from {SUITE_NAMES}")
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must lie in [1, {MAX_TRIALS}]")
    if jobs > MAX_JOBS:
        raise ValueError(f"jobs must be at most {MAX_JOBS}")
    if jobs <= 1 or trials < 4:
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
