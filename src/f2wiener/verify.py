"""Seeded randomized checks of the exact inequalities and identities.

Trial i of seed S draws from the stream of numpy.random.default_rng([S, i])
whatever the number of jobs, so a run is reproducible and can be sharded
across a worker pool without changing the outcome.  Seeds must be
non-negative.  A violation message names the trial; theorems being
theorems, any violation is an implementation bug.
"""
from __future__ import annotations

import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .chang import (beckner_verify, chang_cardinality_bound, chang_span,
                    riesz_product)
from .dyadic import DyadicScalar
from .fourier import FunctionTable, fwht, l1_norm, l2_norm_sq
from .groups import (DualSubspace, GroupDim, coset_index_table,
                     random_subspace, subspace_insert)
from .setfuncs import (PointSet, frac_quadratic_gap, physical_lower_bound,
                       residual, residual_l1, residual_norms)

__all__ = [
    "SUITE_NAMES",
    "SuiteResult",
    "run_suite",
    "random_point_set",
    "random_table",
    "random_independent_chars",
]

BECKNER_SLACK = 1e-9
# The smoothing parameters a Beckner trial draws from, 1/4 to 1.
_ETAS = tuple(DyadicScalar(k, 2) for k in range(1, 5))

# Upper limits for run_suite, checked before any worker starts: a pool of
# at most MAX_JOBS processes and a bounded run.
MAX_JOBS = 64
MAX_TRIALS = 1_000_000

# numpy's SeedSequence (a pool of four 32-bit words) and PCG64 set-seed
# constants, for deriving the trials' generator states a block at a time.
# A block of 256 trials spreads the numpy steps' call overhead to about
# half a microsecond a trial while holding only tens of KB of states.
_SEED_BLOCK = 256
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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
    nums = rng.integers(-span, span + 1, size=1 << n, dtype=np.int64)
    return FunctionTable._adopt(GroupDim(n), nums,
                                int(rng.integers(0, max_exp + 1)))


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
    # Closed form from the coset counts alone, independent of the table.
    syn = coset_index_table(v, n, np.flatnonzero(a.bool_mask()))
    closed, _ = residual_norms(np.bincount(syn, minlength=v.order), n)
    if got != closed:
        return (f"residual_l1 {got} != coset closed form {closed} "
                f"(n={n}, |A|={a.size}, dimV={v.dim})")
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
    eta = _ETAS[int(rng.integers(0, 4))]
    p = riesz_product(n, lambdas, eta)
    mass = l1_norm(p.table)
    if mass != DyadicScalar(1):
        return f"Riesz product mass {mass} != 1 (n={n}, eta={float(eta)})"
    lhs, rhs = beckner_verify(f, p)
    if lhs > rhs * (1.0 + BECKNER_SLACK):
        return (f"smoothing bound violated: {lhs!r} > {rhs!r} "
                f"(n={n}, eta={float(eta)}, k={count})")
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


_TRIALS = {
    "tA": _trial_ta,
    "lem1": _trial_lem1,
    "techlem": _trial_techlem,
    "beckner": _trial_beckner,
    "chang": _trial_chang,
}
SUITE_NAMES = tuple(_TRIALS)


def _pcg64_states(seed: int,
                  idx: np.ndarray) -> Iterator[Tuple[int, int]]:
    """PCG64 (state, inc) of default_rng([seed, i]) for each i in idx.

    SeedSequence hashes the entropy words (seed's 32-bit words, low first,
    then i, a single word as i < MAX_TRIALS) into a pool of four and draws
    eight words from it.  They give PCG64's 128-bit seed s and stream j,
    and set-seed takes two LCG steps from state 0: inc = 2j + 1, state =
    (inc + s) * MULT + inc.  The hash constants do not depend on the data,
    so a word is a uint64 array over the block holding a 32-bit value, or
    an int while it depends on the seed alone.
    """
    hc = _INIT_A

    def hashmix(value):
        nonlocal hc
        value = value ^ hc
        hc = hc * _MULT_A & _MASK32
        value = value * hc & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        r = (x * _MIX_L - y * _MIX_R) & _MASK32
        return r ^ (r >> 16)

    entropy = [seed & _MASK32]
    while seed >> 32 * len(entropy):
        entropy.append(seed >> 32 * len(entropy) & _MASK32)
    entropy.append(idx)
    pool = [hashmix(entropy[k] if k < len(entropy) else 0) for k in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for e in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(e))
    hc = _INIT_B
    out = []
    for k in range(8):
        w = pool[k % 4] ^ hc
        hc = hc * _MULT_B & _MASK32
        w = w * hc & _MASK32
        out.append(w ^ (w >> 16))
    # uint64 word k is out[2k] | out[2k + 1] << 32: s is (w0, w1), j (w2, w3)
    s_hi, s_lo, j_hi, j_lo = ((out[2 * k] | (out[2 * k + 1] << 32)).tolist()
                              for k in range(4))
    for sh, sl, jh, jl in zip(s_hi, s_lo, j_hi, j_lo):
        inc = ((jh << 65) | (jl << 1) | 1) & _MASK128
        yield ((inc + (sh << 64 | sl)) * _PCG_MULT + inc) & _MASK128, inc


def _trial_rngs(seed: int, start: int,
                count: int) -> Iterator[Tuple[int, np.random.Generator]]:
    """(i, rng) for trials start..start+count-1, rng in the state of
    default_rng([seed, i]); one Generator is re-seeded for every trial."""
    rng = np.random.default_rng(0)
    bitgen = rng.bit_generator
    stop = start + count
    for lo in range(start, stop, _SEED_BLOCK):
        idx = np.arange(lo, min(lo + _SEED_BLOCK, stop), dtype=np.uint64)
        for i, (state, inc) in enumerate(_pcg64_states(seed, idx), lo):
            bitgen.state = {"bit_generator": "PCG64",
                            "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
            yield i, rng


def _run_chunk(name: str, seed: int, start: int, count: int) -> List[str]:
    trial = _TRIALS[name]
    out = []
    for i, rng in _trial_rngs(seed, start, count):
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
