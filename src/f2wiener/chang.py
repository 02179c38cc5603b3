"""Spectral level sets, Chang's span bound, and Riesz-product tests.

Level s collects the characters with 2^-s base >= |hat(f_V)(g)| >
2^-(s+1) base, where base = ||f_V||_1 (closed above, open below).  The
masses L_s = sum over level s of |hat(chi_A)| satisfy sum_s 2^-s L_s >=
1/2, so some level has L_s >= gain_floor(s) = (1/6)(4/3)^s; all of this
is decided exactly, with int64 under checked bounds and Python ints.
rank_spectrum transforms A once per run and ranks |hat(chi_A)|; every
step's bands are runs of that ranking, less V's own entries, and one
search of the ranking finds every band edge of a step at once.
Chang's theorem caps the dimension of the span of a large-spectrum set;
span_dims reads that dimension off one transform of the set's
indicator, by counting the annihilator's points.  The Riesz-product
machinery below exercises the hypercontractive inequality behind its
proof, on stacks of products at once.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import _kernels
from .dyadic import DyadicScalar
from .fourier import _check_bound, _int_minmax, fwht, lp_norm
from .groups import as_dim, kernel_dims, label_table
from .setfuncs import PointSet

__all__ = [
    "ZeroMass",
    "NoQualifyingLevel",
    "DependentSet",
    "LevelSet",
    "SpectrumRanking",
    "rank_spectrum",
    "level_sets",
    "gain_floor",
    "meets_gain_floor",
    "STRATEGIES",
    "select_level",
    "span_dims",
    "chang_cardinality_bound",
    "RieszProduct",
    "riesz_product",
    "beckner_verify",
]


class ZeroMass(ValueError):
    """Level sets were requested for an identically zero function."""


class NoQualifyingLevel(ArithmeticError):
    """No level meets the guaranteed (1/6)(4/3)^s mass; arithmetic bug."""


class DependentSet(ValueError):
    """A Riesz product needs linearly independent characters."""


@dataclass(frozen=True)
class LevelSet:
    """Characters of one dyadic magnitude band, with their chi_A mass.

    members is a read-only int32 array in rank order; it takes no part
    in equality, which the band index and the exact mass decide.
    """

    s: int
    members: np.ndarray = field(compare=False)
    mass: DyadicScalar


@dataclass(frozen=True, eq=False)
class SpectrumRanking:
    """A spectrum's magnitudes ranked once, so bands are cut by search.

    The coefficients are numerators over 2^exp.  order lists the
    characters by descending |coefficient|, ties by ascending index, and
    rank inverts it.  neg_mags[i] is minus the i-th magnitude, so it
    ascends, as np.searchsorted needs.  All three are int32: a set's
    magnitudes are at most |A| <= 2^30.  prefix[i] is the exact int64 sum
    of the first i magnitudes, at most |A| * 2^n <= 2^60, built on first
    use, so the ranking never holds it beside the spectrum it was ranked
    from.
    """

    exp: int
    order: np.ndarray
    rank: np.ndarray
    neg_mags: np.ndarray

    @functools.cached_property
    def prefix(self) -> np.ndarray:
        # Partial sums of -|x| are at most the total in magnitude, so the
        # negated running sum is exact in int64.
        prefix = np.zeros(self.neg_mags.size + 1, dtype=np.int64)
        np.cumsum(self.neg_mags, dtype=np.int64, out=prefix[1:])
        np.negative(prefix, out=prefix)
        prefix.setflags(write=False)
        return prefix

    def total(self) -> DyadicScalar:
        """Sum of every |coefficient|: the Wiener norm."""
        return DyadicScalar(int(self.prefix[-1]), self.exp)

    def magnitudes(self, chars: np.ndarray) -> np.ndarray:
        """|coefficient| of each character in chars, as int32."""
        mags = self.neg_mags[self.rank[chars]]
        return np.negative(mags, out=mags)

    def count_above(self, ts: Sequence[int]) -> np.ndarray:
        """How many numerator magnitudes exceed each integer t >= 0 in ts."""
        # The clamp keeps each key in int32, so the table is not cast.
        keys = np.array([-min(t, (1 << 31) - 1) for t in ts], dtype=np.int32)
        return np.searchsorted(self.neg_mags, keys)


def rank_spectrum(a: PointSet) -> SpectrumRanking:
    """Transform a and sort its spectrum by magnitude once; the exact
    prefix sums follow on first use."""
    # Every |S(g)| is at most S(0) = |A| <= 2^30, so the peak needs no scan
    # and every prefix sum is at most |A| * 2^n <= 2^60.
    key = fwht(a)
    size = key.size
    peak = int(key[0])
    # (peak - |x|) * 2^32 + g sorts as the ranking does: by descending |x|,
    # ties by ascending g.  The keys are distinct, so one in-place sort of
    # int64 keys stands for a stable argsort, and both halves of a key fit
    # int32, as a group has at most 2^30 characters.
    np.abs(key, out=key)
    np.subtract(peak, key, out=key)
    key <<= 32
    key |= np.arange(size, dtype=np.int32)
    key.sort()
    words = key.view(np.uint32).reshape(size, 2)
    low = 0 if sys.byteorder == "little" else 1
    order = words[:, low].astype(np.int32)
    neg = words[:, 1 - low].astype(np.int32)
    del key, words
    neg -= peak
    # Every rank fits int32, which halves the rank table and V's lookups.
    rank = np.empty(size, dtype=np.int32)
    rank[order] = np.arange(size, dtype=np.int32)
    for arr in (order, rank, neg):
        arr.setflags(write=False)
    return SpectrumRanking(a.dim.n, order, rank, neg)


def level_sets(ranking: SpectrumRanking, excluded: np.ndarray,
               base: DyadicScalar) -> List[LevelSet]:
    """Partition the nonzero coefficients off excluded into dyadic bands.

    Level s holds the g with base / 2^(s+1) < |hat(f)(g)| <= base / 2^s,
    and its mass sums |hat(f)| over them.  For the residual f_V, hat(f) is
    hat(chi_A), excluded lists V's elements (distinct) and base is
    ||f_V||_1, which bounds every coefficient off V, so s >= 0.  Each band
    is a run of the ranking, and one binary search finds every band's
    edges; the excluded entries are taken out of it through their ranks.
    """
    if excluded.size and not (0 <= excluded.min()
                              and excluded.max() < ranking.order.size):
        raise ValueError("excluded characters lie outside the group")
    if base.num <= 0:
        raise ZeroMass("level sets need a positive base norm")
    shift = ranking.exp - base.exp
    top = base.num << shift if shift >= 0 else base.num >> -shift
    # Band s is the magnitudes in (floor(top / 2^(s+1)), floor(top / 2^s)]
    # in numerator units, ranks edges[s]:edges[s + 1]; the last cut is 0.
    edges = ranking.count_above([top >> j
                                 for j in range(top.bit_length() + 1)])
    # cuts[s] counts the excluded entries ranked above edges[s]; the
    # excluded ranks are sorted, so band s's are one run of them.
    ex_ranks = ranking.rank[excluded]
    ex_ranks.sort()
    cuts = np.searchsorted(ex_ranks, edges.astype(ex_ranks.dtype))
    if cuts[0] != edges[0]:
        raise ArithmeticError(
            f"{edges[0] - cuts[0]} coefficient(s) off the excluded set "
            f"above the l1 base {base}")
    kept = np.flatnonzero(edges[1:] - cuts[1:] != edges[:-1] - cuts[:-1])
    sums = ranking.prefix[edges].tolist()
    edges, cuts = edges.tolist(), cuts.tolist()
    out = []
    for s in kept.tolist():
        lo, hi = edges[s], edges[s + 1]
        mass = sums[s + 1] - sums[s]
        members = ranking.order[lo:hi]
        if cuts[s] < cuts[s + 1]:
            inside = ex_ranks[cuts[s]:cuts[s + 1]]
            members = np.delete(members, inside - lo)
            members.setflags(write=False)
            mass += int(ranking.neg_mags[inside].sum(dtype=np.int64))
        out.append(LevelSet(s, members, DyadicScalar(mass, ranking.exp)))
    return out


def gain_floor(s: int) -> Fraction:
    """(1/6)(4/3)^s, the mass some level s is guaranteed to reach."""
    return Fraction(4 ** s, 6 * 3 ** s)


def meets_gain_floor(mass: DyadicScalar, s: int) -> bool:
    """mass >= gain_floor(s) in integers: num 6 3^s >= 2^(2s + exp)."""
    return mass.num * 6 * 3 ** s >= 1 << (2 * s + mass.exp)


STRATEGIES = ("smallest-s", "best-ratio")


def select_level(levels: Sequence[LevelSet],
                 strategy: str = STRATEGIES[0]) -> LevelSet:
    """Pick a qualifying level.

    smallest-s takes the first band meeting the mass floor; best-ratio
    takes the qualifier maximizing mass / 4^s (ties to the smaller s).
    The averaging identity guarantees a qualifier exists, so an empty
    result is an arithmetic bug, not a data condition.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    # sorted is stable: a tie in s, or in mass / 4^s, goes to the earlier.
    qualifying = (lv for lv in sorted(levels, key=lambda lv: lv.s)
                  if meets_gain_floor(lv.mass, lv.s))
    found = (next(qualifying, None) if strategy == "smallest-s" else
             max(qualifying, key=lambda lv: lv.mass.mul_pow2(-2 * lv.s),
                 default=None))
    if found is None:
        raise NoQualifyingLevel(
            "no level reaches (1/6)(4/3)^s; the mass bookkeeping is broken"
        )
    return found


def chang_cardinality_bound(l1: DyadicScalar, l2sq: DyadicScalar,
                            eps: Fraction) -> float:
    """e * eps^-2 * max(ln(||f||_2^2 / ||f||_1^2), 1), from l1 = ||f||_1
    and l2sq = ||f||_2^2.

    Chang's theorem: the characters with |hat(f)| >= eps ||f||_1 span at
    most this many dimensions.  The log ratio form comes from the proof;
    its argument is >= 1 by Cauchy-Schwarz, so the bound is always
    positive.
    """
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    if l1.num == 0:
        raise ZeroMass("Chang bound needs a nonzero function")
    # The ratio in lowest terms, as Fraction reduces it, and its log from
    # the two big integers, without overflowing float.
    shift = 2 * l1.exp - l2sq.exp
    num, den = l2sq.num << max(0, shift), l1.num ** 2 << max(0, -shift)
    common = math.gcd(num, den)
    log_ratio = math.log(num // common) - math.log(den // common)
    inv_sq = eps.denominator ** 2 / eps.numerator ** 2
    return math.e * inv_sq * max(log_ratio, 1.0)


def span_dims(nums: np.ndarray, exps: Sequence[int],
              thr_nums: Sequence[int], thr_exps: Sequence[int]) -> np.ndarray:
    """Dimension of the span of each row's large spectrum {g : |nums[t, g]|
    / 2^exps[t] >= thr_nums[t] / 2^thr_exps[t]}, for an int64 (T, 2^n)
    stack of spectra (every |num| at most 2^63 - 1, as in a table) and
    positive thresholds, as a (T,) int64 array.

    The x with <g, x> = 0 for every large g are the annihilator of the
    span, 2^(n - dim) points: exactly the x where the transform of the
    large set's 0/1 indicator reaches the set's size.  Chang's theorem caps the
    dimension by chang_cardinality_bound at eps = threshold / ||f||_1.
    """
    if min(thr_nums, default=1) <= 0:
        raise ValueError("threshold must be positive")
    n = nums.shape[1].bit_length() - 1
    # |num| / 2^e >= threshold  <=>  |num| >= cut, for integer num; every
    # |num| is below 2^63, so a cut past it selects nothing.
    cuts = np.array([min(-((-tn << e) >> te), 1 << 63)
                     for tn, e, te in zip(thr_nums, exps, thr_exps)],
                    dtype=np.uint64)
    large = (np.abs(nums).view(np.uint64) >= cuts[:, None]).astype(np.int64)
    # A 0/1 table has peak 1, so its transform is exact (2^n <= 2^53), and
    # the transform at x = 0 is the set's size.
    _kernels.wht_rows(large, 1)
    return kernel_dims(np.count_nonzero(large == large[:, :1], axis=1), n)


@dataclass(frozen=True, eq=False)
class RieszProduct:
    """Riesz products prod_i (1 + eta lambda_i) on F2^n, one per row.

    Row t is nums[t] / 2^exps[t], with 2^n entries; its characters
    lambda_i are the nonzero entries of lambdas[t] (zeros pad the rows to
    one width) and its eta is etas[t].
    """

    nums: np.ndarray
    exps: np.ndarray
    lambdas: np.ndarray
    etas: Tuple[DyadicScalar, ...]


def riesz_product(n: int, lambdas, etas: Sequence[DyadicScalar],
                  ) -> RieszProduct:
    """Exact Riesz products; non-negative, mean one, |hat(p)| = eta^|S|.

    lambdas is (T, K), one row of characters per product, and etas holds
    each row's eta.  A spectrum is supported exactly on the subset sums of
    its row's characters, which is why independence is required
    (DependentSet otherwise).
    """
    d = as_dim(n)
    etas = tuple(etas)
    lambdas = np.asarray(lambdas, dtype=np.int64)
    if lambdas.ndim != 2 or len(lambdas) != len(etas):
        raise ValueError("lambdas needs one row per eta")
    if any(abs(e.num) > 1 << e.exp for e in etas):
        raise ValueError("|eta| must be at most 1")
    if lambdas.size and not (0 <= lambdas.min() and lambdas.max() < d.order):
        raise ValueError("characters must be masks in the group")
    labels, dims = label_table(lambdas, d.n)
    ks = np.count_nonzero(lambdas, axis=1)
    if (dims != ks).any():
        raise DependentSet("characters are linearly dependent")
    # Factor numerators 2^exp +- num lie in [0, 2^exp + |num|], so every
    # product of k of them is at most (2^exp + |num|)^k; for the verify
    # suite's etas j/4 and k <= 4 that is at most 7^4.
    ks_list = ks.tolist()
    _check_bound(max((((1 << e.exp) + abs(e.num)) ** k
                      for e, k in zip(etas, ks_list)), default=1),
                 "Riesz product numerator")
    # A row without characters takes no factor, whatever its eta.
    plus = np.array([(1 << e.exp) + e.num if k else 1
                     for e, k in zip(etas, ks_list)], dtype=np.int64)
    minus = np.array([(1 << e.exp) - e.num if k else 1
                      for e, k in zip(etas, ks_list)], dtype=np.int64)
    out = np.ones(labels.shape, dtype=np.int64)
    odd = np.empty_like(labels)
    for i in range(lambdas.shape[1]):
        # Bit i of a label is <lambda_i, x>, and the factor is plus - (plus
        # - minus) * bit; a zero lambda_i leaves the bit 0 and takes 1.
        live = lambdas[:, i] != 0
        np.bitwise_and(np.right_shift(labels, i, out=odd), 1, out=odd)
        odd *= np.where(live, minus - plus, 0)[:, None]
        odd += np.where(live, plus, 1)[:, None]
        out *= odd
    exps = ks * np.array([e.exp for e in etas], dtype=np.int64)
    return RieszProduct(out, exps, lambdas, etas)


def beckner_verify(nums: np.ndarray, exps,
                   p: RieszProduct) -> Tuple[List[float], List[float]]:
    """(||f * p||_2, ||f||_{1+eta^2}) for each row f = nums[t] / 2^exps[t]
    and its Riesz smoothing p = p_eta in row t of p.

    Hypercontractivity makes the left side at most the right; the left
    side is computed exactly via Parseval and only rounded at the end.
    """
    if nums.shape != p.nums.shape:
        raise ValueError("f and the Riesz products live on different groups")
    exps = np.asarray(exps, dtype=np.int64)
    n = nums.shape[1].bit_length() - 1
    sf = _kernels.wht_rows(nums.astype(np.int64))
    sp = _kernels.wht_rows(p.nums.copy())
    # hat(p) is eta^|S| on the subset sums S of the lambdas, so every entry
    # of the unnormalized transform is a multiple of 2^n, shed exactly here;
    # then |sp| <= 2^(k * eta.exp).  Only so does the square sum stay in
    # int64 for the verify suite (n <= 10, |f| <= 8, eta = j/4, k <= 4):
    # (2^13 * 2^8)^2 * 2^10 = 2^52, where 2^n more would be 2^72.
    if (sp & ((1 << n) - 1)).any():
        raise ArithmeticError("a Riesz product's transform is not a "
                              "multiple of 2^n")
    sp >>= n
    peak = _int_minmax(sf) * _int_minmax(sp)
    _check_bound(peak, "product", sf, sp)
    prod = sf * sp
    _check_bound(peak * peak * (1 << n), "square sum")
    conv_sq = (prod * prod).sum(axis=1)
    # conv_sq / 2^(2e) is ||f * p||_2^2 with e = exps + n + p.exps; scaling
    # by a power of two is exact, so the float is the correctly rounded
    # value, as float() of the exact Fraction gives.
    lhs = np.sqrt(np.ldexp(conv_sq.astype(np.float64),
                           -2 * (exps + n + p.exps))).tolist()
    # One lp_norm call per distinct eta, which fixes the exponent.
    by_eta: Dict[Tuple[int, int], List[int]] = {}
    for t, e in enumerate(p.etas):
        by_eta.setdefault((e.num, e.exp), []).append(t)
    rhs = [0.0] * len(lhs)
    for rows in by_eta.values():
        x = float(p.etas[rows[0]])
        for t, v in zip(rows, lp_norm(nums[rows], exps[rows], 1.0 + x * x)):
            rhs[t] = v
    return lhs, rhs
