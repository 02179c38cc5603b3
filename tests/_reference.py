"""Independent brute-force oracles over Fractions.

Everything here is written the slow, obvious way (double loops, explicit
set scans) so the fast implementations have something honest to be
checked against.  No code is shared with the package's numeric paths.
The search oracles use numpy only to keep whole-spectrum recomputation
affordable: one candidate or one proposal at a time.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import List, Sequence, Tuple

import numpy as np


def parity(a: int, b: int) -> int:
    return bin(a & b).count("1") & 1


def sign(gamma: int, x: int) -> int:
    return -1 if parity(gamma, x) else 1


def brute_fwht(values: Sequence[Fraction], n: int) -> List[Fraction]:
    order = 1 << n
    assert len(values) == order
    return [
        sum((Fraction(values[x]) * sign(g, x) for x in range(order)),
            Fraction(0)) / order
        for g in range(order)
    ]


def brute_inverse(coeffs: Sequence[Fraction], n: int) -> List[Fraction]:
    order = 1 << n
    return [
        sum((Fraction(coeffs[g]) * sign(g, x) for g in range(order)),
            Fraction(0))
        for x in range(order)
    ]


def brute_a_norm(values: Sequence[Fraction], n: int) -> Fraction:
    return sum((abs(c) for c in brute_fwht(values, n)), Fraction(0))


def brute_set_a_norm(points: Sequence[int], n: int) -> Fraction:
    vals = [Fraction(0)] * (1 << n)
    for p in points:
        vals[p] = Fraction(1)
    return brute_a_norm(vals, n)


def annihilator_points(basis: Sequence[int], n: int) -> List[int]:
    return [x for x in range(1 << n)
            if all(parity(b, x) == 0 for b in basis)]


def brute_coset_average(points: Sequence[int], basis: Sequence[int],
                        n: int) -> List[Fraction]:
    members = set(points)
    ann = annihilator_points(basis, n)
    out = []
    for x in range(1 << n):
        coset = {x ^ w for w in ann}
        out.append(Fraction(len(coset & members), len(coset)))
    return out


def brute_min_norm(n: int, size: int) -> Tuple[Fraction, List[Tuple[int, ...]]]:
    """Exact minimum over every size-subset, no symmetry pruning."""
    best = None
    witnesses: List[Tuple[int, ...]] = []
    for pts in combinations(range(1 << n), size):
        norm = brute_set_a_norm(pts, n)
        if best is None or norm < best:
            best = norm
            witnesses = [pts]
        elif norm == best:
            witnesses.append(pts)
    return best, witnesses


def brute_exhaustive_scan(n: int, size: int) -> List[Tuple[List[int], int]]:
    """(points, unnormalized l1 spectrum sum) of every candidate the
    exhaustive search scans, in its order: the sets holding 0 (and 1 from
    size 2 on), completed in combinations order, one transform each."""
    order = 1 << n
    fixed = [0] if size == 1 else [0, 1]
    hadamard = np.array([[sign(g, x) for x in range(order)]
                         for g in range(order)], dtype=np.int64)
    rest = [x for x in range(order) if x not in fixed]
    out = []
    for extra in combinations(rest, size - len(fixed)):
        pts = fixed + list(extra)
        ind = np.zeros(order, dtype=np.int64)
        ind[pts] = 1
        out.append((pts, int(np.abs(hadamard @ ind).sum())))
    return out


def _parity_fold(v: np.ndarray) -> np.ndarray:
    # XOR-fold parity of non-negative int64 values.
    for shift in (32, 16, 8, 4, 2, 1):
        v = v ^ (v >> shift)
    return v & 1


def brute_anneal_sweep(wht, members, nonmembers, pick_out, pick_in, accept,
                       t0, cooling, scale, best_members) -> int:
    """Single-swap annealing that prices every proposal by building the
    whole candidate spectrum and summing it, O(m) per proposal.

    Same arguments, acceptance rule, side effects and result as
    _kernels.anneal_sweep.
    """
    m = wht.shape[0]
    gammas = np.arange(m, dtype=np.int64)
    cur = int(np.abs(wht).sum())
    best = cur
    best_members[:] = members
    temp = t0
    for t in range(pick_out.shape[0]):
        io = int(pick_out[t])
        ii = int(pick_in[t])
        x_out = int(members[io])
        x_in = int(nonmembers[ii])
        sign_in = 1 - 2 * _parity_fold(gammas & x_in)
        sign_out = 1 - 2 * _parity_fold(gammas & x_out)
        cand = wht + sign_in - sign_out
        new = int(np.abs(cand).sum())
        delta = new - cur
        if delta <= 0 or accept[t] < math.exp(-(delta / scale) / temp):
            wht[:] = cand
            members[io] = x_in
            nonmembers[ii] = x_out
            cur = new
            if cur < best:
                best = cur
                best_members[:] = members
        temp *= cooling
    return best


def brute_level_sets(coeffs: Sequence[Fraction], chi: Sequence[Fraction],
                     base: Fraction) -> List[Tuple[int, Tuple[int, ...],
                                                   Fraction]]:
    """(s, members, mass) per band, by one scan over the coefficients.

    Band s holds the g with base / 2^(s+1) < |coeffs[g]| <= base / 2^s;
    members ascend and mass sums |chi[g]| over them.  A coefficient above
    base raises ArithmeticError.
    """
    buckets = {}
    for g, c in enumerate(coeffs):
        c = abs(Fraction(c))
        if c == 0:
            continue
        if c > base:
            raise ArithmeticError(f"coefficient {c} above the base {base}")
        s = 0
        while c <= base / (1 << (s + 1)):
            s += 1
        members, mass = buckets.get(s, ((), Fraction(0)))
        buckets[s] = (members + (g,), mass + abs(Fraction(chi[g])))
    return [(s, members, mass)
            for s, (members, mass) in sorted(buckets.items())]


def brute_indicator_bits(arr: Sequence[int]) -> int:
    """Bitmap with bit i set for every truthy arr[i], one bit at a time."""
    bits = 0
    for i, v in enumerate(arr):
        if v:
            bits |= 1 << i
    return bits


def brute_frac_quadratic_gap(deltas) -> Tuple[Fraction, Fraction]:
    """(sum(d - d^2), g(1 - g)), g = frac(sum d), in Fraction arithmetic."""
    ds = [Fraction(d) for d in deltas]
    for d in ds:
        if not 0 <= d <= 1:
            raise ValueError(f"delta {d} outside [0, 1]")
    total = sum(ds, Fraction(0))
    g = total - (total.numerator // total.denominator)
    lhs = sum((d - d * d for d in ds), Fraction(0))
    return lhs, g * (1 - g)


def brute_abs_floats(nums: Sequence[int], exp: int) -> List[float]:
    """|v| / 2^exp for each numerator, each rounded once through Fraction."""
    return [abs(float(Fraction(int(v), 1 << exp))) for v in nums]


def _rref_insert(basis: List[int], gamma: int) -> List[int]:
    """Insert gamma into a basis kept sorted by lowest set bit, with each
    row's lowest bit cleared from every other row."""
    for r in basis:
        low = r & -r
        if gamma & low:
            gamma ^= r
    if not gamma:
        return basis
    low = gamma & -gamma
    rows = [r ^ gamma if r & low else r for r in basis] + [gamma]
    return sorted(rows, key=lambda r: r & -r)


def brute_chang_span(coeffs: Sequence[Fraction], threshold: Fraction,
                     n: int) -> Tuple[Tuple[int, ...], float]:
    """(RREF basis of the span of {g : |coeffs[g]| >= threshold}, cap).

    One scan over every coefficient; the cap is the Chang bound
    e * eps^-2 * max(ln(||f||_2^2 / ||f||_1^2), 1) at eps = threshold /
    ||f||_1 with f the inverse transform, 0 when f is zero or eps > 1.
    """
    basis: List[int] = []
    for g, c in enumerate(coeffs):
        if c != 0 and abs(Fraction(c)) >= threshold:
            basis = _rref_insert(basis, g)
    f = brute_inverse(coeffs, n)
    l1 = sum((abs(v) for v in f), Fraction(0)) / (1 << n)
    if l1 == 0:
        return tuple(basis), 0.0
    eps = threshold / l1
    if eps > 1:
        return tuple(basis), 0.0
    ratio = (sum((v * v for v in f), Fraction(0)) / (1 << n)) / l1 ** 2
    log_ratio = math.log(ratio.numerator) - math.log(ratio.denominator)
    return tuple(basis), math.e * float(1 / eps ** 2) * max(log_ratio, 1.0)
