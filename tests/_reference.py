"""Independent brute-force oracles over Fractions.

Everything here is written the slow, obvious way (double loops, explicit
set scans) so the fast implementations have something honest to be
checked against.  No code is shared with the package's numeric paths.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import List, Sequence, Tuple


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


def brute_convolve(f: Sequence[Fraction], g: Sequence[Fraction],
                   n: int) -> List[Fraction]:
    order = 1 << n
    return [
        sum((Fraction(f[y]) * Fraction(g[x ^ y]) for y in range(order)),
            Fraction(0)) / order
        for x in range(order)
    ]


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
