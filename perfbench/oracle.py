"""Expected values computed without f2wiener.

Every check the benchmark makes compares the program's output with a value
from this module, which imports nothing from the package: a plain integer
butterfly for Wiener norms, a product formula for subspace counts, and a
brute-force scan for the smallest norm of a small set.
"""
from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations

import numpy as np

_DYADIC_RE = re.compile(r"^(-?\d+)(?:/2\^(\d+))?$")


def wht(rows: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform of each row, as a new int64 array."""
    out = np.array(rows, dtype=np.int64, ndmin=2)
    cols = out.shape[1]
    h = 1
    while h < cols:
        blocks = out.reshape(out.shape[0], cols // (2 * h), 2, h)
        low = blocks[:, :, 0, :].copy()
        high = blocks[:, :, 1, :]
        blocks[:, :, 0, :] = low + high
        blocks[:, :, 1, :] = low - high
        h *= 2
    return out


def set_norm(indicator: np.ndarray, n: int) -> Fraction:
    """Wiener norm sum_g |2^-n sum_{x in A} (-1)^<g,x>| of a 0/1 table."""
    return Fraction(int(np.abs(wht(indicator)).sum()), 1 << n)


def indicator_from_hex(hex_bits: str, n: int) -> np.ndarray:
    """0/1 table of a set given as a bitmap (bit x set means x is in A)."""
    bits = int(hex_bits, 16)
    raw = np.frombuffer(bits.to_bytes(max(1, (1 << n) // 8), "little"),
                        dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:1 << n].astype(np.int64)


def parse_dyadic(text: str) -> Fraction:
    """Read the 'NUM/2^EXP' or integer form the CLI prints for exact values."""
    m = _DYADIC_RE.match(text.strip())
    if not m:
        raise ValueError(f"not a dyadic value: {text!r}")
    return Fraction(int(m.group(1)), 1 << int(m.group(2) or 0))


def subspace_total(n: int) -> int:
    """Number of subspaces of F2^n: the Gaussian binomials summed over d."""
    total = 0
    for d in range(n + 1):
        count = Fraction(1)
        for i in range(d):
            count *= Fraction((1 << (n - i)) - 1, (1 << (i + 1)) - 1)
        total += int(count)
    return total


def min_set_norm(n: int, size: int) -> Fraction:
    """Smallest Wiener norm over all sets of the given size in F2^n.

    Uses translation invariance only (every set has a translate holding 0),
    a weaker reduction than the package's own search makes.
    """
    order = 1 << n
    signs = wht(np.eye(order, dtype=np.int64)).astype(np.int16)
    rest = np.array(list(combinations(range(1, order), size - 1)),
                    dtype=np.int64).reshape(-1, size - 1)
    best = None
    for chunk in np.array_split(rest, max(1, len(rest) // 20000)):
        spectra = signs[0] + signs[chunk].sum(axis=1, dtype=np.int16)
        low = int(np.abs(spectra).sum(axis=1).min())
        best = low if best is None else min(best, low)
    return Fraction(best, order)
