"""The random stream of each verify trial, as arrays.

Trial i of seed S reads a stream of 64-bit words that is a pure function
of (S, i), all arithmetic mod 2^64 and G = 0x9E3779B97F4A7C15:

    mix(z)         the SplitMix64 finaliser (Steele, Lea & Flood, 2014)
    key(S)         h = mix(c G), then h = mix(h ^ l) for each 64-bit limb l
                   of S, low first, c the number of limbs (at least one)
    base(S, i)     mix(key(S) ^ i G)
    word(S, i, k)  mix(base(S, i) + (k + 1) G)

The limb count keeps S and S + 2^64 apart.  A draw in [0, r) from a word w
is floor(w r / 2^64) (bounded), with no rejection: each value has
floor(2^64 / r) words or one more, so a draw is within r / 2^64 of uniform
in total variation (below 2^-40 for every range verify draws).  An
indicator takes the words' bits, 64 a word, low bit first (bits).
"""
from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["bits", "bounded", "trial_bases", "trial_words"]

# numpy scalars, which numpy applies to uint64 arrays without a cast.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MULT1, _MULT2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_SHIFT = {s: np.uint64(s) for s in (27, 30, 31, 32)}
_LOW32 = np.uint64(0xFFFFFFFF)


def _mix(z: np.ndarray) -> np.ndarray:
    """mix of each entry of the uint64 array z, in place."""
    z ^= z >> _SHIFT[30]
    z *= _MULT1
    z ^= z >> _SHIFT[27]
    z *= _MULT2
    z ^= z >> _SHIFT[31]
    return z


def trial_bases(seed: int, lo: int,
                hi: int) -> Tuple[np.ndarray, np.ndarray]:
    """(the trials lo..hi-1 as int64, their bases as uint64)."""
    limbs = [seed >> s & (1 << 64) - 1
             for s in range(0, max(seed.bit_length(), 1), 64)]
    key = _mix(np.array([len(limbs)], dtype=np.uint64) * _GAMMA)
    for limb in limbs:
        key ^= np.uint64(limb)
        _mix(key)
    trials = np.arange(lo, hi, dtype=np.uint64)
    return trials.astype(np.int64), _mix(trials * _GAMMA ^ key)


def trial_words(bases: np.ndarray, count: int) -> np.ndarray:
    """Words 0..count-1 of the trials with these bases, as a (trials,
    count) uint64 array."""
    return _mix(bases[:, None]
                + np.arange(1, count + 1, dtype=np.uint64) * _GAMMA)


def bounded(words: np.ndarray, r) -> np.ndarray:
    """floor(w r / 2^64) for each word w, as int64, for 1 <= r <= 2^32 (an
    int or an array that broadcasts against words).  From w's 32-bit
    halves: the high half times r plus the low half's carry stays below
    2^32 r, so no product wraps."""
    r = np.asarray(r, dtype=np.uint64)
    high = (words >> _SHIFT[32]) * r
    high += (words & _LOW32) * r >> _SHIFT[32]
    high >>= _SHIFT[32]
    return high.view(np.int64)


def bits(words: np.ndarray, size: int) -> np.ndarray:
    """The first size bits of each row of words, low bit first, as int8."""
    rows = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(rows, axis=1, count=size,
                         bitorder="little").view(np.int8)
