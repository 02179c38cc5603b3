"""The draws of each verify suite's trials, as arrays.

Trial i of seed S reads the words of its stream (see _streams) in a fixed
layout, so each suite's draws are one array computation on a group's
words, with no loop over trials and no rejection:

    tA, lem1  0: n in [2, 12]; 1: k in [0, n]; 2..n+1: characters in
              [1, 2^n - 1], the first k spanning V; then A's 2^n bits
    techlem   0: m in [1, 8]; 2i+1, 2i+2: den_i in [1, 64] and num_i in
              [0, den_i], the first m pairs used
    chang     0: n in [2, 10]; 1: exp in [0, 3]; 2: j in [0, 4]; then the
              2^n numerators in [-8, 8]
    beckner   0: n in [2, 10]; 1: exp; 2: k in [0, min(n, 4)]; 3: the eta
              index in [0, 3]; 4+2j, 5+2j: character j's r and s, j <
              min(n, 4) (see _characters); then the 2^n numerators

set_draws, chang_draws and beckner_draws yield groups (n, trials,
*fields) of trials that share n, row t of each field belonging to trial
trials[t]; techlem_draws yields (trials, nums, dens, m).
"""
from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from ._streams import bits, bounded, trial_bases, trial_words

__all__ = ["beckner_draws", "chang_draws", "set_draws", "techlem_draws"]

# Trials whose n is drawn at once (128 KB of bases).
_BLOCK = 1 << 14
# Techlem trials drawn and checked at once: 17 words and two int64 rows of
# eight a trial, so a block's arrays stay at tens of KB.
_TECHLEM_ROWS = 1 << 8
_BECKNER_K = 4


def _group_rows(n: int) -> int:
    """The most trials of one n in a group: 256 or 2^13 table entries,
    whichever is fewer, so the words and the int64 working arrays of a
    group stay at about 64 KB each."""
    return min(256, max(1, (1 << 13) >> n))


def _by_n(seed: int, start: int, count: int,
          ns: int) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
    """(n, trials, bases) for the trials start..start+count-1, in groups
    of one n in [2, 1 + ns] (word 0) and at most _group_rows(n) trials,
    each group in trial order."""
    stop = start + count
    for lo in range(start, stop, _BLOCK):
        trials, bases = trial_bases(seed, lo, min(lo + _BLOCK, stop))
        n = 2 + bounded(trial_words(bases, 1)[:, 0], ns)
        for v in range(2, 2 + ns):
            rows = np.flatnonzero(n == v)
            step = _group_rows(v)
            for part in range(0, len(rows), step):
                t = rows[part:part + step]
                yield v, trials[t], bases[t]


def set_draws(seed: int, start: int, count: int) -> Iterator[tuple]:
    """Groups (n, trials, ind, chars) of the tA or lem1 trials
    start..start+count-1: A's int8 indicator and V's characters, padded
    with zeros to n."""
    for n, trials, bases in _by_n(seed, start, count, 11):
        words = trial_words(bases, 2 + n + max(1, (1 << n) // 64))
        draws = bounded(words[:, 1:2 + n], [n + 1] + [(1 << n) - 1] * n)
        chars = draws[:, 1:] + 1
        chars[np.arange(n) >= draws[:, :1]] = 0
        yield n, trials, bits(words[:, 2 + n:], 1 << n), chars


def techlem_draws(seed: int, start: int, count: int,
                  ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray,
                                      np.ndarray]]:
    """(trials, nums, dens, m) for blocks of the techlem trials
    start..start+count-1: row t holds trial trials[t]'s m deltas
    nums[t, i] / dens[t, i], padded with 0 / 1."""
    stop = start + count
    for lo in range(start, stop, _TECHLEM_ROWS):
        trials, bases = trial_bases(seed, lo,
                                     min(lo + _TECHLEM_ROWS, stop))
        words = trial_words(bases, 17)
        m = 1 + bounded(words[:, 0], 8)
        dens = 1 + bounded(words[:, 1::2], 64)
        nums = bounded(words[:, 2::2], dens + 1)
        pad = np.arange(8) >= m[:, None]
        nums[pad] = 0
        dens[pad] = 1
        yield trials, nums, dens, m


def chang_draws(seed: int, start: int, count: int) -> Iterator[tuple]:
    """Groups (n, trials, nums, exp, j) of the chang trials
    start..start+count-1: the table nums / 2^exp (int8 nums) and eps =
    2^-j, which a trial uses only when the table is nonzero."""
    for n, trials, bases in _by_n(seed, start, count, 9):
        words = trial_words(bases, 3 + (1 << n))
        exp, j = bounded(words[:, 1:3], [4, 5]).T
        yield (n, trials, (bounded(words[:, 3:], 17) - 8).astype(np.int8),
               exp, j)


def _characters(n: int, k: np.ndarray, r: np.ndarray,
                s: np.ndarray) -> np.ndarray:
    """k[t] independent characters of F2^n in row t, padded with zeros to
    _BECKNER_K, from column j of r and s for character j.

    Character j is c ^ (the characters t < j whose bit t is set in s), s
    in [0, 2^j), and c holds the bits of r in [1, 2^(n-j) - 1], low first,
    in the positions that no earlier character's c took as its lowest set
    bit.  Those c are a complement of the span so far and s a uniform
    point of the span, so character j is uniform off the span: the law of
    drawing characters until j + 1 are independent, with no loop.
    """
    pos = np.arange(n)
    free = np.full(len(k), (1 << n) - 1, dtype=np.int64)
    lambdas = np.zeros((len(k), _BECKNER_K), dtype=np.int64)
    for j in range(r.shape[1]):
        slot = free[:, None] >> pos & 1
        c = ((r[:, j, None] >> np.cumsum(slot, axis=1) - slot & slot)
             << pos).sum(axis=1)
        free ^= c & -c
        for t in range(j):
            c ^= lambdas[:, t] * (s[:, j] >> t & 1)
        lambdas[:, j] = c
    lambdas[np.arange(_BECKNER_K) >= k[:, None]] = 0
    return lambdas


def beckner_draws(seed: int, start: int, count: int) -> Iterator[tuple]:
    """Groups (n, trials, nums, exp, lambdas, eta_idx) of the beckner
    trials start..start+count-1: a table nums / 2^exp (int8 nums), up to
    four independent characters, padded with zeros, and the index of one
    of four etas."""
    for n, trials, bases in _by_n(seed, start, count, 9):
        chars = min(n, _BECKNER_K)
        words = trial_words(bases, 4 + 2 * chars + (1 << n))
        draws = bounded(words[:, 1:4 + 2 * chars], [4, chars + 1, 4] + [
            x for j in range(chars) for x in ((1 << (n - j)) - 1, 1 << j)])
        lambdas = _characters(n, draws[:, 1], 1 + draws[:, 3::2],
                              draws[:, 4::2])
        yield (n, trials,
               (bounded(words[:, 4 + 2 * chars:], 17) - 8).astype(np.int8),
               draws[:, 0], lambdas, draws[:, 2])
