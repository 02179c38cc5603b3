"""The draws of each verify suite's trials.

Trial i of seed S draws from numpy.random.default_rng([S, i]) (see
_streams).  Every suite's trials draw only small bounded integers, so
their draws are decoded as arrays from the words trial_words reads, with
no Generator calls, and a trial with a word that numpy would reject is
drawn by its own Generator instead.  A beckner trial draws its characters
by a loop that stops once k are independent; the loop walks the decoded
candidates in Python, and a trial that needs more candidates than its
words hold is drawn by its Generator too.

set_draws, chang_draws and beckner_draws yield groups (n, trials,
*fields) of trials that share n, row t of each field belonging to trial
trials[t]; techlem_draws yields (trials, nums, dens, m).
"""
from __future__ import annotations

from operator import length_hint
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ._streams import bounded_draws, trial_words

__all__ = ["beckner_draws", "chang_draws", "set_draws", "techlem_draws"]

# A techlem trial draws m in [1, 8], then m pairs (den in [1, 64], num in
# [0, den]): at most 1 + 2 * 8 words of its stream, from 9 raw outputs.
_TECHLEM_M = 8
_TECHLEM_DEN = 64
_TECHLEM_RAWS = 9


def _draw_techlem(rng: np.random.Generator) -> Tuple[List[int], List[int]]:
    """A techlem trial's (nums, dens) by Generator calls."""
    nums, dens = [], []
    for _ in range(int(rng.integers(1, _TECHLEM_M + 1))):
        den = int(rng.integers(1, _TECHLEM_DEN + 1))
        dens.append(den)
        nums.append(int(rng.integers(0, den + 1)))
    return nums, dens


def _decode_techlem(seed: int, trials: np.ndarray, words: np.ndarray,
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(nums, dens, m) of the trials from their stream words, as
    _draw_techlem draws them; the columns after m[t] pad with num 0 over
    den 1.

    Word 0 gives m, words 1, 3, ... the dens and 2, 4, ... the nums.  A
    trial with a num that numpy would draw from a later word is drawn by
    _draw_techlem from its own Generator instead.
    """
    m = 1 + bounded_draws(words[:, 0], _TECHLEM_M)[0]
    dens = 1 + bounded_draws(words[:, 1:2 * _TECHLEM_M:2], _TECHLEM_DEN)[0]
    nums, redrawn = bounded_draws(words[:, 2:2 * _TECHLEM_M + 1:2], dens + 1)
    pad = np.arange(_TECHLEM_M) >= m[:, None]
    nums[pad] = 0
    dens[pad] = 1
    for t in np.flatnonzero((redrawn & ~pad).any(axis=1)).tolist():
        row_nums, row_dens = _draw_techlem(
            np.random.default_rng([seed, int(trials[t])]))
        m[t] = len(row_nums)
        nums[t], dens[t] = 0, 1
        nums[t, :m[t]] = row_nums
        dens[t, :m[t]] = row_dens
    return nums, dens, m


def _techlem_width(firsts: np.ndarray) -> np.ndarray:
    return np.full(firsts.shape, _TECHLEM_RAWS)


def techlem_draws(seed: int, start: int, count: int,
                  ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray,
                                      np.ndarray]]:
    """(trials, nums, dens, m) for groups of the techlem trials
    start..start+count-1: row t holds trial trials[t]'s m deltas
    nums[t, i] / dens[t, i] (see _draw_techlem)."""
    for trials, words in trial_words(seed, start, count, _techlem_width):
        yield (trials, *_decode_techlem(seed, trials, words))


# The tA and lem1 trials draw n in [2, 12], A's indicator on F2^n, k in
# [0, n] and k characters in [1, 2^n - 1]: words 0, 1..2^n, 2^n + 1 and
# then up to n more.  The chang trials draw n in [2, 10], 2^n numerators
# in [-8, 8], exp in [0, 3] and j in [0, 4]: words 0, 1..2^n, 2^n + 1 and
# 2^n + 2.  The beckner trials draw n in [2, 10], 2^n numerators, exp, k in
# [0, min(n, 4)], characters in [1, 2^n - 1] until k are independent and
# the index of one of four etas: words 0, 1..2^n, 2^n + 1, 2^n + 2, then
# the candidates and the eta index, for which a trial reads min(n, 4) +
# _BECKNER_SLACK words or one more.  Each width grows with n, so a group
# of one width shares n.
_SET_NS = 11
_CHANG_NS = 9
_BECKNER_NS = 9
_BECKNER_K = 4
_BECKNER_SLACK = 8
_SET_RAWS = np.array([(3 + (1 << n) + n) // 2
                      for n in range(2, 2 + _SET_NS)])
_CHANG_RAWS = np.array([(4 + (1 << n)) // 2 for n in range(2, 2 + _CHANG_NS)])
_BECKNER_RAWS = np.array([
    (4 + (1 << n) + min(n, _BECKNER_K) + _BECKNER_SLACK) // 2
    for n in range(2, 2 + _BECKNER_NS)])
# Per n, the tA and lem1 words drawn by rejection (n's, k's and the
# characters') and their ranges.
_SET_PICKS = tuple((np.r_[0, (1 << n) + 1:(1 << n) + n + 2],
                    np.array([_SET_NS, n + 1] + [(1 << n) - 1] * n,
                             dtype=np.uint64))
                   for n in range(2, 2 + _SET_NS))


def _draw_set_and_subspace(rng: np.random.Generator,
                           ) -> Tuple[int, np.ndarray, np.ndarray]:
    """A random set A of F2^n, 2 <= n <= 12, and up to n characters
    spanning V, by Generator calls: (n, A's indicator, the characters
    padded with zeros to n)."""
    n = int(rng.integers(2, 2 + _SET_NS))
    ind = rng.integers(0, 2, size=1 << n)
    chars = np.zeros(n, dtype=np.int64)
    k = int(rng.integers(0, n + 1))
    chars[:k] = rng.integers(1, 1 << n, size=k)
    return n, ind.astype(np.int8), chars


def _draw_chang(rng: np.random.Generator) -> Tuple[int, np.ndarray, int, int]:
    """A chang trial's table nums / 2^exp on F2^n, 2 <= n <= 10, and the j
    of its eps = 2^-j, by Generator calls: (n, nums as int8, exp, j).  The
    trial uses j only when the table is nonzero."""
    n = int(rng.integers(2, 2 + _CHANG_NS))
    nums = rng.integers(-8, 9, size=1 << n, dtype=np.int64)
    exp = int(rng.integers(0, 4))
    return n, nums.astype(np.int8), exp, int(rng.integers(0, 5))


def _independent_chars(candidates: Iterable[int],
                       count: int) -> Optional[List[int]]:
    """count linearly independent characters: each candidate in turn is
    kept when it lies outside the span of those kept so far.  None when
    the candidates run out first."""
    span = {0}
    out: List[int] = []
    candidates = iter(candidates)
    while len(out) < count:
        g = next(candidates, None)
        if g is None:
            return None
        if g not in span:
            out.append(g)
            span |= {s ^ g for s in span}
    return out


def _draw_beckner(rng: np.random.Generator,
                  ) -> Tuple[int, np.ndarray, int, List[int], int]:
    """A beckner trial by Generator calls: (n, nums as int8, exp, lambdas,
    eta_idx), a table of integers in [-8, 8] over 2^exp, exp <= 3, on
    F2^n, 2 <= n <= 10, up to four independent characters, padded with
    zeros, and the index of one of four etas."""
    n = int(rng.integers(2, 2 + _BECKNER_NS))
    nums = rng.integers(-8, 9, size=1 << n, dtype=np.int64)
    exp = int(rng.integers(0, 4))
    k = int(rng.integers(0, min(n, _BECKNER_K) + 1))
    lambdas = _independent_chars(
        (int(rng.integers(1, 1 << n)) for _ in range(64 * k + 64)), k)
    if lambdas is None:
        raise RuntimeError("failed to sample independent characters")
    return (n, nums.astype(np.int8), exp,
            lambdas + [0] * (_BECKNER_K - k), int(rng.integers(0, 4)))


def _redraw(seed: int, draw, redrawn: np.ndarray, n: int,
            trials: np.ndarray, *fields: np.ndarray) -> List[tuple]:
    """The decoded group (n, trials, *fields) less each trial that
    redrawn flags, then each of those drawn by draw from its own
    Generator, as a group of one (its n may differ)."""
    if not redrawn.any():
        return [(n, trials, *fields)]
    keep = ~redrawn
    groups = [(n, trials[keep], *(f[keep] for f in fields))]
    for i in trials[redrawn].tolist():
        m, *values = draw(np.random.default_rng([seed, i]))
        groups.append((m, np.array([i]),
                       *(np.asarray(v)[None] for v in values)))
    return groups


def _decode_sets(seed: int, trials: np.ndarray,
                 words: np.ndarray) -> List[tuple]:
    """Groups (n, trials, ind, chars) of the trials from their stream
    words, as _draw_set_and_subspace draws them (int8 indicators, int64
    characters padded with zeros).

    Word 0 gives n, words 1..2^n the indicator (the top bit, as range 2
    never rejects), word 2^n + 1 k and the n words after it the
    characters.  A trial with a word that numpy would reject is drawn by
    _draw_set_and_subspace instead, also where the word is a character
    word that k leaves unused.
    """
    n = 2 + (int(words[0, 0]) * _SET_NS >> 32)
    cols, high = _SET_PICKS[n - 2]
    draws, rejected = bounded_draws(words[:, cols], high)
    chars = draws[:, 2:] + 1
    chars[np.arange(n) >= draws[:, 1, None]] = 0
    return _redraw(seed, _draw_set_and_subspace, rejected.any(axis=1), n,
                   trials, (words[:, 1:1 + (1 << n)] >> 31).astype(np.int8),
                   chars)


def _decode_chang(seed: int, trials: np.ndarray,
                  words: np.ndarray) -> List[tuple]:
    """Groups (n, trials, nums, exp, j) of the trials from their stream
    words, as _draw_chang draws them (int8 nums).  A trial with a word
    that numpy would reject is drawn by _draw_chang instead."""
    n = 2 + (int(words[0, 0]) * _CHANG_NS >> 32)
    size = 1 << n
    draws, rejected = bounded_draws(
        words[:, :size + 3],
        np.repeat((_CHANG_NS, 17, 4, 5), (1, size, 1, 1)))
    exp, j = draws[:, size + 1:].T.copy()
    return _redraw(seed, _draw_chang, rejected.any(axis=1), n, trials,
                   (draws[:, 1:size + 1] - 8).astype(np.int8), exp, j)


def _decode_beckner(seed: int, trials: np.ndarray,
                    words: np.ndarray) -> List[tuple]:
    """Groups (n, trials, nums, exp, lambdas, eta_idx) of the trials from
    their stream words, as _draw_beckner draws them.

    Word 0 gives n, words 1..2^n the numerators, 2^n + 1 exp and 2^n + 2
    k; the candidate characters follow, and the eta index (the top two
    bits, as range 4 never rejects) is the word after the last candidate
    the trial's loop takes.  A trial with a word that numpy would reject
    among those it uses, or that needs a candidate past the next-to-last
    word, is drawn by _draw_beckner instead.
    """
    n = 2 + (int(words[0, 0]) * _BECKNER_NS >> 32)
    size = 1 << n
    first = size + 3
    slots = words.shape[1] - first - 1
    draws, rejected = bounded_draws(
        words[:, :first + slots],
        np.repeat((_BECKNER_NS, 17, 4, min(n, _BECKNER_K) + 1, size - 1),
                  (1, size, 1, 1, slots)))
    redrawn = rejected[:, :first].any(axis=1)
    # A candidate loop can only read up to the first rejected candidate.
    usable = np.where(rejected[:, first:].any(axis=1),
                      rejected[:, first:].argmax(axis=1), slots).tolist()
    taken = np.zeros(len(trials), dtype=np.int64)
    lambdas = np.zeros((len(trials), _BECKNER_K), dtype=np.int64)
    for t, (row, k) in enumerate(zip((draws[:, first:] + 1).tolist(),
                                     draws[:, size + 2].tolist())):
        candidates = iter(row[:usable[t]])
        chars = _independent_chars(candidates, k)
        if chars is None:
            redrawn[t] = True
            continue
        taken[t] = usable[t] - length_hint(candidates)
        lambdas[t, :k] = chars
    eta_idx = words[np.arange(len(trials)), first + taken] >> 30
    return _redraw(seed, _draw_beckner, redrawn, n, trials,
                   (draws[:, 1:size + 1] - 8).astype(np.int8),
                   draws[:, size + 1], lambdas, eta_idx.astype(np.int64))


def _decoded(seed: int, start: int, count: int, ns: int, raws: np.ndarray,
             decode) -> Iterator[tuple]:
    # n is drawn first, from range ns: word 0 gives a trial's width.
    for trials, words in trial_words(seed, start, count,
                                     lambda firsts: raws[firsts * ns >> 32]):
        yield from decode(seed, trials, words)


def set_draws(seed: int, start: int, count: int) -> Iterator[tuple]:
    """Groups (n, trials, ind, chars) of the tA or lem1 trials
    start..start+count-1 (see _draw_set_and_subspace)."""
    return _decoded(seed, start, count, _SET_NS, _SET_RAWS, _decode_sets)


def chang_draws(seed: int, start: int, count: int) -> Iterator[tuple]:
    """Groups (n, trials, nums, exp, j) of the chang trials
    start..start+count-1 (see _draw_chang)."""
    return _decoded(seed, start, count, _CHANG_NS, _CHANG_RAWS,
                    _decode_chang)


def beckner_draws(seed: int, start: int, count: int) -> Iterator[tuple]:
    """Groups (n, trials, nums, exp, lambdas, eta_idx) of the beckner
    trials start..start+count-1 (see _draw_beckner)."""
    return _decoded(seed, start, count, _BECKNER_NS, _BECKNER_RAWS,
                    _decode_beckner)
