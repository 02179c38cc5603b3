"""The random stream of each verify trial.

Trial i of seed S draws from numpy.random.default_rng([S, i]).  Building
that Generator costs more than most trials, so trial_rngs derives the
PCG64 states of a block of trials at once, by numpy's own SeedSequence
and PCG64 seeding arithmetic, and loads each into one reused Generator.

A trial whose draws are all small bounded integers can skip the
Generator calls: trial_words reads the first raw words of each stream of
a block into one array, and bounded_draws decodes numpy's draws from them
as arrays (Lemire's method, as numpy applies it to 32-bit words).
techlem_draws decodes the techlem suite's trials that way.
"""
from __future__ import annotations

from itertools import islice
from typing import Iterator, List, Tuple

import numpy as np

__all__ = ["bounded_draws", "techlem_draws", "trial_rngs", "trial_words"]

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


def _pcg64_states(seed: int,
                  idx: np.ndarray) -> Iterator[Tuple[int, int]]:
    """PCG64 (state, inc) of default_rng([seed, i]) for each i in idx.

    SeedSequence hashes the entropy words (seed's 32-bit words, low first,
    then i, a single word as verify keeps i below 2^32) into a pool of
    four and draws eight words from it.  They give PCG64's 128-bit seed s and stream j,
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


def trial_rngs(seed: int, start: int,
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


def trial_words(seed: int, start: int, count: int,
                raws: int) -> Iterator[Tuple[int, np.ndarray]]:
    """(first trial, words) for blocks of at most _SEED_BLOCK trials from
    start..start+count-1.  Row t of words holds the first 2 * raws 32-bit
    words that trial first + t's Generator hands to its bounded draws, as
    uint64: each 64-bit output of the stream, low half first, as PCG64's
    next_uint32 splits it."""
    rngs = trial_rngs(seed, start, count)
    stop = start + count
    for lo in range(start, stop, _SEED_BLOCK):
        rows = min(_SEED_BLOCK, stop - lo)
        raw = np.empty((rows, raws), dtype=np.uint64)
        for t, (_, rng) in enumerate(islice(rngs, rows)):
            raw[t] = rng.bit_generator.random_raw(raws)
        words = np.empty((rows, raws, 2), dtype=np.uint64)
        np.bitwise_and(raw, _MASK32, out=words[:, :, 0])
        np.right_shift(raw, 32, out=words[:, :, 1])
        yield lo, words.reshape(rows, 2 * raws)


def bounded_draws(words: np.ndarray,
                  high) -> Tuple[np.ndarray, np.ndarray]:
    """(draws, redrawn) for integers(0, high) on each 32-bit word, high
    an integer array that broadcasts against words, 2 <= high <= 2^32.

    numpy's draw is the high half of word * high, unless the low half lies
    below 2^32 mod high: then numpy rejects the word and draws again from
    the next one.  redrawn flags those places, where the draw and every
    later draw of the trial must come from the Generator itself; a power
    of two never rejects.
    """
    high = np.asarray(high, dtype=np.uint64)
    prod = words * high
    return ((prod >> 32).astype(np.int64),
            (prod & _MASK32) < (1 << 32) % high)


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


def _decode_techlem(seed: int, first: int, words: np.ndarray,
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(nums, dens, m) of trials first, first + 1, ... from their stream
    words, as _draw_techlem draws them; the columns after m[t] pad with
    num 0 over den 1.

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
            np.random.default_rng([seed, first + t]))
        m[t] = len(row_nums)
        nums[t], dens[t] = 0, 1
        nums[t, :m[t]] = row_nums
        dens[t, :m[t]] = row_dens
    return nums, dens, m


def techlem_draws(seed: int, start: int, count: int,
                  ) -> Iterator[Tuple[int, np.ndarray, np.ndarray,
                                      np.ndarray]]:
    """(first trial, nums, dens, m) for blocks of the techlem trials
    start..start+count-1: row t holds trial first + t's m deltas
    nums[t, i] / dens[t, i], drawn as the Generator of default_rng([seed,
    first + t]) draws them (see _draw_techlem)."""
    for first, words in trial_words(seed, start, count, _TECHLEM_RAWS):
        yield (first, *_decode_techlem(seed, first, words))
