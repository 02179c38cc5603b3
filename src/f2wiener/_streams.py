"""The random stream of each verify trial.

Trial i of seed S draws from numpy.random.default_rng([S, i]).  Building
that Generator costs more than most trials, so trial_rngs derives the
PCG64 states of a block of trials at once, by numpy's own SeedSequence
and PCG64 seeding arithmetic, and loads each into one reused Generator.

A trial whose draws are all small bounded integers can skip the
Generator calls: trial_words reads each trial's first word, which tells
how many words the trial uses, then exactly those words, and stacks the
trials of a block that use as many; bounded_draws decodes numpy's draws
from them as arrays (Lemire's method, as numpy applies it to 32-bit
words).  _draws decodes the verify suites' trials this way.
"""
from __future__ import annotations

from itertools import islice
from typing import Dict, Iterator, List, Tuple

import numpy as np

__all__ = ["bounded_draws", "trial_rngs", "trial_words"]

# numpy's SeedSequence (a pool of four 32-bit words) and PCG64 set-seed
# constants, for deriving the trials' generator states a block at a time.
# A block of 256 trials spreads the numpy steps' call overhead to about
# half a microsecond a trial while holding only tens of KB of states.
_SEED_BLOCK = 256
# The 64-bit outputs a group of trials of one width holds (16 KB).  Raw
# words take four bytes an entry, more than what they decode to, so a
# small group keeps a block's held words small, at a few more decodes.
_RAW_BUDGET = 1 << 11
_MASK32 = 0xFFFFFFFF
# numpy scalars, which numpy applies to arrays faster than Python ints.
_SHIFT32, _TWO32 = np.uint64(32), np.uint64(1 << 32)
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
    pcg = {}
    full = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0,
            "uinteger": 0}
    stop = start + count
    for lo in range(start, stop, _SEED_BLOCK):
        idx = np.arange(lo, min(lo + _SEED_BLOCK, stop), dtype=np.uint64)
        for i, (state, inc) in enumerate(_pcg64_states(seed, idx), lo):
            pcg["state"], pcg["inc"] = state, inc
            bitgen.state = full
            yield i, rng


def trial_words(seed: int, start: int, count: int,
                width) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """(trials, words) for the trials start..start+count-1, a block of at
    most _SEED_BLOCK trials at a time, in groups of trials of one width.

    width(word) is the number of 64-bit outputs a trial takes, given its
    first 32-bit word: a trial reads its first output alone and the rest in
    one more call.  Row t of words holds the 32-bit words that trial
    trials[t]'s Generator hands to its bounded draws: each output low half
    first, as PCG64's next_uint32 splits it.  A group lists its trials in
    order and is yielded once it holds _RAW_BUDGET outputs, the rest at the
    end of their block, so a block holds only the words its trials use.
    """
    rngs = trial_rngs(seed, start, count)
    stop = start + count
    for lo in range(start, stop, _SEED_BLOCK):
        held: Dict[int, Tuple[List[int], List[int], List[np.ndarray]]] = {}
        for i, rng in islice(rngs, min(_SEED_BLOCK, stop - lo)):
            bitgen = rng.bit_generator
            first = bitgen.random_raw()
            w = width(first & _MASK32)
            ids, firsts, rests = group = held.setdefault(w, ([], [], []))
            ids.append(i)
            firsts.append(first)
            rests.append(bitgen.random_raw(w - 1))
            if len(ids) * w >= _RAW_BUDGET:
                del held[w]
                yield _stack_raws(w, group)
        while held:
            yield _stack_raws(*held.popitem())


def _stack_raws(w: int, group) -> Tuple[np.ndarray, np.ndarray]:
    # Little-endian 64-bit words read as 32-bit ones put each low half
    # first, on any host.
    ids, firsts, rests = group
    raw = np.empty((len(ids), w), dtype="<u8")
    raw[:, 0] = firsts
    raw[:, 1:] = rests
    rests.clear()  # the trials' own arrays go before the group is decoded
    return np.array(ids), raw.view("<u4")


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
    low = prod.astype(np.uint32)
    prod >>= _SHIFT32
    return prod.view(np.int64), low < _TWO32 % high
