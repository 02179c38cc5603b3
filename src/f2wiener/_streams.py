"""The random stream of each verify trial, as arrays.

Trial i of seed S draws from numpy.random.default_rng([S, i]).  Building
that Generator costs more than most trials, so _seed_words derives the
PCG64 seed words of a block of trials at once, by numpy's own SeedSequence
arithmetic, as uint64 arrays.  PCG64 is an LCG on 128 bits, so the state
that a trial's output k reads is a closed form in its seed words (jump-ahead,
see _JUMP), and _outputs computes a block's outputs as uint64 arrays with
no Generator involved.

trial_words reads each trial's first output, which tells how many outputs
the trial uses, then exactly those outputs, and stacks the trials of a
block that use as many; bounded_draws decodes numpy's draws from them as
arrays (Lemire's method, as numpy applies it to 32-bit words).  _draws
decodes every verify suite's trials this way.
"""
from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

__all__ = ["bounded_draws", "trial_words"]

# Trials whose seed words are derived at once.  The SeedSequence hash and
# the first outputs are a few hundred numpy steps a block, whose call
# overhead a block of 1024 trials spreads to about 0.4 us a trial (1.4 us
# at 256; 2 cores, numpy 2.4), while a block's words and states take
# tens of KB.
_SEED_BLOCK = 1024
# The 64-bit outputs a group of trials of one width holds (16 KB), and so
# the most that one jump-ahead call computes.  Raw words take four bytes
# an entry, more than what they decode to, so a small group keeps a
# block's held words small, at a few more decodes.
_RAW_BUDGET = 1 << 11
# Trials of at most _JUMP_RAWS outputs compute them by jump-ahead; a wider
# trial loads a Generator and calls random_raw once.  Timed over blocks of
# one width (2 cores, numpy 2.4), the jump-ahead took 1.0 us a trial at 9
# outputs, 2.2 at 36 and 3.7 at 68, and the Generator 3.3 to 3.6 us at
# each, so they meet near 64 outputs.
_JUMP_RAWS = 64
_MASK32 = 0xFFFFFFFF
# numpy scalars, which numpy applies to arrays faster than Python ints.
_SHIFT32, _TWO32 = np.uint64(32), np.uint64(1 << 32)
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _split(values: List[int]) -> np.ndarray:
    """128-bit values as the rows (hi, lo, lo & 2^32 - 1, lo >> 32) of a
    uint64 array: the halves, and lo's two 32-bit limbs."""
    hi = np.array([v >> 64 for v in values], dtype=np.uint64)
    lo = np.array([v & (1 << 64) - 1 for v in values], dtype=np.uint64)
    return np.stack([hi, lo, lo & _MASK32, lo >> _SHIFT32])


def _jump_constants(count: int) -> np.ndarray:
    """(A_k, C_k) for k < count, split as _split does, in an (8, count)
    array.  PCG64's set-seed leaves the state S_0 = (s + inc) M + inc, and
    each output steps S_(k+1) = M S_k + inc, then outputs S_(k+1); so
    S_k = A_k s + C_k inc mod 2^128 with A_0 = M, C_0 = M + 1, A_(k+1) =
    M A_k and C_(k+1) = M C_k + 1."""
    a, c = [_PCG_MULT], [_PCG_MULT + 1]
    for _ in range(count - 1):
        a.append(a[-1] * _PCG_MULT & _MASK128)
        c.append((c[-1] * _PCG_MULT + 1) & _MASK128)
    return np.concatenate([_split(a), _split(c)])


_JUMP = _jump_constants(_JUMP_RAWS + 1)


def _seed_words(seed: int, idx: np.ndarray) -> np.ndarray:
    """PCG64's seed s and increment inc of default_rng([seed, i]) for each
    i in idx (uint64), split as _split does, in an (8, len(idx)) array.

    SeedSequence hashes the entropy words (seed's 32-bit words, low first,
    then i, a single word as verify keeps i below 2^32) into a pool of
    four and draws eight words from it.  They give PCG64's 128-bit seed s
    and stream j, and inc = 2j + 1.  The hash constants do not depend on
    the data, so a word is a uint64 array over the block holding a 32-bit
    value, or an int while it depends on the seed alone.
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
    s_hi, s_lo, j_hi, j_lo = (out[2 * k] | (out[2 * k + 1] << 32)
                              for k in range(4))
    inc_lo = j_lo << 1 | 1
    return np.stack([s_hi, s_lo, s_lo & _MASK32, s_lo >> 32,
                     j_hi << 1 | j_lo >> 63, inc_lo, inc_lo & _MASK32,
                     inc_lo >> 32])


def _mul128(x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(hi, lo) of x * y mod 2^128 for x and y split as _split does, on
    broadcast uint64 arrays.  The products that only count mod 2^64 wrap
    as numpy's uint64 arrays do; lo * lo's high half is summed from its
    32-bit limbs, whose products and partial sums fit in 64 bits."""
    xh, xl, x0, x1 = x
    yh, yl, y0, y1 = y
    p01 = x0 * y1
    p10 = x1 * y0
    mid = x0 * y0
    mid >>= _SHIFT32
    mid += p01 & _MASK32
    mid += p10 & _MASK32
    mid >>= _SHIFT32
    p01 >>= _SHIFT32
    p10 >>= _SHIFT32
    hi = x1 * y1
    hi += p01
    hi += p10
    hi += mid
    hi += xh * yl
    hi += xl * yh
    return hi, xl * yl


def _states(words: np.ndarray,
            jump: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(hi, lo) of the states A_k s + C_k inc mod 2^128 for trials' words
    (columns of _seed_words) and constants (columns of _JUMP) that
    broadcast against each other."""
    hi, lo = _mul128(jump[:4], words[:4])
    hi_c, lo_c = _mul128(jump[4:], words[4:])
    lo += lo_c
    hi += hi_c
    hi += lo < lo_c
    return hi, lo


def _outputs(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's 64-bit outputs from the states they read (XSL-RR: the XOR
    of the halves rotated right by the top six bits), as little-endian
    words."""
    rot = hi >> np.uint64(58)
    lo ^= hi
    out = np.left_shift(lo, (64 - rot) & np.uint64(63), dtype="<u8")
    out |= lo >> rot
    return out


def _generators(words: np.ndarray) -> Iterator[np.random.Generator]:
    """One Generator, loaded in turn with the state of each trial of words
    (_seed_words) as default_rng([seed, i]) leaves it."""
    hi, lo = _states(words, _JUMP[:, :1])
    rng = np.random.default_rng(0)
    bitgen = rng.bit_generator
    pcg = {}
    full = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0,
            "uinteger": 0}
    for sh, sl, ih, il in zip(hi.tolist(), lo.tolist(), words[4].tolist(),
                              words[5].tolist()):
        pcg["state"], pcg["inc"] = sh << 64 | sl, ih << 64 | il
        bitgen.state = full
        yield rng


def trial_words(seed: int, start: int, count: int,
                width) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """(trials, words) for the trials start..start+count-1, a block of at
    most _SEED_BLOCK trials at a time, in groups of trials of one width.

    width(firsts) is the number of 64-bit outputs each trial takes, given
    the array of their first 32-bit words.  Row t of words holds the
    32-bit words that trial trials[t]'s Generator hands to its bounded
    draws: each output low half first, as PCG64's next_uint32 splits it.
    A group lists its trials in order and holds at most _RAW_BUDGET
    outputs, or one trial, so a block holds only the words its trials use.
    """
    stop = start + count
    for lo in range(start, stop, _SEED_BLOCK):
        idx = np.arange(lo, min(lo + _SEED_BLOCK, stop), dtype=np.uint64)
        words = _seed_words(seed, idx)
        widths = width(_outputs(*_states(words, _JUMP[:, 1:2])) & _MASK32)
        order = np.argsort(widths, kind="stable")
        rngs = _generators(words[:, order[widths[order] > _JUMP_RAWS]])
        for rows in np.split(order, np.flatnonzero(np.diff(widths[order]))
                             + 1):
            w = int(widths[rows[0]])
            step = max(1, _RAW_BUDGET // w)
            for part in range(0, len(rows), step):
                t = rows[part:part + step]
                if w <= _JUMP_RAWS:
                    # Output k of a trial reads state S_(k + 1).
                    raw = _outputs(*_states(words[:, t, None],
                                            _JUMP[:, None, 1:w + 1]))
                else:
                    raw = np.empty((len(t), w), dtype="<u8")
                    for row, rng in zip(raw, rngs):
                        row[:] = rng.bit_generator.random_raw(w)
                yield idx[t].astype(np.int64), raw.view("<u4")


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
