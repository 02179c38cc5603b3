"""The random stream of each verify trial.

Trial i of seed S draws from numpy.random.default_rng([S, i]).  Building
that Generator costs more than most trials, so trial_rngs derives the
PCG64 states of a block of trials at once, by numpy's own SeedSequence
and PCG64 seeding arithmetic, and loads each into one reused Generator.
"""
from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

__all__ = ["trial_rngs"]

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
