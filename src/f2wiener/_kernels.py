"""Hot integer kernels: Walsh-Hadamard butterflies and the annealing sweep.

Jitted with numba when it is importable; setting F2WIENER_NO_NUMBA=1 (or
true/yes/on) forces the pure-numpy path.  Both paths run the same integer
arithmetic and consume the same pregenerated random streams, so results are
bit-identical; the flag only trades speed.  benchmarks/bench_kernels.py
compares the two.
"""
from __future__ import annotations

import math
import os

import numpy as np

__all__ = [
    "HAVE_NUMBA",
    "BACKEND",
    "wht_rows",
    "wht_rows_numpy",
    "anneal_sweep",
    "anneal_sweep_numpy",
]

_flag = os.environ.get("F2WIENER_NO_NUMBA", "").strip().lower()
NUMBA_DISABLED = _flag in {"1", "true", "yes", "on"}

try:
    if NUMBA_DISABLED:
        raise ImportError("numba disabled by F2WIENER_NO_NUMBA")
    from numba import njit

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False

BACKEND = "numba" if HAVE_NUMBA else "numpy"


# Sylvester Hadamard matrix of order 8: entry (i, j) is (-1)^<i, j>.
_H8 = np.array([[1 - 2 * ((i & j).bit_count() & 1) for j in range(8)]
                for i in range(8)], dtype=np.int64)


def wht_rows_numpy(mat: np.ndarray) -> np.ndarray:
    """In-place unnormalized Walsh-Hadamard transform along the last axis.

    mat is (rows, cols) with cols a power of two.  Works for int64 and for
    object dtype (arbitrary-precision numerators).  The stages run on
    reshaped views, so a non-contiguous mat is transformed as a contiguous
    copy that is then written back.
    """
    if not mat.flags.c_contiguous:
        work = np.ascontiguousarray(mat)
        wht_rows_numpy(work)
        mat[...] = work
        return mat
    _, cols = mat.shape
    h = 1
    if mat.dtype == np.int64 and cols >= 8:
        # Stages h = 1, 2, 4 in one product with the order-8 transform: their
        # runs are too short for the butterfly below to pay.  Every partial
        # sum is at most 8 * max|x|, within the max|x| * cols bound the full
        # transform already needs to stay exact in int64.
        blocks = mat.reshape(-1, 8)
        blocks[:] = blocks @ _H8
        h = 8
    while h < cols:
        flat = mat.reshape(-1, 2 * h)
        a = flat[:, :h]
        b = flat[:, h:]
        diff = a - b
        a += b
        b[:] = diff
        h *= 2
    return mat


def _parity_vec(v: np.ndarray) -> np.ndarray:
    # XOR-fold parity of int64 values; v must be non-negative.
    v = v ^ (v >> 32)
    v = v ^ (v >> 16)
    v = v ^ (v >> 8)
    v = v ^ (v >> 4)
    v = v ^ (v >> 2)
    v = v ^ (v >> 1)
    return v & 1


def anneal_sweep_numpy(wht, members, nonmembers, pick_out, pick_in, accept,
                       t0, cooling, scale, best_members):
    """Single-swap annealing on the unnormalized spectrum of an indicator.

    wht holds sum_{x in A} (-1)^<g,x> for every character g; a swap replaces
    one member with one non-member and shifts each entry by -2, 0 or +2.
    Mutates wht/members/nonmembers, fills best_members, returns the best
    unnormalized l1 spectrum sum seen (an int).
    """
    m = wht.shape[0]
    gammas = np.arange(m, dtype=np.int64)
    cur = int(np.abs(wht).sum())
    best = cur
    best_members[:] = members
    temp = t0
    steps = pick_out.shape[0]
    for t in range(steps):
        io = int(pick_out[t])
        ii = int(pick_in[t])
        x_out = int(members[io])
        x_in = int(nonmembers[ii])
        sign_in = 1 - 2 * _parity_vec(gammas & x_in)
        sign_out = 1 - 2 * _parity_vec(gammas & x_out)
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


if HAVE_NUMBA:

    @njit(cache=True)
    def _parity_jit(v):
        v ^= v >> 32
        v ^= v >> 16
        v ^= v >> 8
        v ^= v >> 4
        v ^= v >> 2
        v ^= v >> 1
        return v & 1

    @njit(cache=True)
    def _wht_rows_jit(mat):
        rows, cols = mat.shape
        for r in range(rows):
            h = 1
            while h < cols:
                i = 0
                while i < cols:
                    for j in range(i, i + h):
                        x = mat[r, j]
                        y = mat[r, j + h]
                        mat[r, j] = x + y
                        mat[r, j + h] = x - y
                    i += 2 * h
                h *= 2
        return mat

    @njit(cache=True)
    def _anneal_jit(wht, members, nonmembers, pick_out, pick_in, accept,
                    t0, cooling, scale, best_members):
        m = wht.shape[0]
        size = members.shape[0]
        cur = np.int64(0)
        for g in range(m):
            cur += wht[g] if wht[g] >= 0 else -wht[g]
        best = cur
        for i in range(size):
            best_members[i] = members[i]
        temp = t0
        cand = np.empty(m, np.int64)
        for t in range(pick_out.shape[0]):
            io = pick_out[t]
            ii = pick_in[t]
            x_out = members[io]
            x_in = nonmembers[ii]
            new = np.int64(0)
            for g in range(m):
                d = (1 - 2 * _parity_jit(g & x_in)) - (1 - 2 * _parity_jit(g & x_out))
                v = wht[g] + d
                cand[g] = v
                new += v if v >= 0 else -v
            delta = new - cur
            if delta <= 0 or accept[t] < math.exp(-(delta / scale) / temp):
                for g in range(m):
                    wht[g] = cand[g]
                members[io] = x_in
                nonmembers[ii] = x_out
                cur = new
                if cur < best:
                    best = cur
                    for i in range(size):
                        best_members[i] = members[i]
            temp *= cooling
        return best


def wht_rows(mat: np.ndarray) -> np.ndarray:
    """Dispatching in-place row-wise WHT; numba only handles int64."""
    if HAVE_NUMBA and mat.dtype == np.int64:
        return _wht_rows_jit(mat)
    return wht_rows_numpy(mat)


def anneal_sweep(wht, members, nonmembers, pick_out, pick_in, accept,
                 t0, cooling, scale, best_members):
    if HAVE_NUMBA:
        return int(_anneal_jit(wht, members, nonmembers, pick_out, pick_in,
                               accept, t0, cooling, scale, best_members))
    return int(anneal_sweep_numpy(wht, members, nonmembers, pick_out, pick_in,
                                  accept, t0, cooling, scale, best_members))
