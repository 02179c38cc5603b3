"""Hot integer kernels: Walsh-Hadamard butterflies and the annealing sweep.

wht_rows is jitted with numba when it is importable; setting
F2WIENER_NO_NUMBA=1 (or true/yes/on) forces its pure-numpy path.  Both paths
run the same integer arithmetic, so results are bit-identical; the flag only
trades speed.  The annealing sweep has one implementation: a Python loop
that prices a proposal with four lookups in two transformed tables
(swap_delta) while those match the current set, and rebuilds them with one
2-row transform once accepted moves thin out.
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
    "swap_tables",
    "swap_delta",
    "anneal_sweep",
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

# anneal_sweep converts its pregenerated streams to Python values this many
# proposals at a time, so it never holds them all as Python objects.
_BLOCK = 4096

# Rejections in a row after which anneal_sweep rebuilds its swap tables.  A
# rebuild (one 2-row transform) costs about as much as pricing 5-10
# proposals whole, and in the hot phase most proposals are accepted, so the
# tables are rebuilt only once acceptances thin out.
_REBUILD_AFTER = 8


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


if HAVE_NUMBA:

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


def wht_rows(mat: np.ndarray) -> np.ndarray:
    """Dispatching in-place row-wise WHT; numba only handles int64."""
    if HAVE_NUMBA and mat.dtype == np.int64:
        return _wht_rows_jit(mat)
    return wht_rows_numpy(mat)


def swap_tables(wht: np.ndarray) -> np.ndarray:
    """Rows C and A of the swap identity for the spectrum wht.

    C is the transform of clip(wht, -2, 2) and A that of min(|wht|, 2); both
    come from one 2-row wht_rows call.  Entries are at most 2m in absolute
    value, so int64 is exact.
    """
    tables = np.empty((2, wht.shape[0]), dtype=np.int64)
    np.clip(wht, -2, 2, out=tables[0])
    np.abs(tables[0], out=tables[1])
    return wht_rows(tables)


def swap_delta(tables: np.ndarray, x_in: int, x_out: int) -> int:
    """Exact change of sum |wht| when x_out leaves the set and x_in joins.

    The swap adds d = chi_g(x_in) - chi_g(x_out) in {-2, 0, 2} to each wht[g];
    for an integer w, |w + 2s| - |w| = 2 + s*clip(w, -2, 2) - min(|w|, 2) for
    s = +-1.  Summing over the g with d != 0 (s = chi_g(x_in) there), with
    chi_g(x_in) * chi_g(x_out) = chi_g(x_in ^ x_out) and sum_g chi_g(y) = 0
    for y != 0, gives m + (C[x_in] - C[x_out] + A[x_in ^ x_out] - A[0]) / 2.
    """
    m = tables.shape[1]
    return m + ((tables.item(0, x_in) - tables.item(0, x_out)
                 + tables.item(1, x_in ^ x_out) - tables.item(1, 0)) >> 1)


def _swap_change(gammas: np.ndarray, x_in: int, x_out: int) -> np.ndarray:
    # chi_g(x_in) - chi_g(x_out) = 2 * (parity(g & x_out) - parity(g & x_in)).
    p_in = (np.bitwise_count(gammas & x_in) & 1).view(np.int8)
    p_out = (np.bitwise_count(gammas & x_out) & 1).view(np.int8)
    return 2 * (p_out - p_in)


def anneal_sweep(wht, members, nonmembers, pick_out, pick_in, accept,
                 t0, cooling, scale, best_members):
    """Single-swap annealing on the unnormalized spectrum of an indicator.

    wht holds sum_{x in A} (-1)^<g,x> for every character g.  Step t proposes
    swapping members[pick_out[t]] for nonmembers[pick_in[t]] and accepts when
    the l1 change delta is <= 0 or accept[t] < exp(-(delta / scale) / temp);
    temp starts at t0 and is multiplied by cooling after every step.

    While the swap tables match wht a proposal costs four lookups
    (swap_delta), and an accepted one is rechecked against sum |wht|
    recomputed from scratch.  An acceptance leaves the tables stale; the
    proposals after it are priced whole, in O(m), until _REBUILD_AFTER
    rejections in a row pay for rebuilding the tables.
    Mutates wht/members/nonmembers, fills best_members, returns the best
    unnormalized l1 spectrum sum seen (an int).
    """
    m = wht.shape[0]
    gammas = np.arange(m, dtype=np.int64)
    cur = int(np.abs(wht).sum())
    best = cur
    best_members[:] = members
    mem = members.tolist()
    non = nonmembers.tolist()
    tables = swap_tables(wht)
    rejected = 0
    temp = t0
    exp = math.exp
    for lo in range(0, pick_out.shape[0], _BLOCK):
        hi = lo + _BLOCK
        for io, ii, u in zip(pick_out[lo:hi].tolist(), pick_in[lo:hi].tolist(),
                             accept[lo:hi].tolist()):
            x_out = mem[io]
            x_in = non[ii]
            if tables is None:
                change = _swap_change(gammas, x_in, x_out)
                delta = int(np.abs(wht + change).sum()) - cur
            else:
                change = None
                delta = swap_delta(tables, x_in, x_out)
            # A temperature that underflows to 0.0 acts as its limit: every
            # uphill move is rejected instead of dividing by zero.
            if delta <= 0 or (temp > 0.0
                              and u < exp(-(delta / scale) / temp)):
                cur += delta
                if change is None:
                    wht += _swap_change(gammas, x_in, x_out)
                    check = int(np.abs(wht).sum())
                    if check != cur:
                        raise ArithmeticError(
                            f"swap identity drifted: sum |wht| = {check}, "
                            f"expected {cur}")
                else:
                    wht += change
                mem[io] = members[io] = x_in
                non[ii] = nonmembers[ii] = x_out
                if cur < best:
                    best = cur
                    best_members[:] = members
                tables = None
                rejected = 0
            elif tables is None:
                rejected += 1
                if rejected == _REBUILD_AFTER:
                    tables = swap_tables(wht)
            temp *= cooling
    return best
