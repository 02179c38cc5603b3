"""Hot integer kernels: Walsh-Hadamard transforms and the annealing sweep.

wht_rows is the one row-wise transform, exact on both routes it takes, and
it picks the route from exactness alone.  An int64 table with max|x| * cols
<= 2^53 is transformed in float64, as a product of Kronecker factors of at
most 4 bits (H_(2^(a+b)) = H_(2^a) (x) H_(2^b), Fino & Algazi 1976), each
one a small dense product that BLAS runs from cache on one thread.  Every
partial sum is then an integer of magnitude at most 2^53, so it is a
float64 in any summation order and under FMA (every product is by +-1).
A table whose index fits one factor (at most 16 columns, at most
_GEMM_ROWS rows) takes a single product with H_cols, with no blocking and
no transposes; that halves the cost of transforming one 8- or 16-entry row
(timeit, about 14 -> 7.5 us on a 2-core Xeon host).  Every other table
(int64 above 2^53, exact within the caller's max|x| * cols <= 2^63 - 1
bound, and object tables of arbitrary-precision numerators) runs numpy
butterfly stages.  Both routes only split the last axis, which numpy
always does with a view, so any 2-D view is transformed in place.  The
annealing sweep has one implementation: a Python loop that prices a
proposal with four lookups in two transformed tables (swap_delta) while
those match the current set, and rebuilds them with one 2-row transform
once accepted moves thin out.
"""
from __future__ import annotations

import math
from typing import Optional

import numpy as np

__all__ = [
    "BACKEND",
    "wht_rows",
    "swap_tables",
    "swap_delta",
    "anneal_sweep",
]

# The only backend; kept as a name because benchmark records report it.
BACKEND = "numpy"

# anneal_sweep converts its pregenerated streams to Python values this many
# proposals at a time, so it never holds them all as Python objects.
_BLOCK = 4096

# Rejections in a row after which anneal_sweep rebuilds its swap tables.  A
# rebuild (one 2-row transform on the float route) costs about as much as
# pricing 3 proposals whole at n = 10..12 (measured ratios 2.7-3.1), and in
# the hot phase most proposals are accepted, so the tables are rebuilt only
# once acceptances thin out.
_REBUILD_AFTER = 3


def _sylvester(k: int) -> np.ndarray:
    """Sylvester Hadamard matrix of order 2^k in float64: entry (i, j) is
    (-1)^<i, j>."""
    size = 1 << k
    return np.array([[1 - 2 * ((i & j).bit_count() & 1) for j in range(size)]
                     for i in range(size)], dtype=np.float64)


# Largest max|x| * cols the float64 route takes (see the module docstring).
_F64_EXACT = 1 << 53
# Rows are converted and transformed this many entries at a time, so a
# block and its scratch copy stay in cache.
_FLOAT_BLOCK = 1 << 14
# Rows per product.  OpenBLAS splits a large enough dgemm over threads, which
# costs far more than it saves on products this small: with OpenBLAS 0.3.31
# on 2 cores, (3000, 16) @ (16, 16) ran on one thread in about 70 us, while
# (4096, 16) @ (16, 16) started the threads and took about 8 ms of wall and
# CPU time.  1024 rows keep every product at or under 2^18 multiply-adds.
_GEMM_ROWS = 1024
_FACTOR_BITS = 4
_H_FLOAT = [_sylvester(k) for k in range(_FACTOR_BITS + 1)]


def _butterfly(mat: np.ndarray) -> None:
    """Butterfly stages on a (rows, cols) view of any dtype, in place."""
    rows, cols = mat.shape
    h = 1
    while h < cols:
        pairs = mat.reshape(rows, cols // (2 * h), 2 * h)
        a = pairs[..., :h]
        b = pairs[..., h:]
        diff = a - b
        a += b
        b[...] = diff
        h *= 2


def _float_wht(mat: np.ndarray) -> None:
    """Kronecker-factored transform of an int64 (rows, cols) view in
    float64, exact when max|x| * cols <= 2^53.

    Each factor of k bits is one product with H_(2^k) on the lowest k index
    bits, then a transpose that rotates the index right by k bits so the
    next factor's bits are lowest; after all factors the index is back in
    place, and the last transpose is cast back into mat.
    """
    rows, cols = mat.shape
    n = cols.bit_length() - 1
    if n <= _FACTOR_BITS and rows <= _GEMM_ROWS:
        # The whole index is one factor: a single product.
        mat[...] = mat.astype(np.float64) @ _H_FLOAT[n]
        return
    factors = [_FACTOR_BITS] * (n // _FACTOR_BITS)
    if n % _FACTOR_BITS:
        factors.append(n % _FACTOR_BITS)
    per = min(rows, max(1, _FLOAT_BLOCK // cols))
    x = np.empty(per * cols)
    y = np.empty(per * cols)
    for r0 in range(0, rows, per):
        block = mat[r0:r0 + per]
        b = block.shape[0]
        src = x[:b * cols]
        dst = y[:b * cols]
        src.reshape(b, cols)[...] = block
        for i, k in enumerate(factors):
            size = 1 << k
            a_in = src.reshape(-1, size)
            a_out = dst.reshape(-1, size)
            for c0 in range(0, a_in.shape[0], _GEMM_ROWS):
                c1 = c0 + _GEMM_ROWS
                np.matmul(a_in[c0:c1], _H_FLOAT[k], out=a_out[c0:c1])
            rotated = dst.reshape(b, cols // size, size).transpose(0, 2, 1)
            if i == len(factors) - 1:
                np.copyto(block.reshape(b, size, cols // size), rotated,
                          casting="unsafe")
            else:
                np.copyto(src.reshape(b, size, cols // size), rotated)


def wht_rows(mat: np.ndarray, peak: Optional[int] = None) -> np.ndarray:
    """In-place unnormalized Walsh-Hadamard transform along the last axis.

    mat is a (rows, cols) array or view with cols a power of two, int64
    (exact when max|x| * cols <= 2^63 - 1, the caller's bound) or object
    (arbitrary-precision numerators).  int64 with max|x| * cols <= 2^53
    takes the exact float64 route; everything else runs the butterfly.
    peak, when given, is max|x| (a table's peak), so mat is not scanned.
    """
    cols = mat.shape[1]
    if mat.dtype == np.int64 and mat.size:
        if peak is None:
            peak = max(int(mat.max()), -int(mat.min()))
        if peak * cols <= _F64_EXACT:
            _float_wht(mat)
            return mat
    _butterfly(mat)
    return mat


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
