"""Hot integer kernels: the Walsh-Hadamard transform and the annealing sweep.

wht_rows is the one row-wise transform.  It takes int64 tables with
max|x| * cols <= 2^53 and refuses the rest (TypeError for another dtype,
OverflowError above the bound).  A table is transformed in floating
point, as a product of Kronecker factors of at most 4 bits (H_(2^(a+b)) =
H_(2^a) (x) H_(2^b), Fino & Algazi 1976), each one a small dense product
that BLAS runs from cache on one thread.  Every partial sum is an integer
of magnitude at most max|x| * cols, so it is exact in any summation order
and under FMA (every product is by +-1) in float32 up to 2^24 and in
float64 up to 2^53; a table takes float32 when it can, which halves the
scratch and the bytes each product moves.  An indicator on F2^n, n <= 24,
has max|x| * cols = 2^n and takes float32, as do the verify suites' and
the search's tables; indicators up to n = 30 take float64.  The scratch
is one buffer of _BLOCK_BYTES for a batch of short rows, or one row in
the float type for a longer row: the rows' own memory, idle while they
are transformed, is the second buffer.
A table whose index fits one factor (at most 16 columns, at most
_GEMM_ROWS rows) takes a single product with H_cols, with no blocking and
no transposes; that halves the cost of transforming one 8- or 16-entry row
(timeit, about 14 -> 7.5 us on a 2-core Xeon host).  A view that is not
C-contiguous is transformed in a contiguous copy and written back.

The annealing sweep has one implementation.  While two transformed tables
match the current set, it prices runs of up to _RUN proposals with one
array call of swap_delta (four lookups each), screens them for the first
that may be accepted and decides that one with the exact rule.  After an
accepted move it prices proposals whole: it adds a swap's change, built
from Kronecker sign rows in preallocated scratch, in place to an int16 or
int32 copy of the spectrum and takes it back on a rejection.  Once
accepted moves thin out it rebuilds the tables with one 2-row transform.
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

# anneal_sweep takes its pregenerated streams this many proposals at a time:
# it works out their temperatures and screen limits and converts them to
# Python values per block, so it never holds them all as Python objects.
_BLOCK = 4096

# Proposals anneal_sweep prices in one array step while its swap tables are
# current.  A run stops at its first accepted proposal, whose successors
# were priced for nothing.
_RUN = 64

# Log-domain slack of the run screen, which passes a proposal when
# delta < scale * temp * (slack - log(u)); the exact rule then decides it.
# The exact rule accepts an uphill delta only when u < math.exp(-a), with
# a = (delta / scale) / temp, and a faithful exp then gives -log(u) > a,
# also for u == 0 and for a subnormal exp(-a), where a relative slack on
# np.exp would not hold.  The rounding of a, of np.log and of the products
# is below 2^-48 relative and |log(u)| <= 745, so the screen passes every
# proposal the exact rule accepts; the slack costs only a few confirmations.
_SCREEN_SLACK = 2.0 ** -20

# Rejections in a row after which anneal_sweep rebuilds its swap tables.  A
# rebuild (one 2-row transform on the float route) costs about as much as
# pricing 3 to 6 proposals whole on the narrow copy at n = 10..12 (timeit
# ratios 2.8-6.7 on a shared 2-core Xeon host), and in the hot phase most
# proposals are accepted, so the tables are rebuilt only once acceptances
# thin out.  Timed passes over the search benchmark's nine anneal shapes
# moved less than their run-to-run spread for any value from 3 to 8.
_REBUILD_AFTER = 4


def _sylvester(k: int, dtype) -> np.ndarray:
    """Sylvester Hadamard matrix of order 2^k: entry (i, j) is
    (-1)^<i, j>."""
    idx = np.arange(1 << k)
    parity = (np.bitwise_count(idx[:, None] & idx) & 1).astype(np.int8)
    return (1 - 2 * parity).astype(dtype, copy=False)


# Largest max|x| * cols each float type takes (see the module docstring).
_F32_EXACT = 1 << 24
_F64_EXACT = 1 << 53
# Rows are converted and transformed this many bytes of scratch at a time,
# so a block and its scratch stay in cache.
_BLOCK_BYTES = 1 << 17
# Rows per product.  OpenBLAS splits a large enough product over threads,
# which costs far more than it saves on products this small: with OpenBLAS
# 0.3.31 on 2 cores, (3000, 16) @ (16, 16) ran on one thread in about 70 us,
# while (4096, 16) @ (16, 16) started the threads and took about 8 ms of
# wall and CPU time.  1024 rows keep every product at or under 2^18
# multiply-adds.
_GEMM_ROWS = 1024
_FACTOR_BITS = 4
_H_FLOAT = {dtype: [_sylvester(k, dtype) for k in range(_FACTOR_BITS + 1)]
            for dtype in (np.float32, np.float64)}


def _float_wht(mat: np.ndarray, dtype) -> None:
    """Kronecker-factored transform of a C-contiguous int64 (rows, cols)
    array in the float type dtype, exact when every partial sum is an
    integer that dtype holds (max|x| * cols <= 2^24 or 2^53).

    A block of rows is converted into a scratch buffer.  Each factor of k
    bits is one product with H_(2^k) on the lowest k index bits into a
    second buffer, then a transpose back that rotates the index right by k
    bits, so the next factor's bits are lowest; after all factors the
    index is back in place and the result is cast back into the block.
    Rows that fit a block of _BLOCK_BYTES get a second block of scratch,
    and the last transpose writes straight into the block.  A longer row
    is its own second buffer: its int64 memory is idle until the result
    goes back, so it needs scratch of one row in dtype.
    """
    rows, cols = mat.shape
    n = cols.bit_length() - 1
    hads = _H_FLOAT[dtype]
    if n <= _FACTOR_BITS and rows <= _GEMM_ROWS:
        # The whole index is one factor: a single product.
        mat[...] = mat.astype(dtype) @ hads[n]
        return
    factors = [_FACTOR_BITS] * (n // _FACTOR_BITS)
    if n % _FACTOR_BITS:
        factors.append(n % _FACTOR_BITS)
    itemsize = np.dtype(dtype).itemsize
    per = min(rows, max(1, _BLOCK_BYTES // (itemsize * cols)))
    scratch = np.empty(per * cols, dtype=dtype)
    spare = None if cols * itemsize > _BLOCK_BYTES else np.empty_like(scratch)
    for r0 in range(0, rows, per):
        block = mat[r0:r0 + per]
        b = block.shape[0]
        src = scratch[:b * cols]
        src.reshape(b, cols)[...] = block
        if spare is None:
            dst = block.reshape(-1).view(dtype)[:b * cols]
        else:
            dst = spare[:b * cols]
        for i, k in enumerate(factors):
            size = 1 << k
            a_in = src.reshape(-1, size)
            a_out = dst.reshape(-1, size)
            for c0 in range(0, a_in.shape[0], _GEMM_ROWS):
                c1 = c0 + _GEMM_ROWS
                np.matmul(a_in[c0:c1], hads[k], out=a_out[c0:c1])
            rotated = dst.reshape(b, cols // size, size).transpose(0, 2, 1)
            if spare is not None and i == len(factors) - 1:
                np.copyto(block.reshape(b, size, cols // size), rotated,
                          casting="unsafe")
            else:
                np.copyto(src.reshape(b, size, cols // size), rotated)
        if spare is None:
            np.copyto(block, src.reshape(b, cols), casting="unsafe")


def wht_rows(mat: np.ndarray, peak: Optional[int] = None) -> np.ndarray:
    """In-place unnormalized Walsh-Hadamard transform along the last axis.

    mat is an int64 (rows, cols) array or view with cols a power of two
    and max|x| * cols <= 2^53, which keeps the float route exact; peak,
    when given, is max|x| (a table's peak), so mat is not scanned.
    Raises TypeError for another dtype and OverflowError above the bound.
    """
    if mat.dtype != np.int64:
        raise TypeError(f"wht_rows takes int64 tables, not {mat.dtype}")
    if not mat.size:
        return mat
    if peak is None:
        peak = max(int(mat.max()), -int(mat.min()))
    reach = peak * mat.shape[1]
    if reach > _F64_EXACT:
        raise OverflowError(f"max|x| * cols = {reach} is above 2^53, "
                            "where float64 stops being exact")
    dtype = np.float32 if reach <= _F32_EXACT else np.float64
    if mat.flags.c_contiguous:
        _float_wht(mat, dtype)
    else:
        work = np.ascontiguousarray(mat)
        _float_wht(work, dtype)
        mat[...] = work
    return mat


def swap_tables(wht: np.ndarray) -> np.ndarray:
    """Rows C and A of the swap identity for the spectrum wht.

    C is the transform of clip(wht, -2, 2) and A that of min(|wht|, 2); both
    come from one 2-row wht_rows call.  Entries are at most 2m in absolute
    value, so int64 is exact.
    """
    tables = np.empty((2, wht.shape[0]), dtype=np.int64)
    # np.maximum and np.minimum, not np.clip, whose wrapper looks up the
    # integer limits on every call.
    np.maximum(wht, -2, out=tables[0])
    np.minimum(tables[0], 2, out=tables[0])
    np.abs(tables[0], out=tables[1])
    return wht_rows(tables)


def swap_delta(tables: np.ndarray, x_in, x_out):
    """Exact change of sum |wht| when x_out leaves the set and x_in joins.

    x_in and x_out are ints or equal-shape int64 arrays (one swap per
    entry).  The swap adds d = chi_g(x_in) - chi_g(x_out) in {-2, 0, 2} to
    each wht[g]; for an integer w, |w + 2s| - |w| = 2 + s*clip(w, -2, 2) -
    min(|w|, 2) for s = +-1.  Summing over the g with d != 0 (s =
    chi_g(x_in) there), with chi_g(x_in) * chi_g(x_out) = chi_g(x_in ^
    x_out) and sum_g chi_g(y) = 0 for y != 0, gives m + (C[x_in] - C[x_out]
    + A[x_in ^ x_out] - A[0]) / 2.
    """
    c, a = tables
    return tables.shape[1] + ((c[x_in] - c[x_out] + a[x_in ^ x_out] - a[0])
                              >> 1)


def _add_swap(work, change, spare, rows, cols, x_in, x_out) -> None:
    """Add chi(x_in) - chi(x_out) in place to work, the (len(rows),
    len(cols)) grid view of a spectrum, and leave that change in change.

    g sits at row g // w and column g % w, for w = len(cols).  Splitting x
    the same way, chi_g(x) = rows[x // w][g // w] * cols[x % w][g % w] for
    the rows of two Sylvester sign tables (those of rows as columns), so
    the change is a difference of two outer products; spare is scratch.
    """
    w = len(cols)
    np.multiply(rows[x_in // w], cols[x_in % w], out=change)
    np.multiply(rows[x_out // w], cols[x_out % w], out=spare)
    np.subtract(change, spare, out=change)
    np.add(work, change, out=work)


def anneal_sweep(wht, members, nonmembers, pick_out, pick_in, accept,
                 t0, cooling, scale, best_members):
    """Single-swap annealing on the unnormalized spectrum of an indicator.

    wht, an int64 array, holds sum_{x in A} (-1)^<g,x> for every character
    g.  Step t proposes swapping members[pick_out[t]] for
    nonmembers[pick_in[t]] and accepts when the l1 change delta is <= 0 or
    accept[t] < exp(-(delta / scale) / temp); temp starts at t0 and is
    multiplied by cooling after every step.

    While the swap tables match wht, up to _RUN proposals are priced at
    once by swap_delta on arrays; a screen finds the first that may be
    accepted, the exact rule above decides it, and an accepted move is
    rechecked against sum |wht| recomputed from scratch.  An acceptance
    leaves the tables stale; the proposals after it are priced whole, in
    O(m) from Kronecker sign rows, until _REBUILD_AFTER rejections in a row
    pay for rebuilding the tables.  Both paths update an int16 copy of wht
    in place (int32 above n = 14; |wht| <= |A| < 2^n), written back at the end;
    its magnitudes are summed in int32 while 2^n |A| < 2^31, in int64 above.
    Mutates wht/members/nonmembers, fills best_members, returns the best
    unnormalized l1 spectrum sum seen (an int).
    """
    n = wht.shape[0].bit_length() - 1
    bits = n // 2
    flat = wht.astype(np.int16 if n <= 14 else np.int32)
    acc = np.int32 if members.size << n < 1 << 31 else np.int64
    rows = list(_sylvester(n - bits, flat.dtype)[:, :, None])
    cols = list(_sylvester(bits, flat.dtype))
    work = flat.reshape(-1, 1 << bits)
    change, spare = np.empty_like(work), np.empty_like(work)

    def accepts(delta, temp, u):
        # A temperature that underflows to 0.0 acts as its limit: every
        # uphill move is rejected instead of dividing by zero.
        return delta <= 0 or (temp > 0.0
                              and u < math.exp(-(delta / scale) / temp))

    cur = int(np.abs(wht).sum())
    best = cur
    best_members[:] = members
    mem = members.tolist()
    non = nonmembers.tolist()
    tables = swap_tables(flat)
    rejected = 0
    temp = t0
    steps = pick_out.shape[0]
    for lo in range(0, steps, _BLOCK):
        hi = min(lo + _BLOCK, steps)
        # temps[i] is the temperature of proposal lo + i: multiply.accumulate
        # multiplies in order, so the chain is that of temp *= cooling.
        chain = np.full(hi - lo + 1, cooling, dtype=np.float64)
        chain[0] = temp
        temps = np.multiply.accumulate(chain)
        # Screen: delta < limits[i] holds for every delta the exact rule
        # accepts (see _SCREEN_SLACK), and for no delta > 0 at temp 0.0.
        # A negative draw is screened as 0.0, which passes every proposal.
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.log(np.maximum(accept[lo:hi], 0.0))
            limits = np.fmax((scale * temps[:-1]) * (_SCREEN_SLACK - logs),
                             0.5)
        temp = temps[-1]
        temps = temps.tolist()
        draws = accept[lo:hi].tolist()
        outs = pick_out[lo:hi].tolist()
        ins = pick_in[lo:hi].tolist()
        t = 0
        while t < hi - lo:
            if tables is None:
                io = outs[t]
                ii = ins[t]
                _add_swap(work, change, spare, rows, cols, non[ii], mem[io])
                delta = int(np.abs(work, out=spare).sum(dtype=acc)) - cur
                if not accepts(delta, temps[t], draws[t]):
                    work -= change
                    rejected += 1
                    if rejected == _REBUILD_AFTER:
                        tables = swap_tables(flat)
                    t += 1
                    continue
                cur += delta
            else:
                # Price a run at once; t moves to its first acceptance.
                end = min(t + _RUN, hi - lo)
                deltas = swap_delta(tables,
                                    nonmembers[pick_in[lo + t:lo + end]],
                                    members[pick_out[lo + t:lo + end]])
                for j in np.flatnonzero(deltas < limits[t:end]).tolist():
                    delta = int(deltas[j])
                    if accepts(delta, temps[t + j], draws[t + j]):
                        t += j
                        break
                else:
                    t = end
                    continue
                io = outs[t]
                ii = ins[t]
                _add_swap(work, change, spare, rows, cols, non[ii], mem[io])
                cur += delta
                check = int(np.abs(work, out=spare).sum(dtype=acc))
                if check != cur:
                    raise ArithmeticError(
                        f"swap identity drifted: sum |wht| = {check}, "
                        f"expected {cur}")
            x_in = non[ii]
            non[ii] = nonmembers[ii] = mem[io]
            mem[io] = members[io] = x_in
            if cur < best:
                best = cur
                best_members[:] = members
            tables = None
            rejected = 0
            t += 1
    wht[...] = flat
    return best
