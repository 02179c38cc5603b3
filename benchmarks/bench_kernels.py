"""Kernel timings: the row-wise WHT per backend, and the annealing sweep.

wht_rows is checked against wht_rows_numpy before it is timed; without
numba both columns run numpy and the ratio is near 1.  The annealing sweep
has one implementation; its rows give the time per sweep and per proposal.  Run from the repo root as
PYTHONPATH=src python3 benchmarks/bench_kernels.py.
"""
import argparse
import time

import numpy as np

from f2wiener import _kernels


def best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_wht(n, rows, repeats):
    rng = np.random.default_rng(0)
    mat = rng.integers(-100, 100, size=(rows, 1 << n)).astype(np.int64)
    a = _kernels.wht_rows(mat.copy())
    b = _kernels.wht_rows_numpy(mat.copy())
    if not np.array_equal(a, b):
        raise AssertionError(f"backend mismatch in wht_rows at n={n}")
    t_dispatch = best_of(lambda: _kernels.wht_rows(mat.copy()), repeats)
    t_numpy = best_of(lambda: _kernels.wht_rows_numpy(mat.copy()), repeats)
    return t_dispatch, t_numpy


def _anneal_inputs(n, size, steps):
    order = 1 << n
    rng = np.random.default_rng(1)
    perm = rng.permutation(order).astype(np.int64)
    members = np.sort(perm[:size]).astype(np.int64)
    nonmembers = np.sort(perm[size:]).astype(np.int64)
    wht = np.zeros(order, dtype=np.int64)
    wht[members] = 1
    _kernels.wht_rows_numpy(wht.reshape(1, -1))
    pick_out = rng.integers(0, size, steps).astype(np.int64)
    pick_in = rng.integers(0, order - size, steps).astype(np.int64)
    accept = rng.random(steps)
    return wht, members, nonmembers, pick_out, pick_in, accept


def bench_anneal(n, steps, repeats):
    """Best seconds per sweep at size 2^n / 3 + 1."""
    size = (1 << n) // 3 + 1
    base = _anneal_inputs(n, size, steps)

    def run():
        ins = tuple(x.copy() for x in base)
        best = np.empty(size, dtype=np.int64)
        _kernels.anneal_sweep(*ins, 1.0, 0.995, float(1 << n), best)

    return best_of(run, repeats)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=64,
                        help="matrix rows per WHT call")
    parser.add_argument("--steps", type=int, default=20000,
                        help="annealing proposals per sweep")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    print(f"backend: {_kernels.BACKEND} (numba available: {_kernels.HAVE_NUMBA})")
    if not _kernels.HAVE_NUMBA:
        print("note: dispatch falls through to numpy, expect ratios near 1")
    print()
    print(f"{'kernel':<14}{'size':<12}{_kernels.BACKEND:>12}{'numpy':>12}{'speedup':>10}")
    for n in (8, 12, 16):
        td, tn = bench_wht(n, args.rows, args.repeats)
        label = f"{args.rows}x2^{n}"
        print(f"{'wht_rows':<14}{label:<12}{td * 1e3:>10.2f}ms{tn * 1e3:>10.2f}ms"
              f"{tn / td:>9.1f}x")
    print()
    print(f"{'kernel':<14}{'size':<12}{'steps':>8}{'sweep':>12}{'per step':>12}")
    for n in (6, 8, 10, 12):
        t = bench_anneal(n, args.steps, args.repeats)
        print(f"{'anneal_sweep':<14}{f'2^{n}':<12}{args.steps:>8}"
              f"{t * 1e3:>10.2f}ms{t / args.steps * 1e6:>10.2f}us")


if __name__ == "__main__":
    main()
