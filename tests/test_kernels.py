import subprocess
import sys

import numpy as np

from f2wiener import _kernels

from _reference import parity, sign


def _brute_unnormalized(row):
    order = len(row)
    return [sum(int(row[x]) * sign(g, x) for x in range(order))
            for g in range(order)]


def test_parity_vec():
    vals = np.arange(256, dtype=np.int64)
    got = _kernels._parity_vec(vals.copy())
    assert [int(v) for v in got] == [parity(int(v), (1 << 63) - 1)
                                     for v in vals]


def test_wht_rows_numpy_matches_brute():
    # n >= 3 runs the first three stages as one order-8 product.  The last
    # two rows sit at the int64 bound max|x| = (2^63 - 1) >> n; the all-max
    # row's g = 0 output is max|x| * 2^n, the largest value allowed.
    rng = np.random.default_rng(70)
    for n in range(1, 9):
        mat = rng.integers(-50, 50, size=(3, 1 << n)).astype(np.int64)
        top = ((1 << 63) - 1) >> n
        at_bound = np.full((2, 1 << n), top, dtype=np.int64)
        at_bound[1] *= rng.choice([-1, 1], size=1 << n)
        mat = np.vstack([mat, at_bound])
        expected = [_brute_unnormalized(r) for r in mat]
        out = _kernels.wht_rows_numpy(mat.copy())
        assert out.tolist() == expected


def test_dispatch_equals_numpy():
    rng = np.random.default_rng(71)
    for n in (1, 3, 5, 7):
        mat = rng.integers(-1000, 1000, size=(4, 1 << n)).astype(np.int64)
        a = _kernels.wht_rows(mat.copy())
        b = _kernels.wht_rows_numpy(mat.copy())
        assert np.array_equal(a, b)


def test_wht_object_dtype():
    big = 1 << 80
    row = np.array([big, -3, 0, big + 1], dtype=object)
    out = _kernels.wht_rows(row.reshape(1, -1).copy())
    assert out[0].tolist() == _brute_unnormalized(row)


def test_wht_rows_numpy_column_slices():
    # A column slice is not contiguous, so the stages' reshapes would copy;
    # the transform must still land in the slice and leave the rest alone.
    rng = np.random.default_rng(73)
    for cols in (8, 16):
        ones = np.ones((2, 2 * cols), dtype=np.int64)
        _kernels.wht_rows_numpy(ones[:, :cols])
        assert ones[0].tolist() == [cols] + [0] * (cols - 1) + [1] * cols
        for dtype in (np.int64, object):
            mat = rng.integers(-50, 50, size=(3, 3 * cols)).astype(dtype)
            want = mat.copy()
            view = mat[:, cols:2 * cols]
            assert not view.flags.c_contiguous
            assert _kernels.wht_rows_numpy(view) is view
            for r in range(3):
                want[r, cols:2 * cols] = _brute_unnormalized(
                    want[r, cols:2 * cols])
            assert np.array_equal(mat, want)


def test_wht_involution():
    rng = np.random.default_rng(72)
    mat = rng.integers(-9, 10, size=(2, 16)).astype(np.int64)
    twice = _kernels.wht_rows(_kernels.wht_rows(mat.copy()))
    assert np.array_equal(twice, mat * 16)


def _anneal_inputs(seed, n=4, size=5, steps=400):
    order = 1 << n
    rng = np.random.default_rng(seed)
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


def test_anneal_backends_bit_identical():
    for seed in (0, 1, 2):
        ins_a = _anneal_inputs(seed)
        ins_b = tuple(x.copy() for x in ins_a)
        best_a = np.empty(5, dtype=np.int64)
        best_b = np.empty(5, dtype=np.int64)
        tot_a = _kernels.anneal_sweep(*ins_a, 1.0, 0.995, 16.0, best_a)
        tot_b = _kernels.anneal_sweep_numpy(*ins_b, 1.0, 0.995, 16.0, best_b)
        assert tot_a == tot_b
        assert np.array_equal(best_a, best_b)
        # the mutated state must agree too, element for element
        for x, y in zip(ins_a, ins_b):
            assert np.array_equal(x, y)


def test_anneal_incumbent_consistency():
    ins = _anneal_inputs(3)
    best = np.empty(5, dtype=np.int64)
    total = _kernels.anneal_sweep(*ins, 1.0, 0.995, 16.0, best)
    check = np.zeros(16, dtype=np.int64)
    check[best] = 1
    _kernels.wht_rows_numpy(check.reshape(1, -1))
    assert int(np.abs(check).sum()) == total


def test_no_numba_env_flag(package_env):
    code = (
        "import f2wiener._kernels as k; import numpy as np; "
        "m = np.arange(8, dtype=np.int64).reshape(1, -1); "
        "k.wht_rows(m); "
        "print(k.BACKEND); print(m.tolist())"
    )
    env = dict(package_env, F2WIENER_NO_NUMBA="1")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    backend, row = out.stdout.strip().splitlines()
    assert backend == "numpy"
    expected = np.arange(8, dtype=np.int64).reshape(1, -1)
    _kernels.wht_rows_numpy(expected)
    assert row == str(expected.tolist())
