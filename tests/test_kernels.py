import numpy as np
from hypothesis import given, settings, strategies as st

from f2wiener import _kernels

from _reference import brute_anneal_sweep, sign


def _brute_unnormalized(row):
    order = len(row)
    return [sum(int(row[x]) * sign(g, x) for x in range(order))
            for g in range(order)]


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
        out = _kernels.wht_rows(mat.copy())
        assert out.tolist() == expected


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
        _kernels.wht_rows(ones[:, :cols])
        assert ones[0].tolist() == [cols] + [0] * (cols - 1) + [1] * cols
        for dtype in (np.int64, object):
            mat = rng.integers(-50, 50, size=(3, 3 * cols)).astype(dtype)
            want = mat.copy()
            view = mat[:, cols:2 * cols]
            assert not view.flags.c_contiguous
            assert _kernels.wht_rows(view) is view
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
    _kernels.wht_rows(wht.reshape(1, -1))
    pick_out = rng.integers(0, size, steps).astype(np.int64)
    pick_in = rng.integers(0, order - size, steps).astype(np.int64)
    accept = rng.random(steps)
    return wht, members, nonmembers, pick_out, pick_in, accept


def _both_sweeps(ins, size, t0, cooling, ref_t0=None, ref_cooling=None):
    """(total, best, mutated inputs) from the kernel and the reference."""
    out = []
    for sweep, a, c in ((_kernels.anneal_sweep, t0, cooling),
                        (brute_anneal_sweep, ref_t0 or t0,
                         ref_cooling or cooling)):
        state = tuple(x.copy() for x in ins)
        best = np.empty(size, dtype=np.int64)
        total = sweep(*state, a, c, float(len(ins[0])), best)
        out.append((total, best, state))
    return out


def _assert_same_sweep(ours, ref, label):
    assert ours[0] == ref[0], label
    assert np.array_equal(ours[1], ref[1]), label
    # wht, members and nonmembers end in the same state; the streams are
    # untouched on both sides.
    for x, y in zip(ours[2], ref[2]):
        assert np.array_equal(x, y), label


def test_anneal_matches_reference(monkeypatch):
    # The default schedule accepts most proposals for its first ~1000
    # steps (hot) and almost only downhill ones after (cold); 1500 steps
    # cover both.  Sizes 1, 2, about m/3 and m - 1 at every n <= 12.
    calls = {"swap_tables": 0, "swap_delta": 0}
    for name in calls:
        real = getattr(_kernels, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(_kernels, name, counted)
    runs = proposals = 0
    for n in range(1, 13):
        m = 1 << n
        for size in sorted({s for s in (1, 2, m // 3, m - 1) if 0 < s < m}):
            ins = _anneal_inputs(100 * n + size, n, size, 1500)
            ours, ref = _both_sweeps(ins, size, 1.0, 0.995)
            _assert_same_sweep(ours, ref, (n, size))
            runs += 1
            proposals += 1500
    # Both pricing paths ran: some proposals were priced whole (stale
    # tables), and the tables were rebuilt after runs of rejections.
    assert calls["swap_delta"] < proposals
    assert calls["swap_tables"] > runs


def test_anneal_hot_and_cold_schedules():
    # Constant high temperature (nearly every proposal accepted) and
    # constant near-zero temperature (only downhill and level moves).
    for n, size in ((3, 3), (6, 21), (9, 170)):
        for t0 in (50.0, 1e-6):
            ins = _anneal_inputs(7 * n, n, size, 800)
            ours, ref = _both_sweeps(ins, size, t0, 1.0)
            _assert_same_sweep(ours, ref, (n, size, t0))


def test_anneal_zero_temperature_limit():
    # cooling 0.3 drives temp to exactly 0.0 after a few hundred steps; the
    # kernel then rejects every uphill move, like a reference run held at a
    # temperature too small for exp() to accept any.
    for n, size in ((4, 5), (8, 85)):
        ins = _anneal_inputs(n, n, size, 900)
        ours, ref = _both_sweeps(ins, size, 1e-300, 0.3,
                                 ref_t0=1e-300, ref_cooling=1.0)
        _assert_same_sweep(ours, ref, (n, size))


def _check_every_swap(n, members):
    # The four-lookup formula against sum |w + chi_in - chi_out| - sum |w|
    # for every swap out of the set.
    m = 1 << n
    w = [sum(sign(g, x) for x in members) for g in range(m)]
    wht = np.array(w, dtype=np.int64)
    tables = _kernels.swap_tables(wht)
    assert wht.tolist() == w
    before = sum(abs(v) for v in w)
    for x_out in members:
        for x_in in set(range(m)) - set(members):
            after = sum(abs(w[g] + sign(g, x_in) - sign(g, x_out))
                        for g in range(m))
            assert (_kernels.swap_delta(tables, x_in, x_out)
                    == after - before), (n, members, x_in, x_out)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, (1 << (1 << n)) - 2))))
def test_swap_delta_identity(case):
    # Random proper nonempty sets at n <= 5, given as bit masks.
    n, mask = case
    _check_every_swap(n, [x for x in range(1 << n) if mask >> x & 1])


def test_swap_delta_every_set_small_n():
    for n in (1, 2, 3):
        for mask in range(1, (1 << (1 << n)) - 1):
            _check_every_swap(n, [x for x in range(1 << n) if mask >> x & 1])


def test_anneal_incumbent_consistency():
    ins = _anneal_inputs(3)
    best = np.empty(5, dtype=np.int64)
    total = _kernels.anneal_sweep(*ins, 1.0, 0.995, 16.0, best)
    check = np.zeros(16, dtype=np.int64)
    check[best] = 1
    _kernels.wht_rows(check.reshape(1, -1))
    assert int(np.abs(check).sum()) == total
