import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from f2wiener import _kernels

from _reference import brute_anneal_sweep, brute_wht_rows, sign


def _brute_rows(mat):
    """sum_x mat[r, x] (-1)^<g, x> for every row r and g, in Python ints."""
    order = mat.shape[1]
    masks = np.arange(order)
    parity = np.bitwise_count(masks[:, None] & masks).astype(object) & 1
    return (mat.astype(object) @ (1 - 2 * parity)).tolist()


def _float_calls(monkeypatch):
    """Count the calls wht_rows makes to its float route."""
    calls = []
    real = _kernels._float_wht

    def counted(work, dtype):
        calls.append(work.shape)
        real(work, dtype)
    monkeypatch.setattr(_kernels, "_float_wht", counted)
    return calls


def test_wht_rows_numpy_matches_brute(monkeypatch):
    # int64 tables with max|x| * cols <= 2^53 take the float64 route at
    # every width; larger ones are refused.  Each group of rows is
    # transformed on its own, since the bound is checked per call:
    # - small: random entries;
    # - f64_bound: max|x| * cols == 2^53, the largest the route takes; the
    #   all-max row's g = 0 output is exactly 2^53;
    # - f64_above: max|x| = (2^53 >> n) + 1, just past it, refused;
    # - i64_bound: max|x| = (2^63 - 1) >> n, refused too.
    calls = _float_calls(monkeypatch)
    rng = np.random.default_rng(70)
    for n in range(1, 11):
        cols = 1 << n
        groups = {"small": rng.integers(-50, 50, size=(3, cols))}
        for name, top in (("f64_bound", (1 << 53) >> n),
                          ("f64_above", ((1 << 53) >> n) + 1),
                          ("i64_bound", ((1 << 63) - 1) >> n)):
            rows = np.full((3, cols), top, dtype=np.int64)
            rows[1] *= rng.choice([-1, 1], size=cols)
            rows[2] = rng.integers(-top, top, size=cols, endpoint=True)
            groups[name] = rows
        for name, mat in groups.items():
            del calls[:]
            if name in ("small", "f64_bound"):
                expected = _brute_rows(mat)
                assert _kernels.wht_rows(mat.copy()).tolist() == expected, (
                    n, name)
                assert calls == [mat.shape], (n, name)
                continue
            work = mat.copy()
            with pytest.raises(OverflowError):
                _kernels.wht_rows(work)
            assert calls == [] and np.array_equal(work, mat), (n, name)


def test_wht_rows_float_route_blocks_and_chunks():
    # Batches whose rows span several cache blocks with a short last one
    # (2^14 entries per block), and single rows at n = 14..16, where one
    # row fills a block and the order-16 products run in chunks of 1024
    # rows.  Entries reach max|x| * cols = 2^53.  The Python-int
    # butterfly is the reference.
    rng = np.random.default_rng(74)
    shapes = [(300, 64), (1000, 256), (37, 1024), (9, 4096)]
    shapes += [(1, 1 << n) for n in (14, 15, 16)]
    for rows, cols in shapes:
        top = (1 << 53) // cols
        mat = rng.integers(-top, top, size=(rows, cols), endpoint=True)
        mat[0, 0] = top
        want = brute_wht_rows(mat)
        assert _kernels.wht_rows(mat).tolist() == want, (rows, cols)
    empty = np.empty((0, 64), dtype=np.int64)
    assert _kernels.wht_rows(empty).shape == (0, 64)


def test_wht_object_dtype():
    # Only int64 tables are transformed: object rows of Python ints, even
    # small ones, and every other dtype are refused, and left as they are.
    big = 1 << 80
    for row in (np.array([big, -3, 0, big + 1], dtype=object),
                np.array([1, -3, 0, 2], dtype=object),
                np.array([1, -3, 0, 2], dtype=np.int32),
                np.array([1, 3, 0, 2], dtype=np.uint64),
                np.array([1.0, -3.0, 0.0, 2.0]),
                np.empty(0, dtype=object)):
        mat = row.reshape(1, -1)
        with pytest.raises(TypeError):
            _kernels.wht_rows(mat)
        assert mat.tolist() == [row.tolist()]


def test_wht_rows_numpy_column_slices(monkeypatch):
    # Column slices, step-2 column views, row-strided views and Fortran
    # order (the transpose of a C array) are not C-contiguous; the route
    # splits only the last axis, so the transform must land in the
    # caller's array and leave the rest of it alone.  Each view is tried
    # with int64 entries within 2^53, which are transformed, and with int64
    # entries above it and object entries, which are refused untouched.
    calls = _float_calls(monkeypatch)
    rng = np.random.default_rng(73)
    for cols in (2, 8, 16, 64, 256):
        ones = np.ones((2, 2 * cols), dtype=np.int64)
        _kernels.wht_rows(ones[:, :cols])
        assert ones[0].tolist() == [cols] + [0] * (cols - 1) + [1] * cols
        big = ((1 << 53) // cols) + 1
        views = (("columns", (3, 3 * cols), lambda m: m[:, cols:2 * cols]),
                 ("step2", (3, 2 * cols), lambda m: m[:, ::2]),
                 ("rows", (6, cols), lambda m: m[::2]),
                 ("fortran", (cols, 3), lambda m: m.T))
        for label, shape, pick in views:
            for kind in ("float", "int64", "object"):
                top = big if kind == "int64" else 50
                mat = rng.integers(-top, top, size=shape, endpoint=True)
                if kind == "object":
                    mat = mat.astype(object)
                view = pick(mat)
                view[0, 0] = top
                assert not view.flags.c_contiguous, (label, cols)
                want = mat.copy()
                del calls[:]
                if kind == "float":
                    pick(want)[...] = _brute_rows(pick(want))
                    assert _kernels.wht_rows(view) is view
                else:
                    error = OverflowError if kind == "int64" else TypeError
                    with pytest.raises(error):
                        _kernels.wht_rows(view)
                assert calls == ([view.shape] if kind == "float" else []), (
                    label, cols, kind)
                assert np.array_equal(mat, want), (label, cols, kind)


# Magnitudes for the property test, as functions of n: small, and both
# sides of the float route's max|x| <= 2^53 / cols.
_MAGNITUDES = (lambda n: 3, lambda n: (1 << 53) >> n,
               lambda n: ((1 << 53) >> n) + 1)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, min(2100, (1 << 16) >> n)),
    st.sampled_from(_MAGNITUDES), st.integers(0, 2**32 - 1))))
def test_wht_rows_int64_equals_object(case):
    # Random shapes (at most 2^16 entries) and magnitudes; within the bound
    # the int64 result equals the Python-int butterfly entry for entry, and
    # past it the table is refused untouched.
    n, rows, magnitude, seed = case
    top = magnitude(n)
    rng = np.random.default_rng(seed)
    mat = rng.integers(-top, top, size=(rows, 1 << n), endpoint=True)
    mat[rng.integers(rows), rng.integers(1 << n)] = top * rng.choice([-1, 1])
    if top << n > 1 << 53:
        work = mat.copy()
        with pytest.raises(OverflowError):
            _kernels.wht_rows(work)
        assert np.array_equal(work, mat)
        return
    assert _kernels.wht_rows(mat.copy()).tolist() == brute_wht_rows(mat)


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


def _both_sweeps(ins, size, t0, cooling, ref_t0=None, ref_cooling=None,
                 scale=None):
    """(total, best, mutated inputs) from the kernel and the reference."""
    out = []
    for sweep, a, c in ((_kernels.anneal_sweep, t0, cooling),
                        (brute_anneal_sweep, ref_t0 or t0,
                         ref_cooling or cooling)):
        state = tuple(x.copy() for x in ins)
        best = np.empty(size, dtype=np.int64)
        total = sweep(*state, a, c, scale or float(len(ins[0])), best)
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
    calls = {"swap_tables": 0, "swap_delta": 0, "_add_swap": 0}
    run_sizes = []
    for name in calls:
        real = getattr(_kernels, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            if _name == "swap_delta":
                run_sizes.append(np.size(args[1]))
            return _real(*args)
        monkeypatch.setattr(_kernels, name, counted)
    runs = 0
    for n in range(1, 13):
        m = 1 << n
        for size in sorted({s for s in (1, 2, m // 3, m - 1) if 0 < s < m}):
            ins = _anneal_inputs(100 * n + size, n, size, 1500)
            ours, ref = _both_sweeps(ins, size, 1.0, 0.995)
            _assert_same_sweep(ours, ref, (n, size))
            runs += 1
    # Every pricing path ran.  Runs of several proposals were priced by
    # lookups.  A sign-row change is built for every proposal priced whole
    # and for every move accepted from a run; a run can accept only while
    # the tables are current, so at most once per swap_tables call, and
    # more changes than that mean some proposals were priced whole.  The
    # tables were rebuilt after runs of rejections.
    assert max(run_sizes) == _kernels._RUN
    assert calls["_add_swap"] > calls["swap_tables"]
    assert calls["swap_tables"] > runs


def test_anneal_narrow_work_copy_at_its_edges(monkeypatch):
    # The sweep prices on an int16 copy of the spectrum up to n = 14 and an
    # int32 copy above.  At size 2^n - 1, |wht(0)| = 2^n - 1 is the largest
    # entry either holds; at t0 = 50 with no cooling nearly every proposal
    # is accepted, so nearly all are priced whole.
    dtypes = []
    real = _kernels._add_swap

    def counted(*args):
        dtypes.append(args[0].dtype)
        return real(*args)
    monkeypatch.setattr(_kernels, "_add_swap", counted)
    for n, size, dtype in ((14, (1 << 14) - 1, np.int16),
                           (15, (1 << 15) - 1, np.int32),
                           (15, (1 << 15) // 3, np.int32)):
        ins = _anneal_inputs(n + size, n, size, 300)
        assert ins[0][0] == size
        del dtypes[:]
        ours, ref = _both_sweeps(ins, size, 50.0, 1.0)
        _assert_same_sweep(ours, ref, (n, size))
        assert len(dtypes) > 250 and set(dtypes) == {np.dtype(dtype)}


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


def _threshold_draws(ins, t0, cooling, scale, draw):
    """ins with its accept stream rewritten along the reference's path: an
    uphill proposal t at a temperature above 0.0 draws draw(t, e), where
    e = math.exp(-(delta / scale) / temp) is the exact threshold it is
    accepted below; every other draw is kept."""
    wht, members, nonmembers, pick_out, pick_in, accept = (
        x.copy() for x in ins)
    gammas = np.arange(wht.shape[0])

    def chi(x):
        return 1 - 2 * (np.bitwise_count(gammas & x) & 1).astype(np.int64)

    best = np.empty_like(members)
    temp = t0
    for t in range(accept.shape[0]):
        change = chi(nonmembers[pick_in[t]]) - chi(members[pick_out[t]])
        delta = int(np.abs(wht + change).sum() - np.abs(wht).sum())
        if delta > 0 and temp > 0.0:
            accept[t] = draw(t, math.exp(-(delta / scale) / temp))
        brute_anneal_sweep(wht, members, nonmembers, pick_out[t:t + 1],
                           pick_in[t:t + 1], accept[t:t + 1], temp, cooling,
                           scale, best)
        temp *= cooling
    return ins[:5] + (accept,)


def _subgroup_inputs(seed, n, k, steps, draw=0.99):
    """Inputs starting from the subgroup {0, ..., 2^k - 1}: every swap out
    of a coset raises the norm, so every first proposal is uphill."""
    m = 1 << n
    rng = np.random.default_rng(seed)
    wht = np.zeros(m, dtype=np.int64)
    wht[:1 << k] = 1
    _kernels.wht_rows(wht.reshape(1, -1))
    return (wht, np.arange(1 << k, dtype=np.int64),
            np.arange(1 << k, m, dtype=np.int64),
            rng.integers(0, 1 << k, steps),
            rng.integers(0, m - (1 << k), steps), np.full(steps, draw))


# Draw policies for uphill proposals: the exact threshold e itself and the
# float above it are rejected, the float below it is accepted, and 0.0 is
# accepted exactly when e > 0.0.  Acceptances every 11th or 13th step
# leave runs of rejections between them for the screen to pass.
THRESHOLD_DRAWS = {
    "at_e_or_above": lambda t, e: (np.nextafter(e, 0.0) if t % 13 == 12
                                   else e if t % 2 else np.nextafter(e, 2.0)),
    "zero": lambda t, e: 0.0 if t % 11 == 10 else np.nextafter(e, 2.0),
}


@pytest.mark.parametrize("policy", THRESHOLD_DRAWS)
def test_anneal_draws_at_exact_thresholds(policy):
    # cooling 0.97 takes exp(-(delta / scale) / temp) through the
    # subnormals to 0.0 within 700 steps; 0.995 keeps it well above.
    for n, size in ((4, 5), (6, 21), (8, 85)):
        for cooling in (0.995, 0.97):
            ins = _threshold_draws(_anneal_inputs(31 * n, n, size, 700), 1.0,
                                   cooling, float(1 << n),
                                   THRESHOLD_DRAWS[policy])
            ours, ref = _both_sweeps(ins, size, 1.0, cooling)
            _assert_same_sweep(ours, ref, (n, size, cooling))


@pytest.mark.parametrize("policy", THRESHOLD_DRAWS)
def test_anneal_subnormal_and_zero_temperature_in_a_run(policy):
    # scale = 2^1023 keeps delta / scale a normal float and puts
    # exp(-(delta / scale) / temp) strictly between 0 and 1 while temp is
    # subnormal; cooling 0.7 from 2^-1020 takes temp through the subnormals
    # (from step 4) to 0.0 (step 105) inside the first runs.  The draws
    # accept moves at subnormal temperatures.
    t0, cooling, scale = 2.0 ** -1020, 0.7, 2.0 ** 1023
    ins = _threshold_draws(_subgroup_inputs(2, 5, 3, 160), t0, cooling,
                           scale, THRESHOLD_DRAWS[policy])
    ours, ref = _both_sweeps(ins, 8, t0, cooling, scale=scale)
    _assert_same_sweep(ours, ref, policy)
    assert not np.array_equal(ours[2][1], ins[1]), "nothing accepted"


def test_anneal_accepts_at_run_edges():
    # From a subgroup at temp 0.05 every first proposal has e <= exp(-1.25)
    # < 0.99, so the only early acceptance is the one draw of 0.0: on the
    # first or last proposal of the first run, or of the second.
    run = _kernels._RUN
    for at in (0, run - 1, run, 2 * run - 1):
        ins = _subgroup_inputs(at, 5, 3, 3 * run)
        ins[5][at] = 0.0
        for steps, moved in ((at, False), (at + 1, True)):
            state = [x[:steps] if i > 2 else x.copy()
                     for i, x in enumerate(ins)]
            brute_anneal_sweep(*state, 0.05, 1.0, 32.0, np.empty(8, np.int64))
            assert (state[1].tolist() != list(range(8))) == moved, at
        ours, ref = _both_sweeps(ins, 8, 0.05, 1.0)
        _assert_same_sweep(ours, ref, at)


def test_anneal_step_counts_off_the_run_length():
    run = _kernels._RUN
    for steps in (0, 1, run - 1, run + 1, 3 * run + 5, _kernels._BLOCK + 7):
        ins = _anneal_inputs(steps, 4, 5, steps)
        ours, ref = _both_sweeps(ins, 5, 0.2, 0.999)
        _assert_same_sweep(ours, ref, steps)
    # No proposals: the start is the best set and nothing moves.
    ins = _anneal_inputs(9, 5, 7, 0)
    ours, _ = _both_sweeps(ins, 7, 1.0, 0.995)
    assert ours[0] == int(np.abs(ins[0]).sum())
    assert np.array_equal(ours[1], ins[1])
    for x, y in zip(ours[2], ins):
        assert np.array_equal(x, y)


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


def test_wht_rows_one_product(monkeypatch):
    # Tables of at most 16 columns and _GEMM_ROWS rows take one product;
    # one more row takes the blocked route.  Entries reach the float
    # route's max|x| * cols = 2^53; the Python-int butterfly is the
    # reference.
    calls = _float_calls(monkeypatch)
    rng = np.random.default_rng(75)
    for cols in (1, 2, 4, 8, 16):
        top = (1 << 53) // cols
        for rows in (0, 1, 7, _kernels._GEMM_ROWS, _kernels._GEMM_ROWS + 1):
            mat = rng.integers(-top, top, size=(rows, cols), endpoint=True)
            if rows:
                mat[0] = top
                mat[-1, 0] = -top
            want = brute_wht_rows(mat)
            for peak in (None, top if rows else 0):
                got = mat.copy()
                del calls[:]
                assert _kernels.wht_rows(got, peak) is got
                assert got.tolist() == want, (rows, cols, peak)
                assert calls == ([got.shape] if rows else []), (rows, cols)
        # Strided rows and a column slice, transformed where they lie.
        for shape, pick in (((14, cols), lambda m: m[::2]),
                            ((7, 3 * cols), lambda m: m[:, cols:2 * cols]),
                            ((9, 2 * cols), lambda m: m[1::2, ::2])):
            mat = rng.integers(-top, top, size=shape, endpoint=True)
            view = pick(mat)
            view[0, 0] = top
            want = mat.copy()
            pick(want)[...] = brute_wht_rows(pick(want))
            assert _kernels.wht_rows(view) is view
            assert np.array_equal(mat, want), (shape, cols)
