import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from f2wiener.dyadic import DyadicScalar
from f2wiener.fourier import (FunctionTable, Spectrum, _int_minmax, a_norm,
                              exact_product, exact_sum, fwht, l1_norm,
                              l2_norm_sq, lp_norm)
from f2wiener.groups import DualSubspace
from f2wiener.setfuncs import PointSet, set_a_norm

from _reference import (annihilator_points, brute_a_norm, brute_abs_floats,
                        brute_fwht, random_point_set, random_subspace,
                        random_table, reference_inverse_fwht, spectrum_l2_sq,
                        table_fractions, table_from_values, table_to_dyadics)


def _lp(f, p):
    """lp_norm of the one-row stack of the table f."""
    (got,) = lp_norm(f.nums[None], [f.exp], p)
    return got

_I64_MAX = (1 << 63) - 1


def test_point_mass_spectrum():
    f = FunctionTable(3, [1, 0, 0, 0, 0, 0, 0, 0], 0)
    s = fwht(f)
    assert table_fractions(s) == [Fraction(1, 8)] * 8
    assert a_norm(s) == DyadicScalar(1)


def test_three_point_set_spectrum():
    # A = {00, 01, 10} in F2^2: spectrum (3/4, 1/4, 1/4, -1/4), norm 3/2.
    a = PointSet.from_points(2, [0b00, 0b01, 0b10])
    s = fwht(a.indicator())
    expected = [Fraction(3, 4), Fraction(1, 4), Fraction(1, 4),
                Fraction(-1, 4)]
    assert table_fractions(s) == expected
    assert brute_fwht([1, 1, 1, 0], 2) == expected
    assert set_a_norm(a) == DyadicScalar(3, 1)


def test_coset_indicator_spectrum():
    rng = np.random.default_rng(8)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        v = random_subspace(rng, n)
        off = int(rng.integers(0, 1 << n))
        pts = [off ^ w for w in annihilator_points(v.basis, n)]
        a = PointSet.from_points(n, pts)
        s = fwht(a.indicator())
        inv = DyadicScalar(1, v.dim)
        for g in range(1 << n):
            coeff = s[g]
            if v.contains(g):
                assert abs(coeff) == inv
            else:
                assert coeff.num == 0
        assert a_norm(s) == DyadicScalar(1)


def test_fwht_matches_brute_force():
    rng = np.random.default_rng(9)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        f = random_table(rng, n)
        assert table_fractions(fwht(f)) == brute_fwht(table_fractions(f), n)


def test_roundtrip_exact():
    rng = np.random.default_rng(10)
    for _ in range(60):
        n = int(rng.integers(1, 8))
        f = random_table(rng, n, span=50, max_exp=6)
        assert reference_inverse_fwht(fwht(f)) == f


def test_roundtrip_arbitrary_precision():
    # Exponents are unbounded: a table far finer than float64 resolves,
    # with numerators at the transform's int64 edge, round-trips exactly
    # and its A-norm matches the Python brute force.
    n = 3
    edge = (1 << 53) >> n
    nums = np.array([edge, -edge + 3, 5, 0, 1, edge // 7, -2, 9],
                    dtype=np.int64)
    for exp in (0, 70, 1100):
        f = FunctionTable(n, nums, exp)
        s = fwht(f)
        assert s.nums.dtype == np.int64
        assert reference_inverse_fwht(s) == f
        assert a_norm(s).as_fraction() == brute_a_norm(table_fractions(f), n)


def test_tables_past_int64_are_refused():
    # Python ints past int64, in object arrays or lists, are refused
    # rather than stored.
    big = 1 << 70
    for nums in (np.array([big, -big + 3, 5, 0], dtype=object),
                 [1 << 70, 2, 0, 0], [1 << 63, 2, 0, 0], [2, -(1 << 63), 0, 0],
                 [(1 << 64) - 1, -2, 0, 0]):
        for cls in (FunctionTable, Spectrum):
            for exp in (0, 1):
                with pytest.raises(OverflowError):
                    cls(2, nums, exp)


def test_lists_past_int64_are_refused_for_their_size():
    # numpy reads [2^63, 2, 0, 0] as float64; the table still refuses it
    # as too large, as it does [2^70, 2, 0, 0] and the uint64 array, and
    # refuses a list holding a float for its type.
    for nums in ([1 << 63, 2, 0, 0], [1 << 70, 2, 0, 0],
                 np.array([1 << 63, 2, 0, 0], dtype=np.uint64)):
        with pytest.raises(OverflowError):
            FunctionTable(2, nums, 0)
    for nums in ([1.5, 2, 0, 0], [1 << 63, 0.5, 0, 0],
                 np.array([1.0, 2.0, 0.0, 0.0])):
        with pytest.raises(TypeError):
            FunctionTable(2, nums, 0)
    assert FunctionTable(2, [(1 << 63) - 1, 2, 0, 0], 0).peak == (1 << 63) - 1


def test_numerators_outside_int64_magnitude_stay_exact():
    # uint64 above 2^63 - 1 and -2^63, whose magnitude wraps under np.abs,
    # are refused instead of wrapped; uint64 up to 2^63 - 1 is stored as
    # int64 with its value intact.
    for nums in (np.array([2 ** 63 + 5, 0, 0, 0], dtype=np.uint64),
                 np.array([-(2 ** 63), 0, 0, 0], dtype=np.int64)):
        for cls in (FunctionTable, Spectrum):
            for exp in (0, 1):
                with pytest.raises(OverflowError):
                    cls(2, nums, exp)
    top = FunctionTable(2, np.array([_I64_MAX, 0, 0, 0], dtype=np.uint64), 0)
    assert top.nums.dtype == np.int64
    assert top.peak == _I64_MAX and int(top.nums[0]) == _I64_MAX
    low = FunctionTable(2, np.array([-_I64_MAX, 0, 0, 0], dtype=np.int64), 0)
    assert low.peak == _I64_MAX
    assert table_to_dyadics(low)[0] == DyadicScalar(-_I64_MAX)
    # Stored as int64 once the shared power of two is stripped.
    small = FunctionTable(1, np.array([2 ** 62, 2], dtype=np.uint64), 1)
    assert small.nums.dtype == np.int64
    assert table_to_dyadics(small) == [DyadicScalar(2 ** 61), DyadicScalar(1)]


def test_int64_headroom_boundary():
    # The transform takes f.peak * 2^n up to 2^53, where its float64 route
    # stops being exact, and refuses one more.
    n = 2
    top = (1 << 53) >> n
    f = FunctionTable(n, np.array([top, -top, top, top], dtype=np.int64), 0)
    s = fwht(f)
    assert table_fractions(s) == brute_fwht(table_fractions(f), n)
    with pytest.raises(OverflowError):
        fwht(FunctionTable(n, [top + 1, 1, 1, 1], 0))


def test_parseval_exact():
    rng = np.random.default_rng(11)
    for _ in range(80):
        n = int(rng.integers(1, 9))
        f = random_table(rng, n)
        assert l2_norm_sq(f) == spectrum_l2_sq(fwht(f))


def test_linearity():
    rng = np.random.default_rng(12)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        f = random_table(rng, n)
        g = random_table(rng, n)
        fs, gs = fwht(f), fwht(g)
        combo = table_from_values(FunctionTable, n, [
            a + b for a, b in zip(table_to_dyadics(f), table_to_dyadics(g))])
        assert table_fractions(fwht(combo)) == [
            a + b for a, b in zip(table_fractions(fs), table_fractions(gs))]


def test_trivial_bound():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        a = random_point_set(rng, n)
        if a.size == 0:
            continue
        assert set_a_norm(a) >= DyadicScalar(1)


def test_linf_equals_density_for_indicators():
    rng = np.random.default_rng(14)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        a = random_point_set(rng, n)
        s = fwht(a.indicator())
        linf = DyadicScalar(int(np.abs(s.nums).max()), s.exp)
        assert linf == a.density() == l1_norm(a.indicator())
        assert a_norm(s) >= linf


def test_lp_norm_agrees_with_exact():
    rng = np.random.default_rng(15)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        f = random_table(rng, n)
        exact1 = float(l1_norm(f).as_fraction())
        exact2 = math.sqrt(float(l2_norm_sq(f).as_fraction()))
        assert _lp(f, 1.0) == pytest.approx(exact1, rel=1e-12, abs=1e-300)
        assert _lp(f, 2.0) == pytest.approx(exact2, rel=1e-12, abs=1e-300)
    with pytest.raises(ValueError):
        _lp(random_table(rng, 2), 0.5)


def _brute_lp(f, p):
    vals = np.array(brute_abs_floats(f.nums.tolist(), f.exp), dtype=np.float64)
    return float(np.mean(vals ** p) ** (1.0 / p))


def test_lp_norm_matches_reference():
    rng = np.random.default_rng(41)
    top = (1 << 63) - 1
    tables = []
    for _ in range(60):
        n = int(rng.integers(1, 8))
        # Odd numerators keep exp as drawn; |v| > 2^53 needs rounding.
        nums = rng.integers(-top, top, size=1 << n, dtype=np.int64) | 1
        tables.append(FunctionTable(n, nums, int(rng.integers(0, 61))))
    tables.append(FunctionTable(2, [-top, top, 1, 0], 60))
    tables.append(FunctionTable(2, [(1 << 53) + 1, -(1 << 54) - 1, 3, 0], 5))
    tables.append(FunctionTable(1, [1, -3], 1100))
    tables.append(FunctionTable(2, [-top, 5, 0, 1 << 62], 1100))
    tables.append(FunctionTable(3, np.array([1, 2, 3, 4, 5, 6, 7, 9],
                                            dtype=object), 3))
    assert tables[-1].nums.dtype == np.int64
    for f in tables:
        for p in (1.0, 1.0625, 1.5625, 2.0):
            assert _lp(f, p) == _brute_lp(f, p)
    # A stack reduces each row as that row alone: rows of one n with
    # exponents on both sides of the float route's limit.
    for n in (2, 3, 7):
        rows = [f for f in tables if f.dim.n == n]
        exps = [f.exp for f in rows]
        for p in (1.0, 1.0625, 1.5625, 2.0):
            got = lp_norm(np.stack([f.nums for f in rows]), exps, p)
            assert got == [_brute_lp(f, p) for f in rows]


def test_exact_product():
    # Exact while max|x| * max|y| <= 2^63 - 1, refused past it, and only
    # int64 arrays are taken.
    rng = np.random.default_rng(43)
    for bits in (10, 31, 32, 40):
        x = rng.integers(-(1 << bits), 1 << bits, size=64, dtype=np.int64)
        y = rng.integers(-(1 << bits), 1 << bits, size=64, dtype=np.int64)
        if _int_minmax(x) * _int_minmax(y) > _I64_MAX:
            with pytest.raises(OverflowError):
                exact_product(x, y)
            continue
        got = exact_product(x, y)
        assert got.tolist() == [int(a) * int(b) for a, b in zip(x, y)]
        assert got.dtype == np.int64
    # max|x| * max|y| at 2^63 - 1, then one past it.
    x = np.array([-_I64_MAX, 3], dtype=np.int64)
    y = np.array([1, -1], dtype=np.int64)
    assert exact_product(x, y).tolist() == [-_I64_MAX, -3]
    with pytest.raises(OverflowError):
        exact_product(x - 1, y)
    with pytest.raises(TypeError):
        exact_product(x, y.astype(object))


def test_inner_product_exact():
    rng = np.random.default_rng(16)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        f = random_table(rng, n)
        g = random_table(rng, n)
        expected = sum(
            (a * b for a, b in zip(table_fractions(f), table_fractions(g))),
            Fraction(0)) / (1 << n)
        got = DyadicScalar(exact_sum(f.nums, g.nums), f.exp + g.exp + n)
        assert got.as_fraction() == expected


def _refused(fn, *args, **kwargs):
    """fn's result, or OverflowError when fn refuses its bound."""
    try:
        return fn(*args, **kwargs)
    except OverflowError:
        return OverflowError


def _py_sums(vals, other):
    """The four sums of _fast_sums in Python ints, each replaced by
    OverflowError where its peak bound passes 2^63 - 1."""
    vals = [int(v) for v in vals]
    other = [int(v) for v in other]
    px = max(map(abs, vals), default=0)
    py = max(map(abs, other), default=0)
    size = len(vals)
    sums = ((px * size, sum(abs(v) for v in vals)),
            (px * px * size, sum(v * v for v in vals)),
            (px * py * size, sum(a * b for a, b in zip(vals, other))),
            (px * size, sum(vals)))
    return tuple(OverflowError if bound > _I64_MAX else total
                 for bound, total in sums)


def _fast_sums(x, y):
    return (_refused(exact_sum, x, absolute=True), _refused(exact_sum, x, x),
            _refused(exact_sum, x, y), _refused(exact_sum, x))


def test_exact_sums_at_int64_bound():
    # 2^63 - 1 = 7 * 1317624576693539401, so seven entries of that size sum
    # to exactly 2^63 - 1; one more unit per entry would wrap an int64 sum,
    # so it is refused.
    size = 7
    lin = _I64_MAX // size
    sq = math.isqrt(_I64_MAX // size)
    assert lin * size == _I64_MAX and sq * sq * size <= _I64_MAX
    for peak in (lin, sq):
        for top in (peak, peak + 1):
            x = np.array([top, -top, top, top, -top, top, top],
                         dtype=np.int64)
            y = np.array([top, top, -top, top, -top, top, top],
                         dtype=np.int64)
            assert _fast_sums(x, y) == _py_sums(x, y)
            with pytest.raises(TypeError):
                exact_sum(x.astype(object), y)
    assert _fast_sums(np.full(size, lin), np.full(size, 1))[1:3] == (
        OverflowError, lin * size)
    # x * y: max|x| * max|y| * size against the bound.
    x = np.full(size, lin, dtype=np.int64)
    for top in (1, 2):
        y = np.full(size, top, dtype=np.int64)
        assert _refused(exact_sum, x, y) == (
            lin * top * size if top == 1 else OverflowError)
        assert _refused(exact_sum, -x, y) == (
            -lin * top * size if top == 1 else OverflowError)
    assert exact_sum(np.zeros(0, dtype=np.int64), absolute=True) == 0
    with pytest.raises(ValueError):
        exact_sum(x, x[:3])


def test_exact_sums_random():
    rng = np.random.default_rng(18)
    for _ in range(50):
        size = int(rng.integers(1, 300))
        bits = int(rng.integers(1, 63))
        x = rng.integers(-(1 << bits) + 1, 1 << bits, size=size)
        y = rng.integers(-(1 << bits) + 1, 1 << bits, size=size)
        assert _fast_sums(x, y) == _py_sums(x, y)
    big = np.array([(1 << 90) + 3, -(1 << 64), 5], dtype=object)
    for args in ((big,), (big, big[::-1])):
        with pytest.raises(TypeError):
            exact_sum(*args)


def test_exact_sum_takes_the_callers_bound():
    # A square sum whose peak bound, max|x|^2 * size = 2^64, is past int64
    # but whose true total, at most 2^60 (a Parseval bound, say), is not:
    # with the caller's bound it is summed exactly in int64.
    x = np.zeros(16, dtype=np.int64)
    x[3] = 1 << 30
    x[[5, 9]] = -(1 << 20)
    total = (1 << 60) + (2 << 40)
    with pytest.raises(OverflowError):
        exact_sum(x, x)
    assert exact_sum(x, x, bound=total) == total
    with pytest.raises(OverflowError):
        exact_sum(x, x, bound=_I64_MAX + 1)
    assert exact_sum(x, absolute=True, bound=1 << 31) == (1 << 30) + (2 << 20)


def _draw_top(data, top, size):
    """size ints in [-top, top], one of them +-top."""
    vals = data.draw(st.lists(st.integers(-top, top), min_size=size - 1,
                              max_size=size - 1))
    at = data.draw(st.integers(0, size - 1))
    vals.insert(at, data.draw(st.sampled_from([top, -top])))
    return vals


@settings(max_examples=60, deadline=None)
@given(size=st.integers(2, 6), above=st.booleans(), data=st.data())
def test_exact_ops_match_python_ints_or_refuse(size, above, data):
    # Each operation's peak bound is at most 2^63 - 1, where it is exact,
    # or just above it, where it is refused.  size >= 2 keeps max|x| =
    # (2^63 - 1) // size + 1 within int64.
    a = _I64_MAX // size + above
    x = _draw_top(data, a, size)
    b = data.draw(st.integers(1, _I64_MAX // size))
    c = _I64_MAX // (b * size) + above
    assume(c <= _I64_MAX)
    u = _draw_top(data, b, size)
    v = _draw_top(data, c, size)
    d = data.draw(st.integers(1, _I64_MAX))
    e = _I64_MAX // d + above
    assume(e <= _I64_MAX)
    p = _draw_top(data, d, size)
    q = _draw_top(data, e, size)

    def arr(vals):
        return np.array(vals, dtype=np.int64)

    def want(value):
        return OverflowError if above else value

    assert _refused(exact_sum, arr(x)) == want(sum(x))
    assert _refused(exact_sum, arr(x), absolute=True) == want(
        sum(map(abs, x)))
    assert _refused(exact_sum, arr(u), arr(v)) == want(
        sum(i * j for i, j in zip(u, v)))
    got = _refused(exact_product, arr(p), arr(q))
    assert (got if above else got.tolist()) == want(
        [i * j for i, j in zip(p, q)])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 5), exp=st.integers(0, 70), square=st.booleans(),
       data=st.data())
def test_fwht_roundtrip_and_parseval_near_headroom(n, exp, square, data):
    # Numerators about the transform's edge, max|f| * 2^n = 2^53, or about
    # the square sums' edge, max|f| = isqrt((2^63 - 1) >> 3n), below which
    # both sides of Parseval stay in int64.  Within an edge the results
    # are exact; past it they are refused.
    edge = math.isqrt(_I64_MAX >> 3 * n) if square else (1 << 53) >> n
    entry = st.one_of(st.integers(-edge - 2, edge + 2),
                      st.sampled_from([edge, edge + 1, -edge, -edge - 1]))
    vals = data.draw(st.lists(entry, min_size=1 << n, max_size=1 << n))
    f = FunctionTable(n, np.array(vals, dtype=np.int64), exp)
    if f.peak << n > 1 << 53:
        with pytest.raises(OverflowError):
            fwht(f)
        return
    s = fwht(f)
    assert reference_inverse_fwht(s) == f
    lhs, rhs = _refused(l2_norm_sq, f), _refused(spectrum_l2_sq, s)
    if square and f.peak <= edge:
        assert lhs == rhs != OverflowError
    elif OverflowError not in (lhs, rhs):
        assert lhs == rhs
    if n <= 3:
        assert table_fractions(s) == brute_fwht(table_fractions(f), n)


def test_norms_at_int64_bound():
    # Whole tables of 2^n entries: exact_sum and the norms are exact up to
    # max|x| * max|y| * 2^n = 2^63 - 1 and refuse past it.
    n = 3
    for top in (_I64_MAX >> n, (_I64_MAX >> n) + 1):
        vals = [top, -top, top, top, -top, top, top, -top]
        f = FunctionTable(n, np.array(vals, dtype=np.int64), 0)
        g = FunctionTable(n, np.array([1] * 7 + [-1], dtype=np.int64), 0)
        assert f.nums.dtype == np.int64
        s = Spectrum(n, f.nums, 0)
        assert _int_minmax(s.nums) == top
        assert l2_norm_sq(g) == DyadicScalar(8, n)
        with pytest.raises(OverflowError):
            l2_norm_sq(f)
        if top << n > _I64_MAX:
            assert _refused(l1_norm, f) == _refused(a_norm, s) == (
                _refused(exact_sum, f.nums, g.nums)) == OverflowError
            continue
        assert exact_sum(f.nums, g.nums) == sum(
            a * b for a, b in zip(vals, [1] * 7 + [-1]))
        assert l1_norm(f) == DyadicScalar(8 * top, n)
        assert a_norm(s) == DyadicScalar(8 * top)
    # Square sums at the bound: 2^n entries of magnitude isqrt(2^63 >> n).
    top = math.isqrt(_I64_MAX >> n)
    f = FunctionTable(n, np.array([top, -top] * 4, dtype=np.int64), 0)
    assert l2_norm_sq(f) == DyadicScalar(8 * top * top, n)


def test_table_normalization():
    f = FunctionTable(1, [2, 4], 3)
    assert f.exp == 2 and list(f.nums) == [1, 2]
    z = FunctionTable(2, [0, 0, 0, 0], 7)
    assert z.exp == 0
    assert FunctionTable(1, [2, 4], 3) == FunctionTable(1, [1, 2], 2)
    assert FunctionTable(1, [1, 0], 0) != FunctionTable(1, [0, 1], 0)
    with pytest.raises(ValueError):
        FunctionTable(2, [1, 2, 3], 0)
    with pytest.raises(TypeError):
        FunctionTable(1, np.array([0.5, 1.5]), 0)
    with pytest.raises(TypeError):
        FunctionTable(1, np.array([2.5, 1], dtype=object), 0)


def test_from_values_mixed():
    f = table_from_values(FunctionTable, 1,
                          [DyadicScalar(1, 2), Fraction(3, 8)])
    assert table_fractions(f) == [Fraction(1, 4), Fraction(3, 8)]
    with pytest.raises(ValueError):
        table_from_values(FunctionTable, 1, [Fraction(1, 3), Fraction(0)])


def test_spectrum_and_table_are_distinct_types():
    f = FunctionTable(1, [1, 0], 0)
    s = fwht(f)
    assert isinstance(s, Spectrum)
    assert s != f  # different types never compare equal


def _stored_peak(t):
    return max((abs(int(v)) for v in t.nums), default=0)


def test_table_peak_is_max_stored_numerator():
    # int64, uint64 and Python-int input up to the int64 magnitude bound;
    # each with exp 0 and with a power of two to strip.
    cases = [
        np.array([3, -7, 0, 5], dtype=np.int64),
        np.array([_I64_MAX, 0, -_I64_MAX, 1], dtype=np.int64),
        np.array([_I64_MAX, 0, 1, 0], dtype=np.uint64),
        np.array([(1 << 62) - 1, -(1 << 61), 3, 0], dtype=object),
        np.array([-_I64_MAX, 5, 0, 0], dtype=object),
    ]
    for vals in cases:
        for cls in (FunctionTable, Spectrum):
            t = cls(2, vals, 0)
            assert t.nums.dtype == np.int64, vals
            assert type(t.peak) is int
            assert t.peak == _stored_peak(t) == max(abs(int(v)) for v in vals)
            for exp in (1, 3):
                t = cls(2, vals, exp)
                assert t.peak == _stored_peak(t), (vals, exp)


def test_table_peak_after_zeros_and_stripping():
    for n in (1, 3):
        for exp in (0, 5):
            z = FunctionTable(n, np.zeros(1 << n, dtype=np.int64), exp)
            assert (z.peak, z.exp) == (0, 0)
        assert Spectrum(n, np.zeros(1 << n, dtype=np.int64), 0).peak == 0
    t = FunctionTable(2, [4, -8, 12, 0], 5)
    assert (t.exp, t.nums.tolist(), t.peak) == (3, [1, -2, 3, 0], 3)
    # Only the exponent's worth of twos is stripped.
    t = FunctionTable(2, [16, -32, 48, 0], 2)
    assert (t.exp, t.nums.tolist(), t.peak) == (0, [4, -8, 12, 0], 12)
    # The magnitude bound holds before stripping: numerators that would
    # fit int64 once stripped are still refused.
    t = FunctionTable(1, np.array([1 << 62, -(1 << 61)], dtype=object), 2)
    assert t.nums.dtype == np.int64
    assert (t.exp, t.peak) == (0, 1 << 60)
    with pytest.raises(OverflowError):
        FunctionTable(1, np.array([1 << 64, -(1 << 63)], dtype=object), 2)


def test_built_tables_carry_their_peak():
    # Tables the package builds without a copy: transforms and indicators.
    rng = np.random.default_rng(90)
    for n in (1, 3, 6):
        f = random_table(rng, n)
        a = random_point_set(rng, n)
        big = FunctionTable(n, np.full(1 << n, (1 << 53) >> n), 0)
        built = [fwht(f), a.indicator(), fwht(a.indicator()), fwht(big)]
        for t in built:
            assert t.peak == _stored_peak(t), t
            assert not t.nums.flags.writeable


def test_public_constructors_copy():
    for dtype in (np.int64, np.uint8, object):
        src = np.array([1, 2, 3, 4], dtype=dtype)
        for cls in (FunctionTable, Spectrum):
            t = cls(2, src, 0)
            src[0] = 9
            assert t.nums.tolist() == [1, 2, 3, 4], (dtype, cls)
            assert t.peak == 4
            src[0] = 1
    src = np.array([1, 2, 3, 4], dtype=np.int64)
    t = FunctionTable(2, src, 0)
    assert not np.shares_memory(t.nums, src)
    assert src.flags.writeable


def test_stored_nums_are_read_only():
    f = FunctionTable(2, [1, -2, 3, 0], 0)
    tables = [f, FunctionTable(2, [_I64_MAX, 0, 0, 0], 0), fwht(f),
              FunctionTable(2, [0] * 4, 0),
              FunctionTable(2, [4, 8, 12, 0], 2)]
    for t in tables:
        assert not t.nums.flags.writeable
        with pytest.raises(ValueError):
            t.nums[0] = 5
