import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from f2wiener.dyadic import DyadicScalar
from f2wiener.fourier import (FunctionTable, Spectrum, _abs_sum, _int_minmax,
                              _sq_sum, _widen, a_norm, exact_product, exact_sum, fwht,
                              inverse_fwht, l1_norm, l2_norm_sq, lp_norm,
                              spectrum_l2_sq)
from f2wiener.groups import DualSubspace, random_subspace
from f2wiener.setfuncs import PointSet, set_a_norm
from f2wiener.verify import random_point_set, random_table

from _reference import (annihilator_points, brute_a_norm, brute_abs_floats,
                        brute_fwht, dyadic_from_fraction, table_fractions,
                        table_from_values, table_to_dyadics)


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
        assert inverse_fwht(fwht(f)) == f


def test_roundtrip_arbitrary_precision():
    # numerators far beyond int64 must take the object-dtype path intact
    n = 3
    big = 1 << 70
    nums = np.array([big, -big + 3, 5, 0, 1, big // 7, -2, 9], dtype=object)
    f = FunctionTable(n, nums, 2)
    s = fwht(f)
    assert s.nums.dtype == object
    assert inverse_fwht(s) == f
    assert a_norm(s).as_fraction() == brute_a_norm(table_fractions(f), n)


def test_int64_headroom_boundary():
    # values just below the overflow guard stay on the packed path
    n = 2
    top = (1 << 61) - 1
    f = FunctionTable(n, np.array([top, -top, top, top], dtype=np.int64), 0)
    s = fwht(f)
    assert table_fractions(s) == brute_fwht(table_fractions(f), n)


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
        assert lp_norm(f, 1.0) == pytest.approx(exact1, rel=1e-12, abs=1e-300)
        assert lp_norm(f, 2.0) == pytest.approx(exact2, rel=1e-12, abs=1e-300)
    with pytest.raises(ValueError):
        lp_norm(random_table(rng, 2), 0.5)


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
    tables.append(FunctionTable(2, [-(1 << 63), (1 << 63) - 1, 1, 0], 60))
    tables.append(FunctionTable(2, [(1 << 53) + 1, -(1 << 54) - 1, 3, 0], 5))
    tables.append(FunctionTable(1, [1, -3], 1100))
    tables.append(FunctionTable(2, [(1 << 70) + 1, -5, 0, 1 << 64], 7))
    tables.append(FunctionTable(3, np.array([1, 2, 3, 4, 5, 6, 7, 9],
                                            dtype=object), 3))
    assert tables[-1].nums.dtype == np.int64
    assert tables[-2].nums.dtype == object
    for f in tables:
        for p in (1.0, 1.0625, 1.5625, 2.0):
            assert lp_norm(f, p) == _brute_lp(f, p)


def test_exact_product():
    rng = np.random.default_rng(43)
    for bits in (10, 31, 32, 40):
        x = rng.integers(-(1 << bits), 1 << bits, size=64, dtype=np.int64)
        y = rng.integers(-(1 << bits), 1 << bits, size=64, dtype=np.int64)
        got = exact_product(x, y)
        assert got.tolist() == [int(a) * int(b) for a, b in zip(x, y)]
        assert got.dtype == (np.int64 if 2 * bits < 63 else object)
    x = np.array([-(1 << 62), 3], dtype=np.int64)
    y = np.array([2, -(1 << 62)], dtype=object)
    assert exact_product(x, y).tolist() == [-(1 << 63), -3 << 62]


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


_I64_MAX = (1 << 63) - 1


def _py_sums(vals, other):
    vals = [int(v) for v in vals]
    other = [int(v) for v in other]
    return (sum(abs(v) for v in vals), sum(v * v for v in vals),
            sum(a * b for a, b in zip(vals, other)), sum(vals))


def _fast_sums(x, y):
    return (_abs_sum(x), _sq_sum(x), exact_sum(x, y), exact_sum(x))


def test_exact_sums_at_int64_bound():
    # 2^63 - 1 = 7 * 1317624576693539401, so seven entries of that size sum
    # to exactly 2^63 - 1; one more unit per entry would wrap an int64 sum.
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
            assert _fast_sums(x.astype(object), y) == _py_sums(x, y)
    # x * y: max|x| * max|y| * size against the bound.
    x = np.full(size, lin, dtype=np.int64)
    for top in (1, 2):
        y = np.full(size, top, dtype=np.int64)
        assert exact_sum(x, y) == lin * top * size
        assert exact_sum(-x, y) == -lin * top * size
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
    assert _fast_sums(big, big[::-1]) == _py_sums(big, big[::-1])


def test_widen_bound():
    x = np.array([3, -4], dtype=np.int64)
    assert _widen(_I64_MAX, x)[0] is x
    wide = _widen(_I64_MAX + 1, x)[0]
    assert wide.dtype == object and wide.tolist() == [3, -4]
    assert all(type(v) is int for v in wide)
    pair = _widen(0, x, x.astype(object))
    assert [a.dtype for a in pair] == [object, object]


def _draw_top(data, top, size):
    """size ints in [-top, top], one of them +-top."""
    vals = data.draw(st.lists(st.integers(-top, top), min_size=size - 1,
                              max_size=size - 1))
    at = data.draw(st.integers(0, size - 1))
    vals.insert(at, data.draw(st.sampled_from([top, -top])))
    return vals


@settings(max_examples=60, deadline=None)
@given(size=st.integers(2, 6), above=st.booleans(), data=st.data())
def test_exact_ops_match_python_ints_across_widening_bound(size, above,
                                                           data):
    # Each operation's peak is at most 2^63 - 1 (int64 as it is) or just
    # above it (widened); object inputs, also beyond int64, agree too.
    # size >= 2 keeps max|x| = (2^63 - 1) // size + 1 within int64.
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
    for kind, shift in ((np.int64, 0), (object, 0), (object, 64)):
        def arr(vals):
            return np.array([w << shift for w in vals], dtype=kind)

        xs, us, vs, ps, qs = ([w << shift for w in vals]
                              for vals in (x, u, v, p, q))
        assert exact_sum(arr(x)) == sum(xs)
        assert exact_sum(arr(x), absolute=True) == sum(map(abs, xs))
        assert exact_sum(arr(u), arr(v)) == sum(
            i * j for i, j in zip(us, vs))
        assert exact_product(arr(p), arr(q)).tolist() == [
            i * j for i, j in zip(ps, qs)]
    assert (_widen(a * size, np.array(x, dtype=np.int64))[0].dtype
            == (object if above else np.int64))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 5), exp=st.integers(0, 70), data=st.data())
def test_fwht_roundtrip_and_parseval_near_headroom(n, exp, data):
    # Numerators about 2^63 >> n: below it the butterfly runs in int64,
    # one past it in Python ints.
    edge = _I64_MAX >> n
    entry = st.one_of(st.integers(-edge - 2, edge + 2),
                      st.sampled_from([edge, edge + 1, -edge, -edge - 1]))
    vals = data.draw(st.lists(entry, min_size=1 << n, max_size=1 << n))
    f = FunctionTable(n, np.array(vals, dtype=object), exp)
    s = fwht(f)
    assert inverse_fwht(s) == f
    assert l2_norm_sq(f) == spectrum_l2_sq(s)
    if n <= 3:
        assert table_fractions(s) == brute_fwht(table_fractions(f), n)


def test_norms_at_int64_bound():
    # Whole tables of 2^n entries: exact_sum and the norms stay exact on
    # both sides of max|x| * max|y| * 2^n = 2^63 - 1.
    n = 3
    for top in (_I64_MAX >> n, (_I64_MAX >> n) + 1):
        vals = [top, -top, top, top, -top, top, top, -top]
        f = FunctionTable(n, np.array(vals, dtype=np.int64), 0)
        g = FunctionTable(n, np.array([1] * 7 + [-1], dtype=np.int64), 0)
        assert f.nums.dtype == np.int64
        assert exact_sum(f.nums, g.nums) == sum(
            a * b for a, b in zip(vals, [1] * 7 + [-1]))
        assert l1_norm(f) == DyadicScalar(8 * top, n)
        assert l2_norm_sq(f) == DyadicScalar(8 * top * top, n)
        s = Spectrum(n, f.nums, 0)
        assert a_norm(s) == DyadicScalar(8 * top)
        assert _int_minmax(s.nums) == top


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


def test_numerators_outside_int64_magnitude_stay_exact():
    # uint64 above 2^63 - 1 must not wrap, and -2^63 has no int64 magnitude.
    big = FunctionTable(2, np.array([2 ** 63 + 5, 0, 0, 0], dtype=np.uint64), 0)
    assert big.nums.dtype == object
    assert l1_norm(big) == DyadicScalar(2 ** 63 + 5, 2)
    assert a_norm(fwht(big)) == DyadicScalar(2 ** 63 + 5)
    low = FunctionTable(2, np.array([-(2 ** 63), 0, 0, 0], dtype=np.int64), 0)
    assert low.nums.dtype == object
    assert l1_norm(low) == DyadicScalar(2 ** 63, 2)
    # Stored as int64 once the shared power of two is stripped.
    small = FunctionTable(1, np.array([2 ** 63, 2], dtype=np.uint64), 1)
    assert small.nums.dtype == np.int64
    assert table_to_dyadics(small) == [DyadicScalar(2 ** 62), DyadicScalar(1)]


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
    # int64 storage, both sides of the int64/object edge, and object
    # numerators; each with exp 0 and with a power of two to strip.
    cases = [
        (np.array([3, -7, 0, 5], dtype=np.int64), np.int64),
        (np.array([_I64_MAX, 0, -_I64_MAX, 1], dtype=np.int64), np.int64),
        (np.array([-(1 << 63), 0, 1, 0], dtype=np.int64), object),
        (np.array([1 << 63, 0, 1, 0], dtype=np.uint64), object),
        (np.array([_I64_MAX, 0, 1, 0], dtype=np.uint64), np.int64),
        (np.array([(1 << 81) - 1, -(1 << 80), 3, 0], dtype=object), object),
        (np.array([-(1 << 90), 5, 0, 0], dtype=object), object),
    ]
    for vals, dtype in cases:
        for cls in (FunctionTable, Spectrum):
            t = cls(2, vals, 0)
            assert t.nums.dtype == dtype, vals
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
    # Object numerators that fit int64 once stripped are stored as int64.
    t = FunctionTable(1, np.array([1 << 64, -(1 << 63)], dtype=object), 2)
    assert t.nums.dtype == np.int64
    assert (t.exp, t.peak) == (0, 1 << 62)
    t = FunctionTable(1, np.array([1 << 65, 1 << 63], dtype=object), 1)
    assert t.nums.dtype == object
    assert (t.exp, t.peak) == (0, 1 << 64)


def test_built_tables_carry_their_peak():
    # Tables the package builds without a copy: transforms, indicators,
    # residuals and Riesz products, on both storage routes.
    from f2wiener.chang import riesz_product
    from f2wiener.setfuncs import residual
    rng = np.random.default_rng(90)
    for n in (1, 3, 6):
        f = random_table(rng, n)
        a = random_point_set(rng, n)
        big = FunctionTable(n, np.full(1 << n, 1 << 70, dtype=object), 0)
        built = [fwht(f), inverse_fwht(fwht(f)), a.indicator(),
                 fwht(a.indicator()),
                 residual(a, random_subspace(rng, n)).table,
                 riesz_product(n, [1], DyadicScalar(1, 1)).table,
                 riesz_product(n, [1],
                               dyadic_from_fraction(Fraction(0.3))).table,
                 fwht(big),
                 inverse_fwht(fwht(big))]
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
    tables = [f, FunctionTable(2, [1 << 70, 0, 0, 0], 0), fwht(f),
              inverse_fwht(fwht(f)), FunctionTable(2, [0] * 4, 0),
              FunctionTable(2, [4, 8, 12, 0], 2)]
    for t in tables:
        assert not t.nums.flags.writeable
        with pytest.raises(ValueError):
            t.nums[0] = 5
