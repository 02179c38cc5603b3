import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from f2wiener import _kernels
from f2wiener.chang import level_sets, rank_spectrum
from f2wiener.dyadic import DyadicScalar
from f2wiener.fourier import _LP_MAX_EXP, _check_bound, fwht, lp_norm
from f2wiener.iteration import StepState
from f2wiener.setfuncs import PointSet, residual_norms, set_a_norm

from _reference import (annihilator_points, brute_abs_floats, brute_fwht,
                        full_set, random_point_set, random_subspace,
                        random_table, reference_inverse_fwht, set_complement,
                        span_of, subspace_elements, table_fractions, table_l1,
                        table_l2_sq)


def _lp(f, p):
    """lp_norm of the one-row stack of the table f = (nums, exp)."""
    nums, exp = f
    (got,) = lp_norm(nums[None], [exp], p)
    return got


def _indicator(a):
    return [Fraction(int(v)) for v in a.bool_mask()]


_I64_MAX = (1 << 63) - 1


def test_point_mass_spectrum():
    a = PointSet.from_points(3, [0])
    assert table_fractions(fwht(a), 3) == [Fraction(1, 8)] * 8
    assert set_a_norm(a) == DyadicScalar(1)


def test_three_point_set_spectrum():
    # A = {00, 01, 10} in F2^2: spectrum (3/4, 1/4, 1/4, -1/4), norm 3/2.
    a = PointSet.from_points(2, [0b00, 0b01, 0b10])
    expected = [Fraction(3, 4), Fraction(1, 4), Fraction(1, 4),
                Fraction(-1, 4)]
    assert table_fractions(fwht(a), 2) == expected
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
        s = fwht(a)
        inv = DyadicScalar(1, v.dim)
        for g in range(1 << n):
            coeff = DyadicScalar(int(s[g]), n)
            if v.contains(g):
                assert abs(coeff) == inv
            else:
                assert coeff.num == 0
        assert set_a_norm(a) == DyadicScalar(1)


def test_fwht_matches_brute_force():
    rng = np.random.default_rng(9)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        a = random_point_set(rng, n)
        assert table_fractions(fwht(a), n) == brute_fwht(_indicator(a), n)


def test_roundtrip_exact():
    # Summing hat(chi_A) = S / 2^n back against the characters gives chi_A.
    rng = np.random.default_rng(10)
    for _ in range(60):
        n = int(rng.integers(1, 8))
        a = random_point_set(rng, n)
        assert table_fractions(*reference_inverse_fwht(fwht(a), n)) == (
            _indicator(a))


def test_parseval_exact():
    # sum_g hat(chi_A)(g)^2 = ||chi_A||_2^2 = |A| / 2^n.
    rng = np.random.default_rng(11)
    for _ in range(80):
        n = int(rng.integers(1, 9))
        a = random_point_set(rng, n)
        square = DyadicScalar(sum(int(v) ** 2 for v in fwht(a)), 2 * n)
        ind = a.bool_mask().astype(np.int64)
        assert square == table_l2_sq(ind, 0) == a.density()


def test_linearity():
    # chi_{A u B} + chi_{A n B} = chi_A + chi_B and chi_{A^c} = 1 - chi_A,
    # so the transforms add up the same way.
    rng = np.random.default_rng(12)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        a = random_point_set(rng, n)
        b = random_point_set(rng, n)
        union = PointSet(n, a.bits | b.bits)
        inter = PointSet(n, a.bits & b.bits)
        assert (fwht(union) + fwht(inter) == fwht(a) + fwht(b)).all()
        one = np.zeros(1 << n, dtype=np.int64)
        one[0] = 1 << n
        assert (fwht(set_complement(a)) == one - fwht(a)).all()


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
        linf = DyadicScalar(int(np.abs(fwht(a)).max()), n)
        ind = a.bool_mask().astype(np.int64)
        assert linf == a.density() == table_l1(ind, 0)
        assert set_a_norm(a) >= linf


def test_lp_norm_agrees_with_exact():
    rng = np.random.default_rng(15)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        f = random_table(rng, n)
        exact1 = float(table_l1(*f).as_fraction())
        exact2 = math.sqrt(float(table_l2_sq(*f).as_fraction()))
        assert _lp(f, 1.0) == pytest.approx(exact1, rel=1e-12, abs=1e-300)
        assert _lp(f, 2.0) == pytest.approx(exact2, rel=1e-12, abs=1e-300)
    with pytest.raises(ValueError):
        _lp(random_table(rng, 2), 0.5)


def _brute_lp(f, p):
    nums, exp = f
    vals = np.array(brute_abs_floats(nums.tolist(), exp), dtype=np.float64)
    return float(np.mean(vals ** p) ** (1.0 / p))


def test_lp_norm_matches_reference():
    rng = np.random.default_rng(41)
    top = (1 << 63) - 1

    def table(nums, exp):
        return np.array(nums, dtype=np.int64), exp

    tables = []
    for _ in range(60):
        n = int(rng.integers(1, 8))
        # |v| > 2^53 needs rounding.
        nums = rng.integers(-top, top, size=1 << n, dtype=np.int64) | 1
        tables.append((nums, int(rng.integers(0, 61))))
    tables.append(table([-top, top, 1, 0], 60))
    tables.append(table([(1 << 53) + 1, -(1 << 54) - 1, 3, 0], 5))
    tables.append(table([1, -3], _LP_MAX_EXP))
    tables.append(table([-top, 5, 0, 1 << 62], _LP_MAX_EXP))
    tables.append(table([1, 2, 3, 4, 5, 6, 7, 9], 3))
    for f in tables:
        for p in (1.0, 1.0625, 1.5625, 2.0):
            assert _lp(f, p) == _brute_lp(f, p)
    # A stack reduces each row as that row alone: rows of one n with
    # exponents from 0 up to the limit.
    for size in (4, 8, 128):
        rows = [f for f in tables if f[0].size == size]
        exps = [exp for _, exp in rows]
        for p in (1.0, 1.0625, 1.5625, 2.0):
            got = lp_norm(np.stack([nums for nums, _ in rows]), exps, p)
            assert got == [_brute_lp(f, p) for f in rows]
    # Past the limit |v| 2^-exp can leave the normal floats, and a row there
    # is refused, alone or in a stack.
    for nums, exps in (([[1, -3]], [_LP_MAX_EXP + 1]),
                       ([[-top, 5, 0, 1 << 62], [1, 2, 3, 4]], [3, 1100])):
        with pytest.raises(ValueError, match="exponents up to"):
            lp_norm(np.array(nums, dtype=np.int64), exps, 2.0)


def test_inner_product_exact():
    # Plancherel: <chi_A, chi_B> = |A n B| / 2^n is sum_g hat(chi_A)(g)
    # hat(chi_B)(g) = S_A . S_B / 4^n.
    rng = np.random.default_rng(16)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        a = random_point_set(rng, n)
        b = random_point_set(rng, n)
        expected = sum((x * y for x, y in zip(brute_fwht(_indicator(a), n),
                                              brute_fwht(_indicator(b), n))),
                       Fraction(0))
        got = DyadicScalar(int(np.dot(fwht(a), fwht(b))), 2 * n)
        assert got.as_fraction() == expected == (
            PointSet(n, a.bits & b.bits).density().as_fraction())


def test_exact_sums_random():
    # The int64 sums over a set's spectrum against Python ints: the Wiener
    # norm, the ranking's prefix sums, and the mass and square mass over V
    # that the iteration's step state carries.
    rng = np.random.default_rng(18)
    for _ in range(30):
        n = int(rng.integers(1, 13))
        a = random_point_set(rng, n)
        mags = [abs(int(x)) for x in fwht(a)]
        ranking = rank_spectrum(a)
        assert set_a_norm(a) == ranking.total() == DyadicScalar(sum(mags), n)
        sums = np.cumsum([0] + sorted(mags, reverse=True)).tolist()
        assert ranking.prefix.tolist() == sums
        v = random_subspace(rng, n)
        state = StepState(a, v, ranking)
        elems = subspace_elements(v).tolist()
        # the state lists V's elements in the same doubling order
        if state.elems is not None:
            assert state.elems.tolist() == elems
        assert state.mass == sum(mags[g] for g in elems)
        assert state.square == sum(mags[g] ** 2 for g in elems)


def test_int64_headroom_boundary(monkeypatch):
    # fwht hands the kernel the indicator's peak, 1, so a set takes the
    # exact float32 route while 2^n is within that route's bound and
    # float64 past it, exact on both sides.  The bound is lowered from
    # 2^24 to 2^4 here, so the edge falls between n = 4 and n = 5.
    routes = []
    real = _kernels._float_wht

    def spy(work, dtype):
        routes.append(np.dtype(dtype))
        real(work, dtype)

    monkeypatch.setattr(_kernels, "_F32_EXACT", 1 << 4)
    monkeypatch.setattr(_kernels, "_float_wht", spy)
    rng = np.random.default_rng(17)
    for n, route in ((4, np.float32), (5, np.float64)):
        for a in (full_set(n), random_point_set(rng, n)):
            del routes[:]
            assert table_fractions(fwht(a), n) == brute_fwht(_indicator(a),
                                                             n)
            assert routes == [np.dtype(route)]


def test_exact_sums_at_int64_bound():
    # The one bound check the int64 routes share: exact up to 2^63 - 1,
    # refused one past it.
    x = np.zeros(3, dtype=np.int64)
    _check_bound(_I64_MAX, "sum", x, x)
    with pytest.raises(OverflowError, match="sum bound"):
        _check_bound(_I64_MAX + 1, "sum", x, x)


def test_tables_past_int64_are_refused():
    # Integers past int64 can only be held as Python ints, in an object
    # array, and the exact routes take int64 arrays only: coset counts
    # held so are refused for their type, whatever their size.
    for counts in (np.array([[1 << 70]], dtype=object),
                   np.array([[3]], dtype=object),
                   np.array([[3]], dtype=np.uint64), np.array([[3.0]])):
        with pytest.raises(TypeError):
            residual_norms(counts, 4, [0])
    with pytest.raises(TypeError):
        _check_bound(1, "sum", np.zeros(2, dtype=np.int64),
                     np.zeros(2, dtype=object))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), data=st.data())
def test_fwht_roundtrip_and_parseval_near_headroom(n, data):
    # Random sets, the empty set and the full set, whose S(0) = 2^n is the
    # largest magnitude a set's spectrum reaches: the transform inverts
    # exactly, and sum S^2 = |A| * 2^n (Parseval) in int64.
    bits = data.draw(st.one_of(st.just(0), st.just((1 << (1 << n)) - 1),
                               st.integers(0, (1 << (1 << n)) - 1)))
    a = PointSet(n, bits)
    s = fwht(a)
    assert table_fractions(*reference_inverse_fwht(s, n)) == _indicator(a)
    assert int(np.dot(s, s)) == a.size << n
    if n <= 3:
        assert table_fractions(s, n) == brute_fwht(_indicator(a), n)


def test_table_peak_is_max_stored_numerator():
    # A set's peak is S(0) = |A|, which rank_spectrum takes without a
    # scan: the ranking starts at it, character 0 first.
    rng = np.random.default_rng(90)
    for n in (1, 3, 6, 9):
        for a in (PointSet(n, 0), full_set(n), random_point_set(rng, n),
                  PointSet.from_points(n, [1])):
            s = fwht(a)
            assert int(s[0]) == a.size == int(np.abs(s).max())
            ranking = rank_spectrum(a)
            assert -int(ranking.neg_mags[0]) == a.size
            assert int(ranking.order[0]) == 0
            assert ranking.count_above([a.size]).tolist() == [0]


def test_table_peak_after_zeros_and_stripping():
    # The empty set's spectrum is all zeros: its ranking keeps every
    # character in index order and totals 0.  No power of two is stripped
    # from a ranking, whose exponent stays n also for a coset, where every
    # magnitude is a multiple of 2^(n - dim V); its values are the same.
    for n in (1, 3):
        ranking = rank_spectrum(PointSet(n, 0))
        assert ranking.exp == n
        assert ranking.order.tolist() == list(range(1 << n))
        assert ranking.neg_mags.tolist() == [0] * (1 << n)
        assert ranking.total() == DyadicScalar(0)
    v = span_of([0b0011, 0b0100])
    a = PointSet.from_points(4, annihilator_points(v.basis, 4))
    ranking = rank_spectrum(a)
    assert ranking.exp == 4
    assert sorted(ranking.order[:4].tolist()) == sorted(
        subspace_elements(v).tolist())
    assert (-ranking.neg_mags[:5]).tolist() == [4, 4, 4, 4, 0]
    assert ranking.total() == set_a_norm(a) == DyadicScalar(1)
    # ||f_V||_1 = 2 (1/4)(3/4) at V = {0}; V's other characters, each
    # 4 / 2^4, form band 0.
    (level,) = level_sets(ranking, np.zeros(1, dtype=np.int64),
                          DyadicScalar(3, 3))
    assert (level.s, level.mass) == (0, DyadicScalar(3, 2))


def test_built_tables_carry_their_peak():
    # fwht returns a fresh, writable int64 array of 2^n entries whose
    # first entry is the peak |A|; writing to it changes no later
    # transform.
    rng = np.random.default_rng(91)
    for n in (1, 3, 6):
        a = random_point_set(rng, n)
        s = fwht(a)
        assert s.dtype == np.int64 and s.shape == (1 << n,)
        assert s.flags.writeable and s.flags.c_contiguous
        assert int(s[0]) == a.size
        want = s.copy()
        s[:] = 7
        assert (fwht(a) == want).all()
        assert not np.shares_memory(fwht(a), fwht(a))


def test_stored_nums_are_read_only():
    # What a ranking stores, and the members of the bands cut from it,
    # cannot be written.
    rng = np.random.default_rng(92)
    a = random_point_set(rng, 5)
    ranking = rank_spectrum(a)
    levels = level_sets(ranking, np.zeros(1, dtype=np.int64),
                        DyadicScalar(a.size, 5))
    arrays = [ranking.order, ranking.rank, ranking.neg_mags, ranking.prefix]
    for arr in arrays + [lv.members for lv in levels]:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 5
