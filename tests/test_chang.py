import math
from fractions import Fraction

import numpy as np
import pytest

from f2wiener.chang import (DependentSet, LevelSet, NoQualifyingLevel,
                            ZeroMass, beckner_verify, chang_cardinality_bound,
                            chang_span, level_qualifies, level_sets,
                            riesz_product, select_level)
from f2wiener.dyadic import DyadicScalar
from f2wiener.fourier import (FunctionTable, Spectrum, fwht, l1_norm,
                              l2_norm_sq)
from f2wiener.groups import DualSubspace, random_subspace
from f2wiener.setfuncs import (PointSet, residual, residual_l1, set_spectrum)
from f2wiener.verify import (random_independent_chars, random_point_set,
                             random_table)

from _reference import annihilator_points, brute_chang_span, brute_level_sets


def _halfspace_residual(n: int):
    a = PointSet.from_points(n, [x for x in range(1 << n) if x & 1 == 0])
    r = residual(a, DualSubspace.trivial())
    return a, r


def test_level_sets_halfspace():
    a, r = _halfspace_residual(3)
    base = residual_l1(r)
    assert base == DyadicScalar(1, 1)
    levels = level_sets(fwht(r.table), set_spectrum(a), base)
    assert len(levels) == 1
    lv = levels[0]
    assert lv.s == 0
    assert lv.members == (1,)
    assert lv.mass == DyadicScalar(1, 1)
    assert level_qualifies(lv)


def test_level_sets_coset():
    # A = annihilator of a dim-d dual space: all of V \ {0} lands in band 0
    for n, rows in ((3, [0b001, 0b010]), (4, [0b0011, 0b0100])):
        v = DualSubspace.span(rows)
        d = v.dim
        a = PointSet.from_points(n, annihilator_points(v.basis, n))
        r = residual(a, DualSubspace.trivial())
        base = residual_l1(r)
        levels = level_sets(fwht(r.table), set_spectrum(a), base)
        assert len(levels) == 1
        lv = levels[0]
        assert lv.s == 0
        assert sorted(lv.members) == sorted(set(v.elements()) - {0})
        assert lv.mass == DyadicScalar((1 << d) - 1, d)


def test_level_sets_band_convention():
    # coefficients sitting exactly on 2^-s * base belong to band s
    fv = Spectrum(2, [0, 2, 1, 4], 3)  # 0, 1/4, 1/8, 1/2
    base = DyadicScalar(1, 1)
    levels = level_sets(fv, fv, base)
    assert [(lv.s, lv.members) for lv in levels] == [
        (0, (3,)), (1, (1,)), (2, (2,))]
    assert levels[0].mass == DyadicScalar(1, 1)
    assert levels[1].mass == DyadicScalar(1, 2)
    assert levels[2].mass == DyadicScalar(1, 3)


def test_level_sets_errors():
    fv = Spectrum(1, [0, 3], 2)  # coefficient 3/4
    with pytest.raises(ZeroMass):
        level_sets(fv, fv, DyadicScalar(0))
    with pytest.raises(ArithmeticError):
        level_sets(fv, fv, DyadicScalar(1, 1))  # 3/4 above base 1/2
    with pytest.raises(ValueError):
        level_sets(fv, Spectrum.zeros(2), DyadicScalar(1, 1))


def _levels_as_fractions(levels):
    return [(lv.s, lv.members, lv.mass.as_fraction()) for lv in levels]


def _check_against_reference(fv_hat, chi_hat, base):
    got = _levels_as_fractions(level_sets(fv_hat, chi_hat, base))
    want = brute_level_sets(fv_hat.to_fractions(), chi_hat.to_fractions(),
                            base.as_fraction())
    assert got == want
    for _, members, _ in got:
        assert all(type(g) is int for g in members)


def test_level_sets_match_reference_on_residuals():
    rng = np.random.default_rng(44)
    done = 0
    while done < 80:
        n = int(rng.integers(1, 11))
        a = random_point_set(rng, n)
        v = random_subspace(rng, n, max_dim=n - 1)
        r = residual(a, v)
        base = residual_l1(r)
        if base.num == 0:
            continue
        done += 1
        _check_against_reference(fwht(r.table), set_spectrum(a), base)


def test_level_sets_match_reference_on_arbitrary_spectra():
    # Many distinct magnitudes, several sharing a band, and bands skipped.
    rng = np.random.default_rng(45)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        nums = rng.integers(-(1 << 20), 1 << 20, size=1 << n)
        nums[rng.random(1 << n) < 0.3] = 0
        fv = Spectrum(n, nums, int(rng.integers(0, 30)))
        chi = Spectrum(n, rng.integers(-99, 100, size=1 << n), 5)
        base = DyadicScalar(int(np.abs(fv.nums).max()) or 1, fv.exp)
        _check_against_reference(fv, chi, base.mul_pow2(int(rng.integers(0, 3))))


def test_level_sets_object_dtype_above_int64():
    big = 1 << 70
    fv = Spectrum(3, [0, big, -big, 3 * (big >> 2), big >> 5, 7, -(big >> 1),
                      big + 1], 4)
    chi = Spectrum(3, [5, -(1 << 65), 1 << 66, 3, (1 << 64) + 1, 0, -1,
                       1 << 80], 2)
    assert fv.nums.dtype == object and chi.nums.dtype == object
    _check_against_reference(fv, chi, DyadicScalar(big + 1, 4))
    with pytest.raises(ArithmeticError):
        level_sets(fv, chi, DyadicScalar(big, 4))
    # -2^63 fits int64, but its magnitude does not, so the table holds it
    # as an object.
    low = Spectrum(2, np.array([0, -(1 << 63), 1 << 62, -1], dtype=np.int64),
                   0)
    assert low.nums.dtype == object
    _check_against_reference(low, low, DyadicScalar(1 << 63))


def test_level_sets_mass_at_int64_bound():
    # One band of 7 members; the mass sum max|x| * 7 sits exactly at
    # 2^63 - 1, then one step past it, where an int64 sum would wrap.
    n = 3
    fv = Spectrum(n, [0, 1, 1, 1, -1, 1, 1, -1], 0)
    peak = ((1 << 63) - 1) // 7
    for top in (peak, peak + 1):
        chi = Spectrum(n, [0] + [top] * 3 + [-top] * 4, 0)
        assert chi.nums.dtype == np.int64
        levels = level_sets(fv, chi, DyadicScalar(1))
        assert [lv.members for lv in levels] == [tuple(range(1, 8))]
        assert levels[0].mass == DyadicScalar(7 * top)
        _check_against_reference(fv, chi, DyadicScalar(1))


def test_level_mass_averaging_identity():
    # sum_s 2^-s L_s >= 1/2 whenever the residual is nonzero
    rng = np.random.default_rng(40)
    done = 0
    while done < 60:
        n = int(rng.integers(2, 9))
        a = random_point_set(rng, n)
        v = random_subspace(rng, n, max_dim=n - 1)
        r = residual(a, v)
        base = residual_l1(r)
        if base.num == 0:
            continue
        done += 1
        levels = level_sets(fwht(r.table), set_spectrum(a), base)
        total = sum((lv.mass.as_fraction() / (1 << lv.s) for lv in levels),
                    Fraction(0))
        assert total >= Fraction(1, 2)
        assert any(level_qualifies(lv) for lv in levels)


def test_level_qualifies_boundaries():
    def lv(s, num, exp):
        return LevelSet(s, (1,), DyadicScalar(num, exp))

    assert level_qualifies(lv(0, 3, 4))        # 3/16 >= 1/6
    assert not level_qualifies(lv(0, 1, 3))    # 1/8 < 1/6
    assert level_qualifies(lv(1, 1, 2))        # 1/4 >= 2/9
    assert not level_qualifies(lv(1, 7, 5))    # 7/32 < 2/9
    assert level_qualifies(lv(2, 5, 4))        # 5/16 >= 8/27
    assert not level_qualifies(lv(2, 9, 5))    # 9/32 < 8/27


def test_select_level_strategies():
    l0 = LevelSet(0, (1,), DyadicScalar(3, 4))
    l1 = LevelSet(1, (2,), DyadicScalar(7, 3))
    assert select_level([l1, l0]).s == 0
    assert select_level([l0, l1], "best-ratio").s == 1  # 7/32 > 3/16
    # equal ratios keep the earlier (smaller-s) band; inputs arrive sorted
    t0 = LevelSet(0, (1,), DyadicScalar(1, 2))
    t1 = LevelSet(1, (2,), DyadicScalar(1))
    assert select_level([t0, t1], "best-ratio").s == 0
    with pytest.raises(ValueError):
        select_level([l0], "greedy")
    with pytest.raises(NoQualifyingLevel):
        select_level([LevelSet(0, (1,), DyadicScalar(1, 3)),
                      LevelSet(3, (2,), DyadicScalar(1, 3))])


def test_chang_span_zero_function():
    w, bound = chang_span(Spectrum.zeros(3), DyadicScalar(1, 2))
    assert w.dim == 0
    assert bound == 0.0


def test_chang_span_coset():
    v = DualSubspace.span([0b001, 0b010])
    a = PointSet.from_points(3, annihilator_points(v.basis, 3))
    w, bound = chang_span(set_spectrum(a), DyadicScalar(1, 2))
    assert w == v
    assert bound == pytest.approx(math.e * 2 * math.log(2), rel=1e-12)
    assert bound >= w.dim


def test_chang_span_balanced_halfspace():
    a, r = _halfspace_residual(1)
    spec = fwht(r.table)
    w, bound = chang_span(spec, DyadicScalar(1, 1))
    assert w.dim == 1 and w.contains(1)
    assert bound == pytest.approx(math.e, rel=1e-12)
    # a threshold above the l1 norm clears nothing and caps at zero
    w2, bound2 = chang_span(spec, DyadicScalar(3, 2))
    assert w2.dim == 0 and bound2 == 0.0
    with pytest.raises(ValueError):
        chang_span(spec, DyadicScalar(0))


def test_chang_span_contains_large_spectrum():
    rng = np.random.default_rng(41)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        a = random_point_set(rng, n)
        if a.size == 0:
            continue
        spec = set_spectrum(a)
        j = int(rng.integers(0, 5))
        f = a.indicator()
        thr = DyadicScalar(l1_norm(f).num, l1_norm(f).exp + j)  # l1 * 2^-j
        if thr.num == 0:
            continue
        w, bound = chang_span(spec, thr)
        for g in range(1 << n):
            if abs(spec[g]) >= thr:
                assert w.contains(g)
        assert w.dim <= bound or bound == 0.0


def _check_chang_span(spec, thr):
    w, bound = chang_span(spec, thr)
    basis, cap = brute_chang_span(spec.to_fractions(), thr.as_fraction(),
                                  spec.dim.n)
    assert w.basis == basis
    assert bound == cap


def test_chang_span_matches_reference():
    rng = np.random.default_rng(47)
    top = (1 << 63) - 1
    for _ in range(80):
        n = int(rng.integers(1, 7))
        spec = Spectrum(n, rng.integers(-40, 41, size=1 << n), int(
            rng.integers(0, 6)))
        if not spec.nums.any():
            continue
        # Thresholds with exp above, at and below the spectrum's.
        for exp in (spec.exp + 3, spec.exp, max(spec.exp - 2, 0)):
            thr = DyadicScalar(int(rng.integers(1, 50)), exp)
            _check_chang_span(spec, thr)
    # object spectra above 2^63, thresholds on both sides of the entries
    big = Spectrum(3, np.array([(1 << 70) + 1, -(1 << 64), 3, 0, 1 << 65,
                                -5, -(1 << 70) - 1, 7], dtype=object), 4)
    assert big.nums.dtype == object
    for thr in (DyadicScalar(1, 1), DyadicScalar(1 << 60), DyadicScalar(1 << 66),
                DyadicScalar((1 << 70) + 1, 4), DyadicScalar((1 << 70) + 3, 4)):
        _check_chang_span(big, thr)
    # int64 input holding -2^63, whose magnitude np.abs would wrap, is
    # held as objects.
    edge = Spectrum(2, np.array([1, -(1 << 63), top, -1], dtype=np.int64), 2)
    assert edge.nums.dtype == object
    for thr in (DyadicScalar(1 << 61), DyadicScalar(top, 2), DyadicScalar(1, 2),
                DyadicScalar(1 << 62, 1), DyadicScalar(1 << 63, 2),
                DyadicScalar(1 << 64)):
        _check_chang_span(edge, thr)
    w, _ = chang_span(edge, DyadicScalar(1 << 61))
    assert w.basis == (1,)


def test_chang_cardinality_bound_constant():
    ones = FunctionTable(3, [1] * 8, 0)
    assert chang_cardinality_bound(ones, 1.0) == pytest.approx(math.e)
    assert chang_cardinality_bound(ones, 0.5) == pytest.approx(4 * math.e)
    assert chang_cardinality_bound(ones, 0.25) == pytest.approx(16 * math.e)
    with pytest.raises(ValueError):
        chang_cardinality_bound(ones, 0.0)
    with pytest.raises(ValueError):
        chang_cardinality_bound(ones, 1.5)
    with pytest.raises(ZeroMass):
        chang_cardinality_bound(FunctionTable.zeros(3), 0.5)


def test_riesz_product_frozen():
    p = riesz_product(2, [1], 0.0)
    assert list(p.table.nums) == [1, 1, 1, 1] and p.table.exp == 0
    p = riesz_product(1, [1], 1)
    assert p.table.to_fractions() == [Fraction(2), Fraction(0)]
    assert fwht(p.table).to_fractions() == [Fraction(1), Fraction(1)]


def test_riesz_product_properties():
    rng = np.random.default_rng(42)
    etas = [DyadicScalar(1, 2), DyadicScalar(1, 1), DyadicScalar(3, 2),
            DyadicScalar(1), DyadicScalar(0)]
    for _ in range(40):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(n, 4) + 1))
        lams = random_independent_chars(rng, n, k)
        eta = etas[int(rng.integers(0, len(etas)))]
        p = riesz_product(n, lams, eta)
        assert all(int(v) >= 0 for v in p.table.nums.flat)
        assert l1_norm(p.table) == DyadicScalar(1)
        spec = fwht(p.table)
        expected = {0: Fraction(1)}
        for mask in range(1, 1 << k):
            g = 0
            for i in range(k):
                if (mask >> i) & 1:
                    g ^= lams[i]
            expected[g] = eta.as_fraction() ** mask.bit_count()
        for g in range(1 << n):
            assert spec[g].as_fraction() == expected.get(g, Fraction(0))


def test_riesz_product_object_path():
    eta = DyadicScalar(1, 21)
    p = riesz_product(3, [1, 2, 4], eta)
    assert p.table.nums.dtype == object
    assert l1_norm(p.table) == DyadicScalar(1)
    assert all(int(v) >= 0 for v in p.table.nums.flat)


def test_riesz_product_errors():
    with pytest.raises(DependentSet):
        riesz_product(2, [1, 2, 3], DyadicScalar(1, 1))
    with pytest.raises(ValueError):
        riesz_product(2, [0], DyadicScalar(1, 1))
    with pytest.raises(ValueError):
        riesz_product(2, [4], DyadicScalar(1, 1))
    with pytest.raises(ValueError):
        riesz_product(2, [1], 2)


def test_beckner_examples():
    # eta = 0 smooths f to its mean: lhs = |mean(f)| <= ||f||_1
    f = FunctionTable(2, [3, -1, 2, 0], 1)
    lhs, rhs = beckner_verify(f, [1], 0.0)
    assert lhs == pytest.approx(abs(3 - 1 + 2 + 0) / 8)
    assert lhs <= rhs * (1 + 1e-9)


def test_beckner_random():
    rng = np.random.default_rng(43)
    for _ in range(60):
        n = int(rng.integers(2, 8))
        f = random_table(rng, n)
        k = int(rng.integers(1, min(n, 4) + 1))
        lams = random_independent_chars(rng, n, k)
        eta = float(rng.choice([0.25, 0.5, 0.75, 1.0]))
        lhs, rhs = beckner_verify(f, lams, eta)
        assert lhs <= rhs * (1 + 1e-9)
