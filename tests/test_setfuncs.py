from fractions import Fraction

import numpy as np
import pytest

from f2wiener.dyadic import DyadicScalar
from f2wiener.fourier import fwht
from f2wiener.groups import DualSubspace, GroupDim, random_subspace
from f2wiener.setfuncs import (PointSet, frac_product, frac_quadratic_gap,
                               physical_lower_bound, residual, residual_l1,
                               set_a_norm, set_spectrum)
from f2wiener.verify import random_point_set

from _reference import (brute_coset_average, brute_frac_quadratic_gap,
                        brute_indicator_bits, brute_set_a_norm)


def test_point_set_basics():
    a = PointSet.from_points(3, [0, 5, 5, 7])
    assert a.size == 3
    assert a.points() == [0, 5, 7]
    assert a.contains(5) and not a.contains(1)
    assert list(a.indicator().nums) == [1, 0, 0, 0, 0, 1, 0, 1]
    assert a.density() == DyadicScalar(3, 3)
    assert PointSet.from_indicator(GroupDim(3), a.indicator().nums) == a
    with pytest.raises(ValueError):
        PointSet.from_points(2, [4])


def test_point_set_hex():
    assert PointSet.from_points(2, [0, 1, 2]).set_hex() == "7"
    assert PointSet.from_points(1, [1]).set_hex() == "2"
    assert PointSet.from_points(4, [0]).set_hex() == "0001"
    full = PointSet.full(3)
    assert full.set_hex() == "ff"
    assert full.size == 8


def test_point_set_maps():
    a = PointSet.from_points(2, [0b00, 0b01, 0b10])
    assert a.complement().points() == [0b11]
    assert a.translate(0b11).points() == [0b01, 0b10, 0b11]
    # x -> Mx with rows (01, 11): 00->00, 01->11 (bit0 -> 1, bit1 -> 1), ...
    mapped = a.map_linear([0b01, 0b11])
    assert mapped.size == a.size
    assert set_a_norm(mapped) == set_a_norm(a)


def test_affine_invariance_of_norm():
    from f2wiener.groups import random_invertible
    rng = np.random.default_rng(20)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        a = random_point_set(rng, n)
        rows = random_invertible(rng, n)
        off = int(rng.integers(0, 1 << n))
        b = a.map_linear(rows).translate(off)
        assert b.size == a.size
        assert set_a_norm(b) == set_a_norm(a)


def test_set_norm_matches_brute():
    rng = np.random.default_rng(21)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        a = random_point_set(rng, n)
        assert set_a_norm(a).as_fraction() == brute_set_a_norm(
            a.points(), n)


def _coset_average(a, v):
    # chi_A - f_V is the average of chi_A over each annihilator coset.
    fv = residual(a, v).table.to_fractions()
    return [int(c) - r for c, r in zip(a.indicator().nums, fv)]


def test_coset_average_frozen():
    # n=2, V = span{01}, A = {00}: averages 1/2 on the fiber {00, 01}.
    a = PointSet.from_points(2, [0])
    v = DualSubspace.span([0b01])
    avg = _coset_average(a, v)
    assert avg == [Fraction(1, 2), Fraction(0), Fraction(1, 2), Fraction(0)]


def test_coset_average_random():
    rng = np.random.default_rng(22)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        a = random_point_set(rng, n)
        v = random_subspace(rng, n)
        avg = _coset_average(a, v)
        assert avg == brute_coset_average(a.points(), v.basis, n)
        # averaging preserves total mass
        assert sum(avg, Fraction(0)) == a.size


def test_residual_properties():
    rng = np.random.default_rng(23)
    trials = 0
    while trials < 50:
        n = int(rng.integers(1, 8))
        a = random_point_set(rng, n)
        if a.size == 0:
            continue
        trials += 1
        v = random_subspace(rng, n)
        r = residual(a, v)
        fr = r.table.to_fractions()
        # zero mean on every coset of the annihilator, values in [-1, 1]
        assert sum(fr, Fraction(0)) == 0
        assert all(-1 <= x <= 1 for x in fr)
        spec = fwht(r.table)
        for g in v.elements():
            assert spec[g].num == 0


def test_residual_l1_identity():
    rng = np.random.default_rng(24)
    for _ in range(80):
        n = int(rng.integers(1, 9))
        a = random_point_set(rng, n)
        if a.size == 0:
            continue
        v = random_subspace(rng, n)
        r = residual(a, v)
        l1 = residual_l1(r)  # raises ArithmeticError if the two routes differ
        assert l1 >= DyadicScalar(0)
        assert l1.as_fraction() == sum(
            (abs(x) for x in r.table.to_fractions()), Fraction(0)) / (1 << n)


def test_residual_l1_balanced_case():
    # against the trivial subspace the identity reads ||chi - a||_1 = 2a(1-a)
    rng = np.random.default_rng(25)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        a = random_point_set(rng, n)
        if a.size == 0:
            continue
        alpha = a.density().as_fraction()
        r = residual(a, DualSubspace.trivial())
        assert residual_l1(r).as_fraction() == 2 * alpha * (1 - alpha)


def test_frac_product_frozen():
    # t = {alpha 2^d} and t(1 - t) for alpha = 5/16.
    alpha = DyadicScalar(5, 4)
    assert frac_product(alpha, 0) == (DyadicScalar(5, 4), DyadicScalar(55, 8))
    assert frac_product(alpha, 1) == (DyadicScalar(5, 3), DyadicScalar(15, 6))
    assert frac_product(alpha, 3) == (DyadicScalar(1, 1), DyadicScalar(1, 2))
    assert frac_product(alpha, 4) == (DyadicScalar(0), DyadicScalar(0))


def test_physical_lower_bound_frozen():
    assert physical_lower_bound(DyadicScalar(5, 4), 4) == DyadicScalar(3, 5)
    assert physical_lower_bound(DyadicScalar(1, 1), 2) == DyadicScalar(0)
    assert physical_lower_bound(DyadicScalar(1, 1), 1) == DyadicScalar(1, 1)
    assert physical_lower_bound(DyadicScalar(0), 8) == DyadicScalar(0)
    with pytest.raises(ValueError):
        physical_lower_bound(DyadicScalar(1, 2), 3)  # order not a power of 2
    with pytest.raises(ValueError):
        physical_lower_bound(DyadicScalar(1, 2), 0)


def test_physical_lower_bound_inequality():
    # 2/|V| * {a|V|} (1 - {a|V|}) never exceeds the true residual l1
    rng = np.random.default_rng(26)
    for _ in range(60):
        n = int(rng.integers(1, 8))
        a = random_point_set(rng, n)
        if a.size == 0:
            continue
        v = random_subspace(rng, n)
        bound = physical_lower_bound(a.density(), v.order)
        got = residual_l1(residual(a, v))
        assert bound <= got


def test_frac_quadratic_gap_frozen():
    lhs, rhs = frac_quadratic_gap([Fraction(1, 2), Fraction(9, 10)])
    assert lhs == Fraction(17, 50)
    assert rhs == Fraction(6, 25)
    assert lhs >= rhs
    # equality when every delta is 0 or 1
    lhs, rhs = frac_quadratic_gap([Fraction(1), Fraction(0), Fraction(1)])
    assert lhs == rhs == 0
    # singleton: both sides are d - d^2
    lhs, rhs = frac_quadratic_gap([Fraction(3, 7)])
    assert lhs == rhs == Fraction(3, 7) - Fraction(9, 49)
    with pytest.raises(ValueError):
        frac_quadratic_gap([Fraction(3, 2)])
    assert frac_quadratic_gap([]) == (0, 0)


def test_frac_quadratic_gap_random():
    rng = np.random.default_rng(27)
    for _ in range(200):
        m = int(rng.integers(1, 9))
        deltas = [Fraction(int(rng.integers(0, 65)), 64) for _ in range(m)]
        lhs, rhs = frac_quadratic_gap(deltas)
        total = sum(deltas, Fraction(0))
        gamma = total - (total.numerator // total.denominator)
        assert rhs == gamma * (1 - gamma)
        assert lhs >= rhs


def test_from_indicator_matches_reference():
    rng = np.random.default_rng(31)
    for n in range(13):
        dim = GroupDim(max(n, 1))
        for density in (0.0, 0.3, 1.0):
            mask = rng.random(1 << n) < density
            ints = np.where(mask, rng.integers(-3, 4, size=1 << n), 0)
            for arr in (mask, mask.tolist(), ints.astype(np.int64),
                        ints.tolist()):
                want = brute_indicator_bits(arr)
                assert PointSet.from_indicator(dim, arr).bits == want
    assert PointSet.from_indicator(GroupDim(2), []).bits == 0
    with pytest.raises(ValueError):
        PointSet.from_indicator(GroupDim(2), [0, 0, 0, 0, 1])


def test_frac_quadratic_gap_matches_reference():
    rng = np.random.default_rng(37)
    for _ in range(300):
        m = int(rng.integers(0, 9))
        deltas = []
        for _ in range(m):
            den = int(rng.integers(1, 10 ** 6 + 1))
            deltas.append(Fraction(int(rng.integers(0, den + 1)), den))
        assert frac_quadratic_gap(deltas) == brute_frac_quadratic_gap(deltas)
    for deltas in ([0, 1, 1], [1], [0], [], [Fraction(1, 3), 1, 0]):
        got = frac_quadratic_gap(deltas)
        assert got == brute_frac_quadratic_gap(deltas)
        assert all(type(x) is Fraction for x in got)
    for bad in ([Fraction(1, 2), Fraction(-1, 10**6)], [2], [Fraction(3, 2)]):
        with pytest.raises(ValueError, match="outside"):
            frac_quadratic_gap(bad)
        with pytest.raises(ValueError, match="outside"):
            brute_frac_quadratic_gap(bad)
