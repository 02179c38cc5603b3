from fractions import Fraction

import numpy as np
import pytest

from f2wiener.constructions import (CosetUnionWitness, DyadicDensity,
                                    ExponentOverflow, build_coset_union,
                                    density_family)
from f2wiener.dyadic import DyadicScalar
from f2wiener.fourier import fwht
from f2wiener.groups import DualSubspace
from f2wiener.setfuncs import set_a_norm

from _reference import (brute_set_a_norm, build_equality_case, ResolutionError,
                        profile_report, random_subspace, set_points, span_of,
                        stacked_l1_and_floor, subspace_elements)


def test_density_family_values():
    g3 = density_family("geometric4", 3)
    assert g3.exponents == (2, 4, 6)
    assert g3.value() == DyadicScalar(21, 6)
    d3 = density_family("double_exp", 3)
    assert d3.exponents == (1, 2, 4)
    assert d3.value() == DyadicScalar(13, 4)
    assert density_family("geometric4", 1).value() == DyadicScalar(1, 2)
    with pytest.raises(ValueError):
        density_family("geometric4", 0)
    with pytest.raises(ValueError):
        density_family("fibonacci", 2)


def test_density_validation():
    with pytest.raises(ValueError):
        DyadicDensity(())
    with pytest.raises(ValueError):
        DyadicDensity((0, 1))
    with pytest.raises(ValueError):
        DyadicDensity((2, 2))
    with pytest.raises(ValueError):
        DyadicDensity((3, 1))
    assert DyadicDensity((1, 3)).value() == DyadicScalar(5, 3)


def test_build_single_coset():
    a, w = build_coset_union(DyadicDensity((1,)), 1)
    assert set_points(a) == [0]
    assert set_a_norm(a) == DyadicScalar(1)
    w.validate()


def test_build_exponent_overflow():
    with pytest.raises(ExponentOverflow):
        build_coset_union(density_family("geometric4", 2), 3)


def test_geometric4_k2_frozen():
    a, w = build_coset_union(density_family("geometric4", 2), 4)
    assert set_points(a) == [0, 2, 4, 8, 12]
    assert a.set_hex() == "1115"
    assert a.density() == DyadicScalar(5, 4)
    norm = set_a_norm(a)
    assert norm == DyadicScalar(7, 2)
    assert norm.as_fraction() == brute_set_a_norm(set_points(a), 4)
    w.validate()
    assert w.union() == a
    # Part 0 is the multiples of 4 and part 1 the point x_1 = 2: 4 + 1.
    assert [lam.basis for lam in w.lambdas] == [(1, 2), (1, 2, 4, 8)]
    assert (w.gammas, w.offsets) == ((2, 8), (2,))
    assert a.size == 4 + 1


def test_double_exp_k3_frozen():
    a, w = build_coset_union(density_family("double_exp", 3), 4)
    assert a.density() == DyadicScalar(13, 4)
    assert a.size == 13
    w.validate()
    assert DyadicScalar(1) <= set_a_norm(a) <= DyadicScalar(3)


def test_custom_exponents():
    a, w = build_coset_union(DyadicDensity((1, 3)), 3)
    assert a.density() == DyadicScalar(5, 3)
    assert set_a_norm(a) <= DyadicScalar(2)
    w.validate()


def test_witness_tamper_detection():
    a, w = build_coset_union(density_family("geometric4", 2), 4)
    bad = CosetUnionWitness(w.dim, w.density, w.lambdas,
                            (w.gammas[0], w.gammas[0]), w.offsets)
    with pytest.raises(ValueError):
        bad.validate()
    # Lambda_0 = span(0101, 1010) holds gamma_0 = 1010, which pairs to 1
    # with x_1 = 2, and lies in Lambda_1: only the coordinate check fails.
    bad = CosetUnionWitness(w.dim, w.density,
                            (DualSubspace((0b0101, 0b1010)), w.lambdas[1]),
                            (0b1010, w.gammas[1]), w.offsets)
    with pytest.raises(ValueError, match=r"lambda_0 is not span"):
        bad.validate()
    # x_1 = 0 puts part 1, the point 0, inside part 0.
    bad = CosetUnionWitness(w.dim, w.density, w.lambdas, w.gammas, (0,))
    with pytest.raises(ValueError, match="pairs wrongly"):
        bad.validate()
    with pytest.raises(ValueError, match="parts are not disjoint"):
        bad.union()


def test_norm_bounds_and_shell_floor():
    # k/2 <= norm <= k, and on each shell L_i \ L_{i-1} the coefficient
    # magnitude is at least (2/3) 4^-i (i counted from 1), checked by
    # cross multiplication.
    for k in (1, 2, 3):
        fam = density_family("geometric4", k)
        a, w = build_coset_union(fam, 2 * k)
        norm = set_a_norm(a)
        assert DyadicScalar(k, 1) <= norm <= DyadicScalar(k)
        spec = fwht(a)
        prev: frozenset = frozenset({0})
        for i, lam in enumerate(w.lambdas, start=1):
            cur = frozenset(subspace_elements(lam).tolist())
            for g in sorted(cur - prev):
                c = DyadicScalar(int(spec[g]), 2 * k)
                assert 3 * abs(c.num) * (4 ** i) >= 2 * (1 << c.exp), (k, i, g)
            prev = cur


def test_equality_case_frozen():
    v = span_of([0b001])
    a = build_equality_case(DyadicScalar(3, 3), v, 3)
    assert set_points(a) == [0, 2, 4]
    got, floor = stacked_l1_and_floor(a, v)
    assert got == floor == DyadicScalar(3, 4)


def test_equality_case_random():
    rng = np.random.default_rng(30)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        v = random_subspace(rng, n)
        m = int(rng.integers(0, (1 << n) + 1))
        alpha = DyadicScalar(m, n)
        a = build_equality_case(alpha, v, n)
        assert a.density() == alpha
        if a.size:
            got, floor = stacked_l1_and_floor(a, v)
            assert got == floor


def test_equality_case_deterministic_and_lex():
    v = span_of([0b10])
    a = build_equality_case(DyadicScalar(5, 3), v, 3)
    b = build_equality_case(DyadicScalar(5, 3), v, 3)
    assert a == b
    # coset {bit1 = 0} is taken whole, then the smallest point with bit1 = 1
    assert set_points(a) == [0, 1, 2, 4, 5]


def test_equality_case_errors():
    v = DualSubspace.trivial()
    with pytest.raises(ResolutionError):
        build_equality_case(DyadicScalar(1, 5), v, 3)
    with pytest.raises(ValueError):
        build_equality_case(DyadicScalar(3, 1), v, 3)  # alpha > 1
    with pytest.raises(ValueError):
        build_equality_case(DyadicScalar(-1, 2), v, 3)


def test_density_profile_frozen():
    # Rows (frac, product, scaled) for d = 0..3: max_order 2^3.
    rows, _, _ = profile_report(DyadicScalar(5, 4), 3)
    assert len(rows) == 4
    assert rows[0][1] == DyadicScalar(55, 8)
    assert rows[1][0] == DyadicScalar(5, 3)
    assert rows[1][1] == DyadicScalar(15, 6)
    assert rows[2][1] == DyadicScalar(3, 4)
    assert rows[3][1] == DyadicScalar(1, 2)
    assert rows[3][2] == DyadicScalar(2)
    half, _, _ = profile_report(DyadicScalar(1, 1), 4)
    assert half[0][1] == DyadicScalar(1, 2)
    for frac, product, _ in half[1:]:
        assert frac == DyadicScalar(0)
        assert product == DyadicScalar(0)
    with pytest.raises(ValueError):
        profile_report(DyadicScalar(1, 2), -1)


def test_double_exp_profile_bounds():
    # {alpha 2^d} <= 7/8 for d < 2^(k-1); >= 2^-d additionally for d >= 1
    seven_eighths = Fraction(7, 8)
    for k in (1, 2, 3, 4, 5):
        alpha = density_family("double_exp", k).value()
        top = 1 << (k - 1)
        rows, _, _ = profile_report(alpha, top - 1)
        for d, (frac, _, scaled) in enumerate(rows):
            t = frac.as_fraction()
            assert t <= seven_eighths, (k, d)
            assert scaled.as_fraction() >= Fraction(1, 8), (k, d)
            if d >= 1:
                assert t >= Fraction(1, 1 << d), (k, d)
        # at d=0 the lower bound degenerates to alpha >= 1, which no set
        # density satisfies; the exact value alpha in [1/2, 7/8] stands in
        assert rows[0][0] == alpha
        assert DyadicScalar(1, 1) <= alpha

