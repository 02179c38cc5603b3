from fractions import Fraction

import numpy as np
import pytest

from f2wiener.constructions import (CosetUnionWitness, DyadicDensity,
                                    ExponentOverflow, ResolutionError,
                                    build_coset_union, build_equality_case,
                                    density_family)
from f2wiener.dyadic import DyadicScalar
from f2wiener.groups import DualSubspace, random_subspace
from f2wiener.iteration import hypothesis_check
from f2wiener.setfuncs import (physical_lower_bound, residual, residual_l1,
                               set_a_norm, set_spectrum)
from f2wiener.verify import random_point_set

from _reference import brute_set_a_norm


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
    assert a.points() == [0]
    assert set_a_norm(a) == DyadicScalar(1)
    w.validate()


def test_build_exponent_overflow():
    with pytest.raises(ExponentOverflow):
        build_coset_union(density_family("geometric4", 2), 3)


def test_geometric4_k2_frozen():
    a, w = build_coset_union(density_family("geometric4", 2), 4)
    assert a.points() == [0, 2, 4, 8, 12]
    assert a.set_hex() == "1115"
    assert a.density() == DyadicScalar(5, 4)
    norm = set_a_norm(a)
    assert norm == DyadicScalar(7, 2)
    assert norm.as_fraction() == brute_set_a_norm(a.points(), 4)
    w.validate()
    assert w.union() == a
    # parts partition A
    assert sum(p.size for p in w.parts) == a.size


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
                            (w.gammas[0], w.gammas[0]), w.offsets, w.parts)
    with pytest.raises(ValueError):
        bad.validate()
    bad = CosetUnionWitness(w.dim, w.density, w.lambdas, w.gammas,
                            (0,), w.parts)
    with pytest.raises(ValueError):
        bad.validate()
    bad = CosetUnionWitness(w.dim, w.density, w.lambdas, w.gammas,
                            w.offsets, (w.parts[0], w.parts[0]))
    with pytest.raises(ValueError):
        bad.validate()


def test_norm_bounds_and_shell_floor():
    # k/2 <= norm <= k, and on each shell L_i \ L_{i-1} the coefficient
    # magnitude is at least (2/3) 4^-i (i counted from 1), checked by
    # cross multiplication.
    for k in (1, 2, 3):
        fam = density_family("geometric4", k)
        a, w = build_coset_union(fam, 2 * k)
        norm = set_a_norm(a)
        assert DyadicScalar(k, 1) <= norm <= DyadicScalar(k)
        spec = set_spectrum(a)
        prev: frozenset = frozenset({0})
        for i, lam in enumerate(w.lambdas, start=1):
            cur = frozenset(lam.elements())
            for g in sorted(cur - prev):
                c = spec[g]
                assert 3 * abs(c.num) * (4 ** i) >= 2 * (1 << c.exp), (k, i, g)
            prev = cur


def test_equality_case_frozen():
    v = DualSubspace.span([0b001])
    a = build_equality_case(DyadicScalar(3, 3), v, 3)
    assert a.points() == [0, 2, 4]
    got = residual_l1(residual(a, v))
    assert got == physical_lower_bound(DyadicScalar(3, 3), v.order)
    assert got == DyadicScalar(3, 4)


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
            got = residual_l1(residual(a, v))
            assert got == physical_lower_bound(alpha, v.order)


def test_equality_case_deterministic_and_lex():
    v = DualSubspace.span([0b10])
    a = build_equality_case(DyadicScalar(5, 3), v, 3)
    b = build_equality_case(DyadicScalar(5, 3), v, 3)
    assert a == b
    # coset {bit1 = 0} is taken whole, then the smallest point with bit1 = 1
    assert a.points() == [0, 1, 2, 4, 5]


def test_equality_case_errors():
    v = DualSubspace.trivial()
    with pytest.raises(ResolutionError):
        build_equality_case(DyadicScalar(1, 5), v, 3)
    with pytest.raises(ValueError):
        build_equality_case(DyadicScalar(3, 1), v, 3)  # alpha > 1
    with pytest.raises(ValueError):
        build_equality_case(DyadicScalar(-1, 2), v, 3)


def test_density_profile_frozen():
    # Rows d = 0..3: max_order 2^3.
    rows = hypothesis_check(DyadicScalar(5, 4), 8).rows
    assert [r.d for r in rows] == [0, 1, 2, 3]
    assert rows[0].product == DyadicScalar(55, 8)
    assert rows[1].frac == DyadicScalar(5, 3)
    assert rows[1].product == DyadicScalar(15, 6)
    assert rows[2].product == DyadicScalar(3, 4)
    assert rows[3].product == DyadicScalar(1, 2)
    assert rows[3].scaled == DyadicScalar(2)
    half = hypothesis_check(DyadicScalar(1, 1), 16).rows
    assert half[0].product == DyadicScalar(1, 2)
    for r in half[1:]:
        assert r.frac == DyadicScalar(0)
        assert r.product == DyadicScalar(0)
    with pytest.raises(ValueError):
        hypothesis_check(DyadicScalar(1, 2), 0)


def test_double_exp_profile_bounds():
    # {alpha 2^d} <= 7/8 for d < 2^(k-1); >= 2^-d additionally for d >= 1
    seven_eighths = Fraction(7, 8)
    for k in (1, 2, 3, 4, 5):
        alpha = density_family("double_exp", k).value()
        top = 1 << (k - 1)
        rows = hypothesis_check(alpha, 1 << (top - 1)).rows
        for r in rows:
            t = r.frac.as_fraction()
            assert t <= seven_eighths, (k, r.d)
            assert r.scaled.as_fraction() >= Fraction(1, 8), (k, r.d)
            if r.d >= 1:
                assert t >= Fraction(1, 1 << r.d), (k, r.d)
        # at d=0 the lower bound degenerates to alpha >= 1, which no set
        # density satisfies; the exact value alpha in [1/2, 7/8] stands in
        assert rows[0].frac == alpha
        assert DyadicScalar(1, 1) <= alpha

