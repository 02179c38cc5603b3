import functools
from fractions import Fraction

import numpy as np
import pytest

from f2wiener.chang import level_sets
from f2wiener.constructions import build_coset_union, density_family
from f2wiener.dyadic import DyadicScalar
from f2wiener.fourier import fwht
from f2wiener.groups import DualSubspace, random_subspace
from f2wiener import groups
from f2wiener.iteration import (HypothesisReport, Termination, ZeroResidual,
                                hypothesis_check, iterate_step, run_iteration)
from f2wiener.setfuncs import (PointSet, residual, residual_l1, set_a_norm,
                               set_spectrum)
from f2wiener.verify import random_point_set

from _reference import annihilator_points


def _halfspace(n: int) -> PointSet:
    return PointSet.from_points(n, [x for x in range(1 << n) if x & 1 == 0])


def test_halfspace_run_n1():
    trace = run_iteration(_halfspace(1), max_order=2)
    assert trace.termination is Termination.RESIDUAL_ZERO
    assert len(trace.steps) == 1
    st = trace.steps[0]
    assert st.s == 0
    assert st.dim_before == 0 and st.dim_after == 1
    assert st.gain == DyadicScalar(1, 1)
    assert trace.l_sequence == (DyadicScalar(1, 1), DyadicScalar(1))
    assert trace.final_bound == trace.a_norm == DyadicScalar(1)


def test_halfspace_run_n4():
    trace = run_iteration(_halfspace(4), max_order=16)
    assert trace.termination is Termination.RESIDUAL_ZERO
    assert len(trace.steps) == 1
    assert trace.steps[0].s == 0
    assert trace.final_bound == trace.a_norm == DyadicScalar(1)


def test_coset_run():
    v = DualSubspace.span([0b001, 0b010])
    a = PointSet.from_points(3, annihilator_points(v.basis, 3))
    trace = run_iteration(a, max_order=8)
    assert trace.termination is Termination.RESIDUAL_ZERO
    assert len(trace.steps) == 1
    st = trace.steps[0]
    assert st.s == 0
    assert st.v_new == v
    assert st.gain == DyadicScalar(3, 2)
    assert trace.final_bound == trace.a_norm == DyadicScalar(1)


def test_coset_union_run():
    a, _ = build_coset_union(density_family("geometric4", 2), 4)
    trace = run_iteration(a, max_order=16)
    assert trace.termination is Termination.RESIDUAL_ZERO
    assert trace.final_bound == trace.a_norm == DyadicScalar(7, 2)
    assert trace.l_sequence[0] == DyadicScalar(5, 4)
    for before, after in zip(trace.l_sequence, trace.l_sequence[1:]):
        assert after > before


def test_full_group_zero_steps():
    trace = run_iteration(PointSet.full(3), max_order=8)
    assert trace.termination is Termination.RESIDUAL_ZERO
    assert len(trace.steps) == 0
    assert trace.final_bound == trace.a_norm == DyadicScalar(1)


def test_iterate_step_zero_residual():
    v = DualSubspace.span([0b01])
    # {0, 2} is the annihilator coset itself, so the residual vanishes
    a = PointSet.from_points(2, [0, 2])
    with pytest.raises(ZeroResidual):
        iterate_step(a, v)


def test_step_contract_random():
    rng = np.random.default_rng(50)
    done = 0
    while done < 50:
        n = int(rng.integers(2, 9))
        a = random_point_set(rng, n)
        v = random_subspace(rng, n, max_dim=n - 1)
        r = residual(a, v)
        base = residual_l1(r)
        if base.num == 0:
            continue
        done += 1
        chi_hat = set_spectrum(a)
        st = iterate_step(a, v)
        assert st.dim_before == v.dim
        assert st.dim_after == st.v_new.dim > v.dim
        assert v.is_subspace_of(st.v_new)
        # gain >= (1/6)(4/3)^s, cross-multiplied
        assert 6 * (3 ** st.s) * st.gain.num >= (4 ** st.s) * (1 << st.gain.exp)
        assert st.dim_after - st.dim_before <= st.chang_ceiling
        # the chosen band is disjoint from v and drives the gain
        levels = level_sets(fwht(r.table), chi_hat, base)
        chosen = [lv for lv in levels if lv.s == st.s]
        assert len(chosen) == 1
        members = set(chosen[0].members)
        assert members.isdisjoint(v.elements())
        assert all(st.v_new.contains(g) for g in members)
        assert st.gain >= chosen[0].mass


def test_step_span_growth_inserts_once_per_dimension(monkeypatch):
    # v_new is the span of v and every chosen member, reached with one
    # subspace_insert per added dimension.
    inserted = []
    real_insert = groups.subspace_insert

    def counting_insert(v, gamma):
        inserted.append(gamma)
        return real_insert(v, gamma)

    monkeypatch.setattr(groups, "subspace_insert", counting_insert)
    rng = np.random.default_rng(53)
    for strategy in ("smallest-s", "best-ratio"):
        for _ in range(30):
            n = int(rng.integers(2, 10))
            a = random_point_set(rng, n)
            v = random_subspace(rng, n, max_dim=n - 1)
            inserted.clear()
            try:
                st = iterate_step(a, v, strategy)
            except ZeroResidual:
                continue
            assert len(inserted) == st.dim_after - st.dim_before
            r = residual(a, v)
            levels = level_sets(fwht(r.table), set_spectrum(a),
                                residual_l1(r))
            (chosen,) = [lv for lv in levels if lv.s == st.s]
            assert st.v_new == functools.reduce(real_insert, chosen.members, v)


def test_strategies_agree_on_soundness():
    rng = np.random.default_rng(51)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        a = random_point_set(rng, n)
        if a.size == 0:
            continue
        for strategy in ("smallest-s", "best-ratio"):
            trace = run_iteration(a, max_order=1 << n, strategy=strategy)
            assert trace.final_bound <= trace.a_norm
            if trace.termination is Termination.RESIDUAL_ZERO:
                assert trace.final_bound == trace.a_norm


def test_step_cap():
    a, _ = build_coset_union(density_family("geometric4", 2), 4)
    trace = run_iteration(a, max_order=16, step_cap=1)
    assert trace.termination is Termination.STEP_CAP
    assert len(trace.steps) == 1
    assert trace.final_bound < trace.a_norm
    zero = run_iteration(a, max_order=16, step_cap=0)
    assert zero.termination is Termination.STEP_CAP
    assert len(zero.steps) == 0
    assert zero.final_bound == a.density()


def test_order_cap():
    a, _ = build_coset_union(density_family("geometric4", 2), 4)
    trace = run_iteration(a, max_order=1)
    assert trace.termination is Termination.ORDER_CAP
    assert len(trace.steps) == 1  # the cap is checked before each step
    assert trace.final_bound <= trace.a_norm


def test_run_validation():
    a = _halfspace(2)
    with pytest.raises(ValueError):
        run_iteration(a, max_order=0)
    with pytest.raises(ValueError):
        run_iteration(a, max_order=4, step_cap=-1)


def test_soundness_random():
    rng = np.random.default_rng(52)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        a = random_point_set(rng, n)
        if a.size == 0:
            continue
        trace = run_iteration(a, max_order=1 << n)
        assert trace.final_bound <= trace.a_norm == set_a_norm(a)
        assert trace.l_sequence[0] == a.density()
        # certified growth: the trace's own floor never overshoots
        gained = (trace.final_bound.as_fraction()
                  - trace.l_sequence[0].as_fraction())
        assert gained >= trace.gain_floor()
        for st, l_after in zip(trace.steps, trace.l_sequence[1:]):
            assert st.l_after == l_after


def test_nesting_chain():
    rng = np.random.default_rng(53)
    a = random_point_set(rng, 6)
    trace = run_iteration(a, max_order=64)
    v = DualSubspace.trivial()
    for st in trace.steps:
        assert v.is_subspace_of(st.v_new)
        assert st.dim_before == v.dim
        v = st.v_new


def test_hypothesis_frozen():
    rep = hypothesis_check(DyadicScalar(5, 4), 15)
    assert isinstance(rep, HypothesisReport)
    assert [r.d for r in rep.rows] == [0, 1, 2, 3]
    assert [r.product for r in rep.rows] == [
        DyadicScalar(55, 8), DyadicScalar(15, 6), DyadicScalar(3, 4),
        DyadicScalar(1, 2)]
    assert rep.c_plain == DyadicScalar(3, 4)
    assert rep.c_scaled == DyadicScalar(55, 8)
    # at max_order 16 the d=4 row appears, where 5/16 * 16 is integral
    rep16 = hypothesis_check(DyadicScalar(5, 4), 16)
    assert rep16.rows[-1].d == 4
    assert rep16.c_plain == DyadicScalar(0)


def test_hypothesis_families():
    twelfth = Fraction(1, 12)
    for k in (1, 2, 3, 4):
        alpha = density_family("geometric4", k).value()
        rep = hypothesis_check(alpha, 4 ** k - 1)
        assert rep.c_plain.as_fraction() >= twelfth, k
    eighth = Fraction(1, 8)
    for k in (1, 2, 3, 4, 5):
        alpha = density_family("double_exp", k).value()
        rep = hypothesis_check(alpha, (1 << (1 << (k - 1))) - 1)
        assert rep.c_scaled.as_fraction() >= eighth, k
    # exact-density collapse: alpha = 1/2 dies at d = 1
    rep = hypothesis_check(DyadicScalar(1, 1), 2)
    assert rep.c_plain == DyadicScalar(0)


def test_hypothesis_plain_vs_scaled():
    rng = np.random.default_rng(54)
    for _ in range(100):
        n = int(rng.integers(1, 10))
        alpha = DyadicScalar(int(rng.integers(0, (1 << n) + 1)), n)
        m = int(rng.integers(1, 200))
        rep = hypothesis_check(alpha, m)
        assert rep.c_plain <= rep.c_scaled
        assert len(rep.rows) == m.bit_length()
    with pytest.raises(ValueError):
        hypothesis_check(DyadicScalar(1, 1), 0)
