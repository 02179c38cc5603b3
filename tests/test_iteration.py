import functools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from f2wiener.constructions import (DyadicDensity, build_coset_union,
                                    density_family)
from f2wiener.dyadic import DyadicScalar
from f2wiener.fourier import fwht
from f2wiener.groups import DualSubspace, subspace_extend
from f2wiener import iteration
from f2wiener.iteration import Termination, ZeroResidual, run_iteration
from f2wiener.setfuncs import PointSet, set_a_norm

from _reference import (annihilator_points, fresh_step, full_set,
                        profile_report, random_invertible, random_point_set,
                        random_subspace, reference_iterate_step,
                        reference_level_sets, residual, residual_l1,
                        set_map_linear, set_points, set_translate, span_of,
                        subspace_elements, table_fwht)


def _halfspace(n: int) -> PointSet:
    return PointSet.from_points(n, [x for x in range(1 << n) if x & 1 == 0])


def _mass_sequence(a: PointSet, trace) -> list:
    """The mass on V before the first step and after each: alpha plus the
    running sum of the gains."""
    seq = [a.density()]
    for st in trace.steps:
        seq.append(seq[-1] + st.gain)
    return seq


def test_halfspace_run_n1():
    trace = run_iteration(_halfspace(1), max_order=2)
    assert trace.termination is Termination.RESIDUAL_ZERO
    assert len(trace.steps) == 1
    st = trace.steps[0]
    assert st.s == 0
    assert st.dim_before == 0 and st.dim_after == 1
    assert st.gain == DyadicScalar(1, 1)
    assert _mass_sequence(_halfspace(1), trace) == [DyadicScalar(1, 1),
                                                     DyadicScalar(1)]
    assert trace.final_bound == trace.a_norm == DyadicScalar(1)


def test_halfspace_run_n4():
    trace = run_iteration(_halfspace(4), max_order=16)
    assert trace.termination is Termination.RESIDUAL_ZERO
    assert len(trace.steps) == 1
    assert trace.steps[0].s == 0
    assert trace.final_bound == trace.a_norm == DyadicScalar(1)


def test_coset_run():
    v = span_of([0b001, 0b010])
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
    seq = _mass_sequence(a, trace)
    assert seq[0] == DyadicScalar(5, 4)
    for before, after in zip(seq, seq[1:]):
        assert after > before
    assert seq[-1] == trace.final_bound


def test_full_group_zero_steps():
    trace = run_iteration(full_set(3), max_order=8)
    assert trace.termination is Termination.RESIDUAL_ZERO
    assert len(trace.steps) == 0
    assert trace.final_bound == trace.a_norm == DyadicScalar(1)


def test_iterate_step_zero_residual():
    v = span_of([0b01])
    # {0, 2} is the annihilator coset itself, so the residual vanishes
    a = PointSet.from_points(2, [0, 2])
    with pytest.raises(ZeroResidual):
        fresh_step(a, v)


def test_step_contract_random():
    rng = np.random.default_rng(50)
    done = 0
    while done < 50:
        n = int(rng.integers(2, 9))
        a = random_point_set(rng, n)
        v = random_subspace(rng, n, max_dim=n - 1)
        base = residual_l1(a, v)
        if base.num == 0:
            continue
        done += 1
        st = fresh_step(a, v)
        assert st.l1 == base
        assert st.dim_before == v.dim
        assert st.dim_after == st.v_new.dim > v.dim
        assert v.is_subspace_of(st.v_new)
        # gain >= (1/6)(4/3)^s, cross-multiplied
        assert 6 * (3 ** st.s) * st.gain.num >= (4 ** st.s) * (1 << st.gain.exp)
        growth = st.dim_after - st.dim_before
        assert growth <= iteration.step_ceiling(st.s, st.l1)
        # the chosen band is disjoint from v and drives the gain
        levels = reference_level_sets(table_fwht(*residual(a, v)),
                                      (fwht(a), n), base)
        chosen = [lv for lv in levels if lv.s == st.s]
        assert len(chosen) == 1
        members = set(chosen[0].members)
        assert members.isdisjoint(subspace_elements(v).tolist())
        assert all(st.v_new.contains(g) for g in members)
        assert st.gain >= chosen[0].mass


def test_step_span_growth_inserts_once_per_dimension(monkeypatch):
    # v_new is the span of v and every chosen member, reached with one new
    # basis per added dimension; then the step builds one more, the
    # complement of v in v_new, whose new elements it adds.
    built = []
    real_unchecked = DualSubspace._unchecked.__func__

    def counting_unchecked(cls, basis):
        built.append(len(basis))
        return real_unchecked(cls, basis)

    monkeypatch.setattr(DualSubspace, "_unchecked",
                        classmethod(counting_unchecked))
    rng = np.random.default_rng(53)
    for strategy in ("smallest-s", "best-ratio"):
        for _ in range(30):
            n = int(rng.integers(2, 10))
            a = random_point_set(rng, n)
            v = random_subspace(rng, n, max_dim=n - 1)
            built.clear()
            try:
                st = fresh_step(a, v, strategy)
            except ZeroResidual:
                continue
            grown = st.dim_after - st.dim_before
            assert built == list(range(v.dim + 1, st.dim_after + 1)) + [grown]
            levels = reference_level_sets(table_fwht(*residual(a, v)),
                                          (fwht(a), n), residual_l1(a, v))
            (chosen,) = [lv for lv in levels if lv.s == st.s]
            # one mask at a time, as the reference for the batched growth
            assert st.v_new == functools.reduce(
                lambda w, g: subspace_extend(w, [g]), chosen.members, v)


def _reference_sets():
    """The certify workload's families and densities, some moved by an
    affine map, and one larger coset union."""
    rng = np.random.default_rng(57)
    sets = []
    for family, k, n, moved in (
            ("geometric4", 5, 12, True), ("geometric4", 6, 15, False),
            ("geometric4", 6, 15, True), ("geometric4", 6, 15, True),
            ("geometric4", 7, 14, True), ("geometric4", 5, 16, False),
            ("double_exp", 3, 13, True), ("double_exp", 4, 12, True),
            ("double_exp", 4, 16, False), ("geometric4", 9, 18, False)):
        a, _ = build_coset_union(density_family(family, k), n)
        if moved:
            a = set_translate(set_map_linear(a, random_invertible(rng, n)),
                              int(rng.integers(0, 1 << n)))
        sets.append(a)
    for n, den in ((10, 2), (12, 2), (14, 2), (12, 16), (14, 16)):
        table = np.zeros(1 << n, dtype=np.int64)
        table[rng.permutation(1 << n)[:(1 << n) // den]] = 1
        sets.append(PointSet.from_indicator(n, table))
    return sets


@pytest.mark.parametrize("strategy", ["smallest-s", "best-ratio"])
def test_spectral_step_matches_residual_route(monkeypatch, strategy):
    # The step that reads the levels off the ranking of hat(chi_A) and the
    # norms off incrementally labelled coset counts reproduces the
    # residual-table step's whole trace, each step's ||f_V||_1 included.
    calls = []

    def counted_reference(*args):
        calls.append(args[1].dim)
        return reference_iterate_step(*args)

    long_runs = 0
    for a in _reference_sets():
        order = a.dim.order
        trace = run_iteration(a, max_order=order, strategy=strategy)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(iteration, "iterate_step", counted_reference)
            ref = run_iteration(a, max_order=order, strategy=strategy)
        # The reference ran every step, and the call that found the zero
        # residual.
        expected = [st.dim_before for st in ref.steps]
        if ref.termination is Termination.RESIDUAL_ZERO:
            expected.append(ref.steps[-1].dim_after if ref.steps else 0)
        assert calls == expected, a
        assert trace == ref, a
        long_runs += len(trace.steps) >= 3
    # The coset unions take many steps, so the later steps' incremental
    # labels and exclusions are compared too.
    assert long_runs >= 8


def _trace_key(trace):
    return ([(st.s, st.dim_before, st.dim_after, st.gain, st.l1)
             for st in trace.steps],
            trace.final_bound, trace.termination, trace.a_norm)


def test_trace_invariant_under_affine_maps():
    # x -> Lx + t permutes |hat(chi_A)| through the dual map of L (t only
    # flips signs), so the bands, the chosen levels, the spans' dimensions,
    # the gains and the residual norms (so the ceilings) carry over exactly.
    rng = np.random.default_rng(59)
    sets = [random_point_set(rng, n) for n in range(3, 10) for _ in range(4)]
    for family, k, n in (("geometric4", 2, 4), ("geometric4", 3, 6),
                         ("geometric4", 4, 8), ("geometric4", 5, 10),
                         ("geometric4", 3, 10), ("double_exp", 2, 3),
                         ("double_exp", 3, 4), ("double_exp", 3, 9),
                         ("double_exp", 4, 8), ("double_exp", 4, 10)):
        sets.append(build_coset_union(density_family(family, k), n)[0])
    for a in sets:
        n = a.dim.n
        image = set_translate(set_map_linear(a, random_invertible(rng, n)),
                              int(rng.integers(0, 1 << n)))
        for strategy in ("smallest-s", "best-ratio"):
            for max_order in (2, 1 << (n // 2), 1 << n):
                want = _trace_key(run_iteration(a, max_order, strategy))
                got = _trace_key(run_iteration(image, max_order, strategy))
                assert got == want, (set_points(a), strategy, max_order)


def test_geometric4_n20_trace_pinned():
    # geometric4 k=10 at n=20 (the README's large-n table): 18 one-dimension
    # steps and a last one of two, all in band 0, ending at the exact norm.
    a, _ = build_coset_union(density_family("geometric4", 10), 20)
    trace = run_iteration(a, max_order=1 << 20)
    assert [(st.s, st.dim_before, st.dim_after) for st in trace.steps] == (
        [(0, d, d + 1) for d in range(18)] + [(0, 18, 20)])
    assert trace.termination is Termination.RESIDUAL_ZERO
    assert trace.final_bound == trace.a_norm == DyadicScalar(1864135, 18)


def _one_third_set(n: int) -> PointSet:
    """The coset union at density nearest 1/3: exponents 2, 4, ..., n for
    even n (geometric4, k = n/2) and 2, 4, ..., n - 1, n for odd n."""
    if n % 2 == 0:
        density = density_family("geometric4", n // 2)
    else:
        density = DyadicDensity(tuple(range(2, n, 2)) + (n,))
    return build_coset_union(density, n)[0]


@pytest.mark.parametrize("n", range(2, 17))
def test_one_third_set_closed_form(n):
    # Size (2^n -+ 1)/3 and norm (3n + 4 -+ 2^(2-n))/9, minus for even n,
    # and at max order 2^n the run ends in ResidualZero at that norm.
    a = _one_third_set(n)
    sign = -1 if n % 2 == 0 else 1
    assert a.size == ((1 << n) + sign) // 3
    norm = Fraction(3 * n + 4, 9) + sign * Fraction(4, 9 << n)
    assert set_a_norm(a).as_fraction() == norm
    trace = run_iteration(a, max_order=1 << n)
    assert trace.termination is Termination.RESIDUAL_ZERO
    assert trace.final_bound.as_fraction() == norm


@pytest.fixture(scope="module")
def one_third_n20():
    return _one_third_set(20)


def _traced_peak(fn, *args) -> int:
    """Peak bytes tracemalloc sees above what is held when fn starts."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_fwht_of_a_set_peaks_at_twice_its_output(one_third_n20):
    # The indicator goes into the output from the bitmap and the scratch is
    # one float32 row: 12 MB at n = 20, for an 8 MB int64 output.
    out = fwht(one_third_n20).nbytes
    assert _traced_peak(fwht, one_third_n20) <= 2 * out


def test_run_iteration_working_memory_n20(one_third_n20):
    # 27.0 MB measured above the set, with numpy 2.4: the 20 MB ranking
    # (int32 order, rank and magnitudes, int64 prefix), A's points and
    # labels, V's elements, and a step's scratch.
    peak = _traced_peak(run_iteration, one_third_n20, 1 << 20)
    assert peak <= int(1.1 * 27.0 * 2**20) < 40 * 2**20


def test_complement_completes_the_basis():
    # v's basis plus the complement's rows span v_new with no dependency,
    # so together they label v_new's cosets.
    rng = np.random.default_rng(58)
    for _ in range(300):
        n = int(rng.integers(1, 10))
        v = random_subspace(rng, n)
        v_new = subspace_extend(
            v, [int(g) for g in rng.integers(0, 1 << n, size=3)])
        w = iteration._complement(v, v_new)
        assert DualSubspace(w.basis) == w
        assert w.dim == v_new.dim - v.dim
        assert subspace_extend(v, w.basis) == v_new


def test_parseval_check_catches_dropped_syndrome_row(monkeypatch):
    # Labelling the cosets by all but the last basis row merges cosets in
    # pairs; the counts' ||f_V||_2^2 then disagrees with the spectrum.
    real = iteration.StepState.grow

    def drop_last_row(state, w, dim, ranking, a):
        real(state, w, dim, ranking, a)
        if state.labels is not None and w.dim:
            state.labels &= ~(1 << (dim + w.dim - 1))

    monkeypatch.setattr(iteration.StepState, "grow", drop_last_row)
    a, _ = build_coset_union(density_family("geometric4", 3), 8)
    with pytest.raises(ArithmeticError, match="coset counts"):
        run_iteration(a, max_order=1 << 8)


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


def test_soundness_random():
    rng = np.random.default_rng(52)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        a = random_point_set(rng, n)
        if a.size == 0:
            continue
        trace = run_iteration(a, max_order=1 << n)
        assert trace.final_bound <= trace.a_norm == set_a_norm(a)
        seq = _mass_sequence(a, trace)
        # certified growth: the trace's own floor never overshoots
        gained = trace.final_bound.as_fraction() - seq[0].as_fraction()
        assert gained >= trace.gain_floor()
        assert seq[-1] == trace.final_bound


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
    # Every order 2^d <= 15: rows d = 0..3.
    rows, c_plain, c_scaled = profile_report(DyadicScalar(5, 4), 3)
    assert [product for _, product, _ in rows] == [
        DyadicScalar(55, 8), DyadicScalar(15, 6), DyadicScalar(3, 4),
        DyadicScalar(1, 2)]
    assert c_plain == DyadicScalar(3, 4)
    assert c_scaled == DyadicScalar(55, 8)
    # at max_order 16 the d=4 row appears, where 5/16 * 16 is integral
    rows16, c_plain16, _ = profile_report(DyadicScalar(5, 4), 4)
    assert len(rows16) == 5
    assert c_plain16 == DyadicScalar(0)


def test_hypothesis_families():
    # Every order 2^d <= M is max-dim M.bit_length() - 1.
    twelfth = Fraction(1, 12)
    for k in (1, 2, 3, 4):
        alpha = density_family("geometric4", k).value()
        _, c_plain, _ = profile_report(alpha, (4 ** k - 1).bit_length() - 1)
        assert c_plain.as_fraction() >= twelfth, k
    eighth = Fraction(1, 8)
    for k in (1, 2, 3, 4, 5):
        alpha = density_family("double_exp", k).value()
        m = (1 << (1 << (k - 1))) - 1
        _, _, c_scaled = profile_report(alpha, m.bit_length() - 1)
        assert c_scaled.as_fraction() >= eighth, k
    # exact-density collapse: alpha = 1/2 dies at d = 1
    _, c_plain, _ = profile_report(DyadicScalar(1, 1), 1)
    assert c_plain == DyadicScalar(0)


def test_hypothesis_plain_vs_scaled():
    rng = np.random.default_rng(54)
    for _ in range(100):
        n = int(rng.integers(1, 10))
        alpha = DyadicScalar(int(rng.integers(0, (1 << n) + 1)), n)
        m = int(rng.integers(1, 200))
        rows, c_plain, c_scaled = profile_report(alpha, m.bit_length() - 1)
        assert c_plain <= c_scaled
        assert len(rows) == m.bit_length()
    with pytest.raises(ValueError):
        profile_report(DyadicScalar(1, 1), -1)
