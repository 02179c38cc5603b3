"""End-to-end acceptance gate.

Each test covers one numbered criterion, prints one PASS line (visible
under pytest -s), and enforces the stated runtime budget with a
monotonic-clock assertion.  All numeric checks are exact unless a float
tolerance is called out in the assertion itself.
"""
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from f2wiener import _kernels
from f2wiener.constructions import (DyadicDensity, build_coset_union,
                                    density_family)
from f2wiener.dyadic import DyadicScalar
from f2wiener.explore import AnnealParams, min_norm_anneal, min_norm_exhaustive
from f2wiener.fourier import fwht
from f2wiener.groups import (annihilator_basis, subspace_batches,
                             subspace_count)
from f2wiener.iteration import Termination, run_iteration, step_ceiling
from f2wiener.setfuncs import (PointSet, frac_quadratic_gap,
                               physical_lower_bound, residual_l1, set_a_norm)
from f2wiener.verify import BECKNER_SLACK, run_suite

import _reference
from _reference import (brute_min_norm, build_equality_case, fresh_step,
                        random_point_set, random_subspace,
                        reference_level_sets, set_points, stack_rows,
                        stacked_l1_and_floor)


def _report(k: int) -> None:
    print(f"criterion {k}: PASS")


def _doubled(bases: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Row i: first[i] XOR every subset sum of the vectors in bases[i]."""
    out = np.empty((len(bases), 1 << bases.shape[1]), dtype=np.int64)
    out[:, 0] = first
    for k in range(bases.shape[1]):
        half = 1 << k
        np.bitwise_xor(out[:, :half], bases[:, k, None],
                       out=out[:, half:2 * half])
    return out


def test_criterion_01_coset_norm_sweep():
    # every subspace V of F2^n for n <= 8, each with a random offset: the
    # indicator of the coset of V's annihilator has Wiener norm exactly 1,
    # and its spectrum is supported exactly on V
    start = time.monotonic()
    rng = np.random.default_rng(101)
    checked = 0
    for n in range(1, 9):
        order = 1 << n
        offsets = rng.integers(0, order, size=subspace_count(n))
        seen = 0
        for rows, anns in subspace_batches(n):
            fill = len(rows)
            pts = _doubled(anns, offsets[seen:seen + fill])
            members = _doubled(rows, 0)
            # scatter through flat indices; row i starts at i * order
            base = order * np.arange(fill)[:, None]
            buf = np.zeros((fill, order), dtype=np.int64)
            buf.reshape(-1)[(pts + base).reshape(-1)] = 1
            support = np.zeros((fill, order), dtype=bool)
            support.reshape(-1)[(members + base).reshape(-1)] = True
            _kernels.wht_rows(buf)
            assert (np.abs(buf).sum(axis=1) == order).all()
            assert ((buf != 0) == support).all()
            seen += fill
        assert seen == subspace_count(n)
        checked += seen
    assert checked == sum(subspace_count(n) for n in range(1, 9))
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.2f}s"
    _report(1)


def test_criterion_02_construction_bounds():
    start = time.monotonic()
    for k in range(1, 6):
        a, w = build_coset_union(density_family("geometric4", k), 2 * k)
        norm = set_a_norm(a)
        assert DyadicScalar(k, 1) <= norm <= DyadicScalar(k), k
        spec = fwht(a)
        prev = frozenset({0})
        for i, lam in enumerate(w.lambdas, start=1):
            cur = frozenset(_reference.subspace_elements(lam).tolist())
            for g in cur - prev:
                c = DyadicScalar(int(spec[g]), 2 * k)
                # |coeff| >= (2/3) 4^-i, cross-multiplied
                assert 3 * abs(c.num) * (4 ** i) >= 2 * (1 << c.exp), (k, i)
            prev = cur
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"criterion 2 took {elapsed:.2f}s"
    _report(2)


def test_criterion_03_hypothesis_constants():
    twelfth = Fraction(1, 12)
    for k in range(1, 6):
        alpha = density_family("geometric4", k).value()
        # every order 2^d <= 4^k - 1, as the profile command prints them
        _, c_plain, _ = _reference.profile_report(alpha, 2 * k - 1)
        assert c_plain.as_fraction() >= twelfth, k
    for k in range(1, 6):
        alpha = density_family("double_exp", k).value()
        assert DyadicScalar(1, 1) <= alpha <= DyadicScalar(7, 3)
        # orders |V| = 2^d <= 2^(2^(k-1)) - 1, i.e. d < 2^(k-1)
        for d in range(1 << (k - 1)):
            t = alpha.mul_pow2(d).frac().as_fraction()
            assert t <= Fraction(7, 8), (k, d)
            if d >= 1:
                assert t >= Fraction(1, 1 << d), (k, d)
            else:
                # at |V| = 1 the lower bound would read alpha >= 1, which no
                # density reaches; the exact value alpha >= 1/2 is what holds
                assert t == alpha.as_fraction() >= Fraction(1, 2)
    _report(3)


def _ta_lem1_trials():
    """One shared pass for criteria 4 and 5: same pairs, both lemmas.

    The identity ||f_V||_1 = 2 <chi_A, f_V> is checked on each pair's
    reference table, whose l1 must also be the package's from coset
    counts; Lemma 1's floor is checked against that l1."""
    start = time.monotonic()
    rng = np.random.default_rng(104)
    identity_bad = []
    floor_bad = []
    for n in range(4, 13):
        for _ in range(5):
            pairs = [(random_point_set(rng, n), random_subspace(rng, n))
                     for _ in range(100)]
            ind, chars = stack_rows(*zip(*pairs))
            got, got_exp, dims = residual_l1(ind, chars)
            sizes = ind.sum(axis=1)
            floor, floor_exp = physical_lower_bound(sizes, n, dims)
            for t, (a, v) in enumerate(pairs):
                nums, exp = _reference.residual(a, v)
                nums = nums.tolist()
                direct = sum(abs(x) for x in nums)
                doubled = 2 * sum(x for x, x_in in zip(nums, ind[t]) if x_in)
                l1 = DyadicScalar(direct, exp + n)
                if direct != doubled or l1 != DyadicScalar(
                        int(got[t]), int(got_exp[t])):
                    identity_bad.append((n, a.size, v.dim))
                if l1 < DyadicScalar(int(floor[t]), int(floor_exp[t])):
                    floor_bad.append((n, a.size, v.dim))
    return identity_bad, floor_bad, time.monotonic() - start


_SHARED = {}


def _shared_trials():
    if "ta" not in _SHARED:
        _SHARED["ta"] = _ta_lem1_trials()
    return _SHARED["ta"]


def test_criterion_04_residual_identity():
    identity_bad, _, elapsed = _shared_trials()
    assert identity_bad == []
    assert elapsed < 60.0, f"criterion 4 took {elapsed:.2f}s"
    _report(4)


def test_criterion_05_floor_and_sharpness():
    _, floor_bad, _ = _shared_trials()
    assert floor_bad == []
    rng = np.random.default_rng(105)
    for _ in range(100):
        n = int(rng.integers(1, 11))
        v = random_subspace(rng, n)
        alpha = DyadicScalar(int(rng.integers(0, (1 << n) + 1)), n)
        a = build_equality_case(alpha, v, n)
        assert a.density() == alpha
        if a.size == 0:
            continue
        got, floor = stacked_l1_and_floor(a, v)
        assert got == floor
    _report(5)


def test_criterion_06_quadratic_gap():
    rng = np.random.default_rng(106)
    trials = 10_000
    nums = np.zeros((trials, 8), dtype=np.int64)
    dens = np.ones((trials, 8), dtype=np.int64)
    m = np.zeros(trials, dtype=np.int64)
    for t in range(trials):
        m[t] = int(rng.integers(1, 9))
        for i in range(m[t]):
            dens[t, i] = int(rng.integers(1, 65))
            nums[t, i] = int(rng.integers(0, dens[t, i] + 1))
    lhs, rhs, _ = frac_quadratic_gap(nums, dens, m)
    assert all(left >= right for left, right in zip(lhs, rhs))
    # equality: 0/1 vectors make both sides vanish
    bits = (np.arange(16)[:, None] >> np.arange(4)) & 1
    lhs, rhs, _ = frac_quadratic_gap(bits, np.ones_like(bits), [4] * 16)
    assert lhs == rhs == [0] * 16
    # equality: singletons
    nums = np.zeros((200, 1), dtype=np.int64)
    dens = np.ones((200, 1), dtype=np.int64)
    for t in range(200):
        dens[t, 0] = int(rng.integers(1, 65))
        nums[t, 0] = int(rng.integers(0, dens[t, 0] + 1))
    lhs, rhs, _ = frac_quadratic_gap(nums, dens, [1] * 200)
    assert lhs == rhs
    _report(6)


def test_criterion_07_step_contract():
    start = time.monotonic()
    rng = np.random.default_rng(107)
    done = 0
    while done < 500:
        n = int(rng.integers(2, 11))
        a = random_point_set(rng, n)
        v = random_subspace(rng, n, max_dim=n - 1)
        fv = _reference.residual(a, v)
        base = _reference.residual_l1(a, v)
        if base.num == 0:
            continue
        done += 1
        st = fresh_step(a, v)
        # gain >= (1/6)(4/3)^s exactly
        assert (6 * (3 ** st.s) * st.gain.num
                >= (4 ** st.s) * (1 << st.gain.exp))
        # the chosen band avoids v entirely
        levels = reference_level_sets(_reference.table_fwht(*fv),
                                      (fwht(a), n), base)
        members = next(lv.members for lv in levels if lv.s == st.s)
        velems = set(_reference.subspace_elements(v).tolist())
        assert velems.isdisjoint(members)
        # dimension growth stays under 4e 4^s max(ln(l2^2/l1^2), 1)
        ratio = (_reference.table_l2_sq(*fv).as_fraction()
                 / base.as_fraction() ** 2)
        ceiling = (4 * math.e * (4 ** st.s)
                   * max(math.log(ratio.numerator)
                         - math.log(ratio.denominator), 1.0))
        growth = st.dim_after - st.dim_before
        assert growth <= ceiling
        assert step_ceiling(st.s, st.l1) == pytest.approx(ceiling, rel=1e-12)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"criterion 7 took {elapsed:.2f}s"
    _report(7)


def test_criterion_08_certificate_soundness():
    rng = np.random.default_rng(108)
    # constructed families
    for kind in ("geometric4", "double_exp"):
        for k in (1, 2, 3):
            density = density_family(kind, k)
            n = max(2 * k, density.exponents[-1] + 1)
            a, _ = build_coset_union(density, n)
            trace = run_iteration(a, max_order=1 << n)
            assert trace.final_bound == trace.a_norm
            assert trace.termination is Termination.RESIDUAL_ZERO
    custom, _ = build_coset_union(DyadicDensity((1, 3)), 4)
    trace = run_iteration(custom, max_order=16)
    assert trace.final_bound == trace.a_norm
    # halfspaces: one character level, immediate equality
    for n in range(1, 7):
        g = int(rng.integers(1, 1 << n))
        b = int(rng.integers(0, 2))
        pts = [x for x in range(1 << n)
               if bin(x & g).count("1") % 2 == b]
        trace = run_iteration(PointSet.from_points(n, pts), max_order=1 << n)
        assert trace.termination is Termination.RESIDUAL_ZERO
        assert trace.final_bound == trace.a_norm == DyadicScalar(1)
    # single cosets
    for _ in range(20):
        n = int(rng.integers(1, 9))
        v = random_subspace(rng, n)
        pts = [0]
        for bvec in annihilator_basis(v, n):
            pts = pts + [p ^ bvec for p in pts]
        off = int(rng.integers(0, 1 << n))
        a = PointSet.from_points(n, [p ^ off for p in pts])
        trace = run_iteration(a, max_order=1 << n)
        assert trace.termination is Termination.RESIDUAL_ZERO
        assert trace.final_bound == trace.a_norm == DyadicScalar(1)
    # random sets: unconditional soundness
    for _ in range(100):
        n = int(rng.integers(1, 9))
        a = random_point_set(rng, n)
        if a.size == 0:
            continue
        trace = run_iteration(a, max_order=1 << n)
        assert trace.final_bound <= trace.a_norm == set_a_norm(a)
        if trace.termination is Termination.RESIDUAL_ZERO:
            assert trace.final_bound == trace.a_norm
    _report(8)


def test_criterion_09_chang_beckner_suites():
    assert BECKNER_SLACK == 1e-9
    chang = run_suite("chang", trials=500, seed=109)
    assert chang.ok, chang.violations[:3]
    beckner = run_suite("beckner", trials=500, seed=209)
    assert beckner.ok, beckner.violations[:3]
    _report(9)


def test_criterion_10_explorer_oracle():
    start = time.monotonic()
    params = AnnealParams(steps=2000)
    for n in (2, 3):
        order = 1 << n
        for size in range(1, order + 1):
            rec = min_norm_exhaustive(n, size)
            best, witnesses = brute_min_norm(n, size)
            assert rec.best_norm.as_fraction() == best, (n, size)
            assert tuple(set_points(rec.best_set)) in witnesses
            if size < order:
                anneal_norms = [
                    min_norm_anneal(n, size, params, seed=s).best_norm
                    for s in range(5)
                ]
                assert all(x >= rec.best_norm for x in anneal_norms)
                assert rec.best_norm in anneal_norms, (n, size)
    assert min_norm_exhaustive(2, 3).best_norm == DyadicScalar(3, 1)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"criterion 10 took {elapsed:.2f}s"
    _report(10)
