import re

import numpy as np
import pytest

from f2wiener import verify
from f2wiener.chang import RieszProduct
from f2wiener.dyadic import DyadicScalar
from f2wiener.fourier import FunctionTable
from f2wiener.groups import DualSubspace
from f2wiener.verify import (MAX_JOBS, MAX_TRIALS, SUITE_NAMES, _SEED_BLOCK,
                             _trial_rngs, run_suite)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_passes(name):
    res = run_suite(name, trials=25, seed=7)
    assert res.name == name
    assert res.trials == 25
    assert res.ok, res.violations


def test_suite_deterministic():
    a = run_suite("techlem", trials=40, seed=3)
    b = run_suite("techlem", trials=40, seed=3)
    assert a.violations == b.violations
    assert a.ok and b.ok


def test_suite_parallel_matches_serial():
    for name in SUITE_NAMES:
        serial = run_suite(name, trials=8, seed=9, jobs=1)
        parallel = run_suite(name, trials=8, seed=9, jobs=2)
        assert serial.violations == parallel.violations
        assert parallel.ok, name


def test_suite_validation(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(verify, "ProcessPoolExecutor", no_pool)
    with pytest.raises(ValueError):
        run_suite("nosuch", trials=5, seed=0)
    with pytest.raises(ValueError):
        run_suite("tA", trials=0, seed=0)
    with pytest.raises(ValueError):
        run_suite("tA", trials=MAX_TRIALS + 1, seed=0)
    with pytest.raises(ValueError):
        run_suite("tA", trials=8, seed=0, jobs=MAX_JOBS + 1)
    for seed, jobs in ((-1, 1), (-1, 2), (0, 0), (0, -3)):
        with pytest.raises(ValueError):
            run_suite("tA", trials=8, seed=seed, jobs=jobs)


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32, 2**64 + 7,
                                  2**130 + 3])
def test_trial_rngs_match_default_rng(seed):
    # shard starts that are not 0, a block boundary, and the last trial
    spans = [(0, 2), (7, _SEED_BLOCK + 2), (MAX_TRIALS - 3, 3)]
    for start, count in spans:
        seen = []
        for i, rng in _trial_rngs(seed, start, count):
            want = np.random.default_rng([seed, i])
            assert rng.bit_generator.state == want.bit_generator.state, i
            assert rng.integers(0, 1 << 62) == want.integers(0, 1 << 62)
            seen.append(i)
        assert seen == list(range(start, start + count))


def _drop_last_row(original):
    def chang_span(spec, threshold):
        return DualSubspace(original(spec, threshold).basis[:-1])
    return chang_span


def _cap_over_eight(original):
    def chang_cardinality_bound(l1, l2sq, eps):
        return original(l1, l2sq, eps) / 8
    return chang_cardinality_bound


def _one_unit_up(original):
    def residual_l1(fv):
        got = original(fv)
        return DyadicScalar(got.num + 1, got.exp)
    return residual_l1


def _rhs_minus_one(original):
    def frac_quadratic_gap(deltas):
        _, rhs = original(deltas)
        return rhs - 1, rhs
    return frac_quadratic_gap


def _mass_one_unit_off(original):
    def riesz_product(dim, lambdas, eta):
        p = original(dim, lambdas, eta)
        nums = p.table.nums.copy()
        nums[0] += 1
        return RieszProduct(FunctionTable(p.table.dim, nums, p.table.exp),
                            p.lambdas, p.eta)
    return riesz_product


def _floor_one_unit_up(original):
    def physical_lower_bound(alpha, order):
        floor = original(alpha, order)
        return DyadicScalar(floor.num + 1, floor.exp)
    return physical_lower_bound


# What each mutant's violations say: the check that the mutant broke.
_CAUGHT_BY = {
    "chang_span": "outside the span",
    "chang_cardinality_bound": r"span dimension \d+ above the Chang bound",
    "residual_l1": "!= coset closed form",
    "frac_quadratic_gap": r"= g\(1-g\)",
    "riesz_product": "Riesz product mass",
    "physical_lower_bound": "below the floor",
}


@pytest.mark.parametrize("suite, attr, mutate", [
    ("chang", "chang_span", _drop_last_row),
    ("chang", "chang_cardinality_bound", _cap_over_eight),
    ("tA", "residual_l1", _one_unit_up),
    ("techlem", "frac_quadratic_gap", _rhs_minus_one),
    ("beckner", "riesz_product", _mass_one_unit_off),
    ("lem1", "physical_lower_bound", _floor_one_unit_up),
])
def test_suite_catches_mutant(monkeypatch, suite, attr, mutate):
    monkeypatch.setattr(verify, attr, mutate(getattr(verify, attr)))
    res = run_suite(suite, trials=30, seed=11)
    assert res.violations
    assert all(msg.startswith("trial ") and re.search(_CAUGHT_BY[attr], msg)
               for msg in res.violations), res.violations


def test_techlem_mutant_messages_pinned(monkeypatch):
    # Trials must draw what default_rng([seed, i]) draws: any drift in the
    # streams changes these deltas.
    monkeypatch.setattr(verify, "frac_quadratic_gap",
                        _rhs_minus_one(verify.frac_quadratic_gap))
    assert run_suite("techlem", 3, 11).violations == [
        "trial 0: sum(d - d^2) = -63577/82944 < 19367/82944 = g(1-g) "
        "for deltas [Fraction(7, 9), Fraction(19, 32)]",
        "trial 1: sum(d - d^2) = -1625091781/2117840400 < "
        "492748619/2117840400 = g(1-g) for deltas "
        "[Fraction(3, 13), Fraction(53, 60), Fraction(15, 59)]",
        "trial 2: sum(d - d^2) = -661/841 < 180/841 = g(1-g) "
        "for deltas [Fraction(20, 29), Fraction(1, 1)]",
    ]
