import pytest

from f2wiener import verify
from f2wiener.dyadic import DyadicScalar
from f2wiener.groups import DualSubspace
from f2wiener.verify import MAX_JOBS, MAX_TRIALS, SUITE_NAMES, run_suite


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


def test_suite_validation():
    with pytest.raises(ValueError):
        run_suite("nosuch", trials=5, seed=0)
    with pytest.raises(ValueError):
        run_suite("tA", trials=0, seed=0)
    with pytest.raises(ValueError):
        run_suite("tA", trials=MAX_TRIALS + 1, seed=0)
    with pytest.raises(ValueError):
        run_suite("tA", trials=8, seed=0, jobs=MAX_JOBS + 1)


def _drop_last_row(original):
    def chang_span(spec, threshold):
        w, bound = original(spec, threshold)
        return DualSubspace(w.basis[:-1]), bound
    return chang_span


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


@pytest.mark.parametrize("suite, attr, mutate", [
    ("chang", "chang_span", _drop_last_row),
    ("tA", "residual_l1", _one_unit_up),
    ("techlem", "frac_quadratic_gap", _rhs_minus_one),
])
def test_suite_catches_mutant(monkeypatch, suite, attr, mutate):
    monkeypatch.setattr(verify, attr, mutate(getattr(verify, attr)))
    res = run_suite(suite, trials=30, seed=11)
    assert res.violations
    assert all(msg.startswith("trial ") for msg in res.violations)
