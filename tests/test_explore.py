import csv

import numpy as np
import pytest

from f2wiener import explore
from f2wiener.dyadic import DyadicScalar
from f2wiener.explore import (AnnealParams, BudgetExceeded, CSV_COLUMNS,
                              MAX_ANNEAL_STEPS, append_record,
                              min_norm_anneal, min_norm_exhaustive)
from f2wiener.setfuncs import set_a_norm

from _reference import (brute_exhaustive_scan, brute_min_norm,
                        random_invertible, set_map_linear, set_points,
                        set_translate)


def test_exhaustive_matches_brute():
    for n in (2, 3):
        for size in range(1, (1 << n) + 1):
            rec = min_norm_exhaustive(n, size)
            best, witnesses = brute_min_norm(n, size)
            assert rec.best_norm.as_fraction() == best, (n, size)
            assert tuple(set_points(rec.best_set)) in witnesses
            assert set_a_norm(rec.best_set) == rec.best_norm


def test_exhaustive_frozen_n2():
    assert min_norm_exhaustive(2, 2).best_norm == DyadicScalar(1)
    rec = min_norm_exhaustive(2, 3)
    assert rec.best_norm == DyadicScalar(3, 1)
    assert rec.best_set.set_hex() == "7"
    assert rec.evaluations == 2  # C(2, 1): {0,1} fixed, one free slot
    assert min_norm_exhaustive(2, 4).best_norm == DyadicScalar(1)


def _check_against_scan(n, size, scan):
    totals = [t for _, t in scan]
    first = totals.index(min(totals))
    rec = min_norm_exhaustive(n, size)
    assert rec.evaluations == len(scan), (n, size)
    assert rec.best_norm == DyadicScalar(totals[first], n), (n, size)
    assert tuple(set_points(rec.best_set)) == tuple(sorted(scan[first][0]))


def test_exhaustive_matches_per_candidate_scan():
    # Every size at n <= 4; at n = 5 the size-6 scan spans several chunks.
    for n in range(1, 5):
        for size in range(1, (1 << n) + 1):
            _check_against_scan(n, size, brute_exhaustive_scan(n, size))
    for size in (1, 2, 6, 31):
        scan = brute_exhaustive_scan(5, size)
        if size == 6:
            assert len(scan) > 3 * (explore._CHUNK_ENTRIES >> 5)
        _check_against_scan(5, size, scan)


def test_exhaustive_first_minimum_across_chunks(monkeypatch):
    n, size = 4, 5
    scan = brute_exhaustive_scan(n, size)
    totals = [t for _, t in scan]
    hits = [i for i, t in enumerate(totals) if t == min(totals)]
    first, second = hits[0], hits[1]
    # rows = second puts the next equal minimum at the head of the second
    # chunk, where it is that chunk's argmin; the others move the boundary
    # around it.
    for rows in (1, 2, 3, first + 1, second, second - first, len(scan) - 1):
        monkeypatch.setattr(explore, "_CHUNK_ENTRIES", rows << n)
        _check_against_scan(n, size, scan)


def test_exhaustive_validation():
    with pytest.raises(ValueError):
        min_norm_exhaustive(2, 0)
    with pytest.raises(ValueError):
        min_norm_exhaustive(2, 5)
    with pytest.raises(BudgetExceeded):
        min_norm_exhaustive(5, 16, budget=1000)


def test_anneal_matches_exhaustive():
    params = AnnealParams(steps=2000)
    for n in (2, 3):
        for size in range(1, 1 << n):
            target = min_norm_exhaustive(n, size).best_norm
            hits = []
            for seed in range(5):
                rec = min_norm_anneal(n, size, params, seed=seed)
                assert rec.best_norm >= target  # never below the exact floor
                hits.append(rec.best_norm == target)
            assert any(hits), (n, size)


def test_anneal_deterministic():
    params = AnnealParams(steps=500)
    a = min_norm_anneal(4, 5, params, seed=11)
    b = min_norm_anneal(4, 5, params, seed=11)
    assert a.best_set == b.best_set
    assert a.best_norm == b.best_norm
    assert a.evaluations == b.evaluations == 501
    c = min_norm_anneal(4, 5, params, seed=12)
    assert c.best_norm >= min_norm_exhaustive(4, 5).best_norm


def test_anneal_validation():
    with pytest.raises(ValueError):
        min_norm_anneal(3, 0)
    with pytest.raises(ValueError):
        min_norm_anneal(3, 8)


def test_anneal_params_validation():
    nan, inf = float("nan"), float("inf")
    for bad in (dict(t0=0), dict(t0=-1.0), dict(t0=nan), dict(t0=inf),
                dict(t0="1"), dict(cooling=0), dict(cooling=-1.0),
                dict(cooling=1.5), dict(cooling=nan), dict(steps=-1),
                dict(steps=MAX_ANNEAL_STEPS + 1), dict(steps=2.0),
                dict(steps="abc")):
        with pytest.raises(ValueError):
            min_norm_anneal(4, 5, AnnealParams(**bad))
    assert AnnealParams(t0=1e-300, cooling=1, steps=MAX_ANNEAL_STEPS)
    assert min_norm_anneal(4, 5, AnnealParams(steps=0), seed=2).evaluations == 1


def test_anneal_temperature_underflow():
    # cooling 0.3 takes temp to exactly 0.0 within the run; uphill moves
    # are then rejected rather than dividing by zero.
    rec = min_norm_anneal(4, 5, AnnealParams(cooling=0.3, steps=2000), seed=0)
    assert rec.best_norm >= min_norm_exhaustive(4, 5).best_norm
    assert rec.evaluations == 2001


def test_norm_is_affine_invariant_in_search_space():
    # the pruning in the exhaustive search rests on this
    rng = np.random.default_rng(60)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        rec = min_norm_exhaustive(n, int(rng.integers(1, (1 << n) + 1)))
        rows = random_invertible(rng, n)
        off = int(rng.integers(0, 1 << n))
        moved = set_translate(set_map_linear(rec.best_set, rows), off)
        assert set_a_norm(moved) == rec.best_norm


def test_append_record(tmp_path):
    path = tmp_path / "ledger.csv"
    rec1 = min_norm_exhaustive(2, 3)
    rec2 = min_norm_anneal(3, 3, AnnealParams(steps=200), seed=5)
    append_record(str(path), rec1)
    append_record(str(path), rec2)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 3
    assert rows[1][:4] == ["2", "3", "exhaustive", "0"]
    assert rows[1][4:6] == ["3", "1"]  # 3/2^1
    assert rows[1][6] == "7"
    assert rows[2][2] == "anneal"
    assert int(rows[2][7]) == 201
