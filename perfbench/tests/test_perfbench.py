"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import compare  # noqa: E402
import measure  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from f2wiener import groups, iteration  # noqa: E402
from f2wiener.setfuncs import PointSet, set_a_norm  # noqa: E402


def _small_certify_ops(tmp_path, seed=5):
    ops = workloads.build_certify(seed, str(tmp_path))
    return [op for op in ops if op.n <= 13]


def test_corrupted_expected_value_is_a_failure_not_a_crash(tmp_path):
    ops = _small_certify_ops(tmp_path)[:3]
    ops[1].expected_norm += 1
    log = measure.PassLog()
    measure.run_pass(ops, log, traced=False)
    assert [bool(s.problems) for s in log.samples] == [False, True, False]
    assert "expected" in log.samples[1].problems[0]


def test_raising_op_is_counted_and_the_pass_goes_on(tmp_path):
    ops = _small_certify_ops(tmp_path)[:2]
    os.remove(ops[0].set_path)
    log = measure.PassLog()
    measure.run_pass(ops, log, traced=False)
    assert len(log.samples) == 2
    assert log.samples[0].problems and not log.samples[1].problems


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d, seed in zip(dirs, (7, 7, 8)):
        d.mkdir()
        workloads.build_certify(seed, str(d))
    files = sorted(p.name for p in dirs[0].iterdir())
    assert files == sorted(p.name for p in dirs[1].iterdir())
    assert all((dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes()
               for f in files)
    assert any((dirs[0] / f).read_bytes() != (dirs[2] / f).read_bytes()
               for f in files)
    for build in (workloads.build_search, workloads.build_verify):
        first, second = build(7, str(tmp_path)), build(7, str(tmp_path))
        assert [op.argv for op in first] == [op.argv for op in second]
    a, b = workloads.build_sweep(7, ""), workloads.build_sweep(7, "")
    assert all(np.array_equal(x.offsets, y.offsets) for x, y in zip(a, b))


def test_affine_image_keeps_the_norm():
    rng = np.random.default_rng(0)
    table = np.zeros(64, dtype=np.int64)
    table[rng.permutation(64)[:11]] = 1
    rows = workloads.random_invertible_rows(rng, 6)
    moved = workloads.affine_image(table, 6, rows, 37)
    assert moved.sum() == 11
    assert oracle.set_norm(moved, 6) == oracle.set_norm(table, 6)


def test_self_time_of_nested_spans():
    # Span 0 = [0, 10] has children [1, 3], [2, 4] (overlapping) and
    # [5, 6]; [1.5, 2.5] is a child of [1, 3].
    start = [0.0, 1.0, 1.5, 2.0, 5.0]
    end = [10.0, 3.0, 2.5, 4.0, 6.0]
    parent = [-1, 0, 1, 0, 0]
    own = tracing.self_times(start, end, parent)
    assert own == pytest.approx([10 - 4, 2 - 1, 1, 2, 1])


def test_tracer_counts_and_restores(tmp_path):
    original = iteration.level_sets
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert iteration.level_sets is not original
        tracer.op_id = 0
        ops = _small_certify_ops(tmp_path)[:2]
        log = measure.PassLog()
        measure.run_pass(ops, log, traced=True)
        list(groups.all_subspaces(3))
    finally:
        tracer.uninstall()
    assert iteration.level_sets is original
    metrics = tracing.layer_metrics(tracer, [0])
    assert set(metrics) == set(tracing.METRIC_UNITS) - {
        "trace.overhead_ratio", *tracing.SETUP_METRICS}
    assert metrics["chang.level_sets.calls"] > 0
    assert metrics["fileio.tool_commit.calls"] == 2
    assert metrics["groups.all_subspaces.yielded"] == groups.subspace_count(3)
    assert metrics["fourier.fwht.object_calls"] == 0
    for name, value in metrics.items():
        if name.endswith("self_s"):
            assert value >= 0, name


def test_oracle_agrees_with_the_package():
    rng = np.random.default_rng(3)
    for n in (1, 4, 7):
        table = rng.integers(0, 2, size=1 << n)
        a = PointSet.from_indicator(n, table)
        assert oracle.set_norm(table, n) == set_a_norm(a).as_fraction()
        assert np.array_equal(
            oracle.indicator_from_hex(workloads.bitmap_hex(table), n), table)
    assert [oracle.subspace_total(n) for n in range(1, 9)] == [
        groups.subspace_count(n) for n in range(1, 9)]
    assert oracle.min_set_norm(3, 3) == Fraction(3, 2)
    assert oracle.parse_dyadic("7/2^2") == Fraction(7, 4)


def test_tail_percentile_keeps_ten_samples_above():
    assert measure.tail_percentile(40) == 75
    assert measure.tail_percentile(22) == 54
    for n in (20, 22, 40, 429):
        p = measure.tail_percentile(n)
        values = list(range(n))
        assert sum(v > measure.percentile(values, p) for v in values) >= 10


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert run.WORKLOADS == tracing.WORKLOAD_NAMES
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == (
        tracing.METRIC_UNITS)


def test_run_refuses_a_directory_without_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "verify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _record(wall, digest="d0", seed=1, trace=0, metrics=None):
    env = {"python": "3", "nproc": 2}
    names = metrics or {n: {"value": wall, "unit": u}
                        for n, u in run.E2E_UNITS.items()}
    return {"workload": "certify", "seed": seed, "trace": trace, "env": env,
            "metrics": names, "failed": 0, "attempted": 10,
            "raw": {"wall_s": wall}, "ref_median_s": 0.003,
            "cert_digests": {"op": digest}}


def test_compare_flags_regressions_and_changed_certificates():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    old = [_record(1.0 + i / 100, seed=i) for i in range(5)]
    new = [_record(1.5 + i / 100, seed=i) for i in range(5)]
    new[0]["cert_digests"]["op"] = "d1"
    lines = compare.report(old, new, bench)
    assert any(ln.strip().startswith("wall_s") and "REGRESSION" in ln
               for ln in lines)
    assert any("certificate bytes differ" in ln and "seed 0" in ln
               for ln in lines)
    same = compare.report(old, old, bench)
    assert not any("REGRESSION" in ln or "differ" in ln for ln in same)
