"""Compare two result files written by run.py.

    python3 perfbench/compare.py OLD.jsonl NEW.jsonl [--benchmark BENCHMARK.json]

For each workload it prints every end-to-end metric's median and quartiles
on both sides and flags a median that got worse by more than the bound in
BENCHMARK.json, or a spread wider than the bound (unresolved).  Traced runs
give per-layer medians and deltas, listed with the end-to-end metric each
layer should move.  It also flags environments that differ and certificates
whose bytes (without tool_commit) differ for the same seed.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

import tracing

ENV_KEYS = ("python", "numpy", "numba_importable", "kernels_backend",
            "F2WIENER_NO_NUMBA", "nproc", "cpu_model")


def load(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fmt(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else f"{value:.6g}"


def metric_values(records: Sequence[dict]) -> Dict[Tuple[str, str], List[float]]:
    out: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for rec in records:
        for name, entry in rec["metrics"].items():
            out[rec["workload"], name].append(entry["value"])
    return out


def verdict(old: Sequence[float], new: Sequence[float], better: str,
            bound: float) -> str:
    q1, med, q3 = quartiles(old)
    new_med = quartiles(new)[1]
    worse = new_med > med * (1 + bound) if better == "lower" else (
        new_med < med * (1 - bound))
    if worse:
        return "REGRESSION"
    if med and (q3 - q1) / abs(med) > bound:
        return "unresolved"
    return ""


def env_lines(old: Sequence[dict], new: Sequence[dict]) -> List[str]:
    lines = []
    for key in ENV_KEYS:
        a = sorted({str(r["env"].get(key)) for r in old})
        b = sorted({str(r["env"].get(key)) for r in new})
        if a != b:
            lines.append(f"environment differs: {key} {a} -> {b}")
    return lines


def digest_lines(old: Sequence[dict], new: Sequence[dict]) -> List[str]:
    seen = {(r["workload"], r["seed"]): r.get("cert_digests", {}) for r in old}
    lines = []
    for r in new:
        before = seen.get((r["workload"], r["seed"]))
        if not before:
            continue
        for label, digest in r.get("cert_digests", {}).items():
            if label in before and before[label] != digest:
                lines.append(f"certificate bytes differ: {r['workload']} "
                             f"seed {r['seed']} {label}")
    return lines


def report(old: List[dict], new: List[dict], bench: dict) -> List[str]:
    lines = env_lines(old, new) + digest_lines(old, new)
    plain = [[r for r in side if not r["trace"]] for side in (old, new)]
    traced = [[r for r in side if r["trace"]] for side in (old, new)]
    values = [metric_values(side) for side in plain]
    workloads = sorted({r["workload"] for r in plain[0]}
                       & {r["workload"] for r in plain[1]})
    for w in workloads:
        lines.append(f"== {w}: end to end (median [q1, q3], "
                     f"{sum(r['workload'] == w for r in plain[0])} vs "
                     f"{sum(r['workload'] == w for r in plain[1])} runs)")
        for spec in bench["end_to_end"]:
            name = spec["name"]
            a, b = values[0].get((w, name)), values[1].get((w, name))
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else float("nan")
            flag = verdict(a, b, spec["better"], spec["bound"])
            lines.append(
                f"  {name:12s} {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}] -> "
                f"{qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {change:+.1%} "
                f"(bound {spec['bound']:.0%}) {flag}".rstrip())
        for side, label in ((plain[0], "old"), (plain[1], "new")):
            runs = [r for r in side if r["workload"] == w]
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            raw = statistics.median(r["raw"]["wall_s"] for r in runs)
            ref = statistics.median(r["ref_median_s"] for r in runs)
            lines.append(f"  {label}: fail_ratio {failed}/{attempted}, "
                         f"uncorrected wall_s {raw:.6g}, reference kernel "
                         f"{ref * 1e3:.4g} ms")
    layer = [metric_values(side) for side in traced]
    for w in sorted({r["workload"] for r in traced[0]}
                    & {r["workload"] for r in traced[1]}):
        lines.append(f"== {w}: per layer (median old -> new)")
        for moves, metrics in tracing.LAYERS:
            lines.append(f"  [{moves}]")
            for name, unit in metrics:
                a, b = layer[0].get((w, name)), layer[1].get((w, name))
                if not a or not b:
                    continue
                ma, mb = statistics.median(a), statistics.median(b)
                rel = f" {(mb - ma) / ma:+.1%}" if ma else ""
                lines.append(f"    {name:40s} {fmt(ma)} -> {fmt(mb)} {unit}"
                             f" ({'+' if mb >= ma else '-'}{fmt(abs(mb - ma))}"
                             f"{rel})")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old")
    p.add_argument("new")
    p.add_argument("--benchmark", default="BENCHMARK.json")
    args = p.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as fh:
        bench = json.load(fh)
    lines = report(load(args.old), load(args.new), bench)
    print("\n".join(lines))
    return 1 if any("REGRESSION" in ln for ln in lines) else 0


if __name__ == "__main__":
    sys.exit(main())
