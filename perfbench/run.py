"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from src/.  Each run
starts fresh worker processes (worker.py): with --trace 0, SETUP_REPEATS of
them set up, and the last one also times the workload untraced; --trace 1
starts one that alternates untraced and traced passes and reports the
per-layer metrics.  The run appends a record with the environment to
--results (default .perfbench/results.jsonl) and prints, as its last line,
{"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time

WORKLOADS = ("certify", "search", "verify", "sweep")
SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "cpu_s": "s",
}

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", default=os.path.join(".perfbench",
                                                      "results.jsonl"))
    return p.parse_args(argv)


def _git_head() -> str:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return "unknown"
    if os.path.realpath(lines[0]) != os.path.realpath(os.getcwd()):
        return "unknown"
    return lines[1]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(worker_out: dict) -> dict:
    """What a result depends on besides the code: interpreter, libraries, host."""
    sources = sorted(glob.glob(os.path.join("src", "**", "*.py"),
                               recursive=True))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(path.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "numpy": worker_out.get("numpy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernels_backend": worker_out.get("backend"),
        "F2WIENER_NO_NUMBA": os.environ.get("F2WIENER_NO_NUMBA"),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_head": _git_head(),
        "src_lines": lines,
        "src_sha256": digest.hexdigest(),
    }


def spawn(args, deadline: float, setup_only: bool) -> dict:
    """Run worker.py in a fresh process and return its JSON result."""
    workdir = os.path.join(".perfbench", f"work-{os.getpid()}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    if args.trace:
        cmd += ["--spans", os.path.join(".perfbench",
                                        f"spans-{args.workload}.npz")]
    cmd += ["--launched", repr(time.monotonic())]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "f2wiener", "__init__.py")):
        print("perfbench: src/f2wiener not found; run from the repository "
              "root", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(".perfbench", exist_ok=True)
    try:
        setups = [] if args.trace else [
            spawn(args, deadline, setup_only=True)
            for _ in range(SETUP_REPEATS - 1)]
        out = spawn(args, deadline, setup_only=False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    setup_samples = [s["setup_s"] for s in setups] + [out["setup_s"]]
    warm_ok = not any(s["warmup_problems"] for s in setups + [out])
    if args.trace:
        import tracing

        metrics = {}
        for name, unit in tracing.METRIC_UNITS.items():
            value = out["layer"][name]
            if tracing.is_count(name):
                value = int(value)
            metrics[name] = {"value": value, "unit": unit}
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": out["wall_s"],
            "op_p50_s": out["op_p50_s"],
            "op_tail_s": out["op_tail_s"],
            "peak_rss_mb": out["peak_rss_mb"],
            "cpu_s": out["cpu_s"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "unix_time": time.time(),
        "env": environment(out),
        "metrics": metrics,
        "samples": out["samples"],
        "passes": out["passes"],
        "tail_percentile": out["tail_percentile"],
        "setup_samples": setup_samples,
        "setup_raw_samples": [s["setup_raw_s"] for s in setups + [out]],
        "raw": out["raw"],
        "ref_median_s": out["ref_median_s"],
        "op_walls": out["op_walls"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "fail_ratio": out["failed"] / out["attempted"],
        "failures": out["failures"],
        "warmup_ok": warm_ok,
        "zero_broken": out.get("zero_broken", []),
        "untraced": out.get("untraced", []),
        "cert_digests": out["cert_digests"],
    }
    with open(args.results, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(f"{args.workload} seed={args.seed}: {out['passes']} untraced passes,"
          f" {out['samples']} ops, tail = p{out['tail_percentile']},"
          f" fail_ratio = {record['fail_ratio']:.4g}")
    for msg in out["failures"]:
        print(f"FAILED {msg}")
    for name in record["zero_broken"]:
        print(f"note: {name} was predicted to read 0 on {args.workload}")
    for name in record["untraced"]:
        print(f"note: f2wiener.{name} not found, so not traced")
    print(json.dumps({
        "correct": out["failed"] == 0 and warm_ok,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
