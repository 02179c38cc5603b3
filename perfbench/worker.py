"""One workload in one fresh process: set up, warm up, then time passes.

Started by run.py from the repository root, which holds the package under
src/.  Set-up time runs from the parent's launch timestamp (CLOCK_MONOTONIC
is shared by all processes) to the end of the untimed warm-up op, so it
covers interpreter start, imports, input generation and the warm-up.  The
last line of stdout is one JSON object for run.py.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

import measure
import tracing

SETUP_OP = -1
WARMUP_OP = -2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--launched", type=float, required=True,
                   help="time.monotonic() when the parent started this process")
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans", help="where a traced run saves its spans")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def traced_passes(ops, seconds, tracer, log):
    """Pairs of one untraced and one traced pass; layer metrics per traced pass.

    Times are corrected to reference speed with the traced pass's factor.
    """
    per_pass = []
    start = time.perf_counter()
    last = 0.0
    while not per_pass or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        measure.run_pass(ops, log, traced=False)
        pass_no = len(log.traced)
        tracer.counters.clear()
        tracer.install()
        try:
            measure.run_pass(ops, log, traced=True,
                             on_op=lambda op_id: setattr(tracer, "op_id", op_id))
        finally:
            tracer.uninstall()
        first = pass_no * len(ops)
        metrics = tracing.layer_metrics(tracer, range(first, first + len(ops)))
        f = log.speed.factor(*log.pass_spans[pass_no])
        per_pass.append({name: value * f if tracing.METRIC_UNITS[name] == "s"
                         else value for name, value in metrics.items()})
        last = time.perf_counter() - t0
    metrics = {name: statistics.median(m[name] for m in per_pass)
               for name in per_pass[0]}
    metrics["trace.overhead_ratio"] = (
        statistics.median(measure.pass_seconds(log, True))
        / statistics.median(measure.pass_seconds(log, False)))
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.abspath("src"))
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.op_id = SETUP_OP
        tracer.install()
    import numpy as np
    import workloads
    from f2wiener import _kernels

    builder, min_passes = workloads.WORKLOADS[args.workload]
    os.makedirs(args.workdir)
    try:
        ops = builder(args.seed, args.workdir)
        if tracer is not None:
            tracer.op_id = WARMUP_OP
        warm = measure.run_op(workloads.warmup_op(ops), -1, 0)
        setup_raw = time.monotonic() - args.launched
        log = measure.PassLog()
        log.speed.sample()
        log.speed.sample()
        setup_factor = log.speed.factor()
        out = {"setup_s": setup_raw * setup_factor, "setup_raw_s": setup_raw,
               "warmup_problems": warm.problems}
        if not args.setup_only:
            if tracer is None:
                measure.timed_passes(ops, args.seconds, min_passes, log)
            else:
                tracer.uninstall()
                out["layer"] = traced_passes(ops, args.seconds, tracer, log)
                for name, value in tracing.setup_metrics(tracer,
                                                         SETUP_OP).items():
                    out["layer"][name] = value * setup_factor
                out["zero_broken"] = tracing.zero_predictions(args.workload,
                                                              out["layer"])
                out["untraced"] = sorted(tracer.missing)
                if args.spans:
                    tracer.save(args.spans)
            tail_p = measure.tail_percentile(min_passes * len(ops))
            out.update(measure.summarise(log, tail_p))
            failed = [s for s in log.samples if s.problems]
            out["attempted"] = len(log.samples)
            out["failed"] = len(failed)
            out["failures"] = [f"{ops[s.index].label}: {s.problems[0]}"
                               for s in failed[:10]]
            out["op_walls"] = [[s.pass_no, s.index, s.wall]
                               for s in log.samples]
            out["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
            out["cert_digests"] = {op.label: op.digest() for op in ops
                                   if hasattr(op, "digest")}
        out["backend"] = _kernels.BACKEND
        out["numpy"] = np.__version__
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
