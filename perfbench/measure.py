"""Timing loop, the reference-speed correction, and summary statistics.

A run times whole passes over a workload's fixed op list, one op at a time
in one process (a closed loop with one client).  It starts another pass
while the run has done fewer than the workload's minimum or the last pass
would still fit in the time asked for.  Checks run after each op's timer
stops; an op that raises or fails its check is counted, and the run goes on.

Shared hosts change speed by 20 to 50% over tens of seconds, for every
process alike.  So every REF_CADENCE_S, between ops and inside long ones,
the run times a fixed reference kernel that does not touch the package, and
takes that time out of the op's.  Each op's time is reported at reference
speed: multiplied by REF_NOMINAL_S over the median reference time within
REF_WINDOW_S of the op.  A change to the package leaves the kernel alone and
so moves these times in full; the raw times are kept next to them.
"""
from __future__ import annotations

import bisect
import contextlib
import math
import resource
import signal
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

REF_NOMINAL_S = 0.003
REF_CADENCE_S = 0.25
REF_WINDOW_S = 2.5
REF_BURST = 3


def reference_kernel() -> int:
    """Fixed work shaped like the package's: integer loops, small numpy ops,
    Fraction and big-integer arithmetic, and list and dict churn."""
    total = 0
    for i in range(30000):
        total += i * i
    a = np.arange(4096, dtype=np.int64)
    for _ in range(20):
        a = (a * 3 + 1) & 0xFFFF
    acc = Fraction(0)
    table = {}
    for i in range(1, 400):
        acc += Fraction(i, 1 << (i % 17))
        table[i] = [i] * 3
    big = 3 ** 400
    for i in range(300):
        big = (big * 7 + i) >> 1
    return total + int(a[0]) + int(acc) + len(table) + (big & 1)


class Speedometer:
    """Timed runs of the reference kernel, and the correction they imply.

    The kernel runs between ops once REF_CADENCE_S has passed since the last
    run, and, from a SIGALRM timer armed for the op, every REF_CADENCE_S
    inside an op that lasts longer; ops shorter than that are never
    interrupted.  ``paused`` adds up the time spent in the kernel so that
    run_op can take it out of the op's time.
    """

    def __init__(self):
        self.times: List[float] = []
        self.durations: List[float] = []
        self.paused = 0.0
        self.last = -math.inf
        self._busy = False

    def sample(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        for _ in range(REF_BURST):
            t0 = time.perf_counter()
            reference_kernel()
            t1 = time.perf_counter()
            self.times.append((t0 + t1) / 2)
            self.durations.append(t1 - t0)
        self.last = time.perf_counter()
        self.paused += self.last - start
        self._busy = False

    def sample_if_due(self) -> None:
        if time.perf_counter() - self.last >= REF_CADENCE_S:
            self.sample()

    @contextlib.contextmanager
    def ticking(self):
        """Arm the in-op timer for the duration of the block."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_CADENCE_S, REF_CADENCE_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, t0: float = -math.inf, t1: float = math.inf) -> float:
        """REF_NOMINAL_S over the median reference time near [t0, t1]."""
        lo = bisect.bisect_left(self.times, t0 - REF_WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + REF_WINDOW_S)
        near = self.durations[lo:hi] or self.durations
        return REF_NOMINAL_S / statistics.median(near)


def cpu_now() -> float:
    """CPU seconds of this process plus its waited-for children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


@dataclass
class Sample:
    pass_no: int
    index: int
    start: float
    wall: float
    cpu: float
    problems: List[str]


@dataclass
class PassLog:
    samples: List[Sample] = field(default_factory=list)
    pass_spans: List[tuple] = field(default_factory=list)
    traced: List[bool] = field(default_factory=list)
    speed: Speedometer = field(default_factory=Speedometer)


def run_op(op, pass_no: int, index: int,
           speed: Optional[Speedometer] = None) -> Sample:
    """Time op.run(), then check its result; never raises."""
    paused = speed.paused if speed is not None else 0.0
    ticking = speed.ticking() if speed is not None else contextlib.nullcontext()
    c0 = cpu_now()
    t0 = time.perf_counter()
    try:
        with ticking:
            result = op.run()
        error = None
    except Exception as exc:  # an op failure is data, not a crash
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    cpu = cpu_now() - c0
    if speed is not None:
        wall -= speed.paused - paused
        cpu -= speed.paused - paused
    if error is not None:
        problems = [error]
    else:
        try:
            problems = list(op.check(result))
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    return Sample(pass_no, index, t0, wall, cpu, problems)


def run_pass(ops: Sequence, log: PassLog, traced: bool,
             on_op: Optional[Callable[[int], None]] = None) -> float:
    """One pass over ops; returns its length in seconds, checks included."""
    pass_no = len(log.traced)
    t0 = time.perf_counter()
    log.speed.sample()
    for i, op in enumerate(ops):
        log.speed.sample_if_due()
        if on_op is not None:
            on_op(pass_no * len(ops) + i)
        log.samples.append(run_op(op, pass_no, i, log.speed))
    log.speed.sample()
    t1 = time.perf_counter()
    log.pass_spans.append((t0, t1))
    log.traced.append(traced)
    return t1 - t0


def timed_passes(ops: Sequence, seconds: float, min_passes: int,
                 log: PassLog) -> None:
    """Untraced passes: at least min_passes, more while the next one fits."""
    start = time.perf_counter()
    last = 0.0
    while (len(log.traced) < min_passes
           or time.perf_counter() - start + last <= seconds):
        last = run_pass(ops, log, traced=False)


def tail_percentile(min_samples: int) -> int:
    """Highest whole percentile with at least ten of min_samples above it.

    Fixed per workload from the guaranteed sample count, so runs that
    complete more passes still report the same percentile.
    """
    if min_samples <= 10:
        return 50
    return max(50, math.floor(100 * (min_samples - 10) / min_samples))


def percentile(values: Sequence[float], p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def pass_seconds(log: PassLog, traced: bool, corrected: bool = True,
                 ) -> List[float]:
    """Sum of op times of each pass with the given traced flag."""
    sums: Dict[int, float] = {}
    for s in log.samples:
        if log.traced[s.pass_no] == traced:
            f = log.speed.factor(s.start, s.start + s.wall) if corrected else 1
            sums[s.pass_no] = sums.get(s.pass_no, 0.0) + s.wall * f
    return list(sums.values())


def summarise(log: PassLog, tail_p: int) -> Dict[str, object]:
    """End-to-end figures of the untraced passes, corrected and raw."""
    out: Dict[str, object] = {}
    untraced = [s for s in log.samples if not log.traced[s.pass_no]]
    for corrected in (True, False):
        walls, cpus = [], {}
        for s in untraced:
            f = log.speed.factor(s.start, s.start + s.wall) if corrected else 1
            walls.append(s.wall * f)
            cpus[s.pass_no] = cpus.get(s.pass_no, 0.0) + s.cpu * f
        figures = {
            "wall_s": statistics.median(pass_seconds(log, False, corrected)),
            "op_p50_s": statistics.median(walls),
            "op_tail_s": percentile(walls, tail_p),
            "cpu_s": statistics.median(cpus.values()),
        }
        if corrected:
            out.update(figures)
        else:
            out["raw"] = figures
    out["samples"] = len(untraced)
    out["passes"] = len({s.pass_no for s in untraced})
    out["tail_percentile"] = tail_p
    out["ref_median_s"] = statistics.median(log.speed.durations)
    return out
