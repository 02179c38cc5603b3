"""Spans around the package's public functions, and the layer metrics.

``Tracer.install`` replaces each traced function with a wrapper under every
name a caller looks it up by (``iteration.level_sets``, ``cli.run_iteration``,
``_kernels.wht_rows`` ...) and ``uninstall`` puts the originals back.  A span
records its name, start, end, parent span and op id in flat arrays that stay
in memory until ``save``.  A span's self time is its duration minus the part
of it that its child spans cover.  The reference kernel that measure.py runs
inside ops longer than 0.25 s lands in whatever span is open (under 4%).

``LAYERS`` maps every per-layer metric to the end-to-end metric and workload
it should move; ``ZERO_ON`` lists where a metric is predicted to read 0.
Metric names use ``kernels`` for ``f2wiener._kernels`` because a metric name
must start with a letter.
"""
from __future__ import annotations

import functools
import importlib
import os
from array import array
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

# (what the metrics move, [(metric, unit), ...]); order is report order.
LAYERS: Tuple[Tuple[str, Tuple[Tuple[str, str], ...]], ...] = (
    ("wall_s, op_p50_s, op_tail_s on certify; 0 elsewhere", (
        ("chang.level_sets.calls", "count"),
        ("chang.level_sets.coeffs", "count"),
        ("chang.level_sets.levels", "count"),
        ("chang.level_sets.self_s", "s"),
        ("chang.select_level.s", "s"),
        ("chang.chosen_ratio", "ratio"))),
    ("op_tail_s on certify, wall_s on verify", (
        ("fourier.fwht.calls", "count"),
        ("fourier.fwht.entries", "count"),
        ("fourier.fwht.object_calls", "count"),
        ("fourier.fwht.self_s", "s"),
        ("fourier.inverse_fwht.calls", "count"),
        ("fourier.inverse_fwht.self_s", "s"),
        ("fourier.norms.calls", "count"),
        ("fourier.norms.s", "s"))),
    ("op_tail_s on certify, wall_s on verify (tA, lem1)", (
        ("setfuncs.residual.calls", "count"),
        ("setfuncs.residual.entries", "count"),
        ("setfuncs.residual.s", "s"),
        ("setfuncs.residual_l1.s", "s"),
        ("setfuncs.set_a_norm.calls", "count"),
        ("setfuncs.set_a_norm.self_s", "s"))),
    ("wall_s, op_tail_s on certify only", (
        ("iteration.run_iteration.self_s", "s"),
        ("iteration.iterate_step.calls", "count"),
        ("iteration.iterate_step.self_s", "s"),
        ("iteration.dims_added", "count"),
        ("iteration.hypothesis_check.s", "s"))),
    ("wall_s on certify and verify", (
        ("groups.subspace_insert.calls", "count"),
        ("groups.subspace_insert.s", "s"),
        ("groups.elements.calls", "count"),
        ("groups.elements.entries", "count"),
        ("groups.elements.s", "s"),
        ("groups.coset_index_table.calls", "count"),
        ("groups.coset_index_table.s", "s"))),
    ("wall_s on sweep only", (
        ("groups.all_subspaces.yielded", "count"),
        ("groups.all_subspaces.s", "s"),
        ("groups.annihilator_basis.calls", "count"),
        ("groups.annihilator_basis.s", "s"))),
    ("wall_s on sweep and search (exhaustive)", (
        ("kernels.wht_rows.calls", "count"),
        ("kernels.wht_rows.rows", "count"),
        ("kernels.wht_rows.entries", "count"),
        ("kernels.wht_rows.s", "s"),
        ("kernels.wht_rows.bytes_computed", "B"))),
    ("wall_s on search only", (
        ("kernels.anneal_sweep.calls", "count"),
        ("kernels.anneal_sweep.proposals", "count"),
        ("kernels.anneal_sweep.s", "s"),
        ("explore.min_norm_exhaustive.candidates", "count"),
        ("explore.min_norm_exhaustive.self_s", "s"),
        ("explore.min_norm_anneal.self_s", "s"))),
    ("wall_s on verify", (
        ("verify.trials", "count"),
        ("verify.suite.tA.s", "s"),
        ("verify.suite.lem1.s", "s"),
        ("verify.suite.techlem.s", "s"),
        ("verify.suite.beckner.s", "s"),
        ("verify.suite.chang.s", "s"),
        ("chang.chang_span.calls", "count"),
        ("chang.chang_span.self_s", "s"),
        ("chang.riesz_product.s", "s"),
        ("chang.beckner_verify.self_s", "s"))),
    ("op_p50_s on certify (fixed cost per op)", (
        ("fileio.read_set_file.s", "s"),
        ("fileio.tool_commit.calls", "count"),
        ("fileio.tool_commit.s", "s"),
        ("fileio.certificate_payload.self_s", "s"),
        ("fileio.write_certificate.s", "s"),
        ("fileio.write_certificate.bytes", "B"),
        ("fileio.check_certificate.self_s", "s"),
        ("cli.main.self_s", "s"))),
    ("setup_s only (inputs are built before timing)", (
        ("constructions.build_coset_union.s", "s"),)),
    ("traced wall_s / untraced wall_s, per workload", (
        ("trace.overhead_ratio", "ratio"),)),
)

METRIC_UNITS: Dict[str, str] = {
    name: unit for _, metrics in LAYERS for name, unit in metrics}

WORKLOAD_NAMES = ("certify", "search", "verify", "sweep")

ZERO_ON: Dict[str, Tuple[str, ...]] = {
    "chang.level_sets.calls": ("search", "verify", "sweep"),
    "kernels.anneal_sweep.calls": ("certify", "verify", "sweep"),
    "groups.all_subspaces.yielded": ("certify", "search", "verify"),
    "fourier.fwht.object_calls": WORKLOAD_NAMES,
}

# Traced functions that return generators; their spans cover each next().
GENERATORS = ("groups.all_subspaces",)

# Metrics taken from the set-up phase instead of the traced passes.
SETUP_METRICS = ("constructions.build_coset_union.s",)


def _table_entries(tracer, args, kwargs, result):
    tracer.counters["fourier.fwht.entries"] += len(args[0])


def _level_counts(tracer, args, kwargs, result):
    tracer.counters["chang.level_sets.levels"] += len(result)
    tracer.counters["chang.level_sets.coeffs"] += sum(
        len(lv.members) for lv in result)


def _chosen_count(tracer, args, kwargs, result):
    tracer.counters["chang.select_level.chosen"] += len(result.members)


def _dims_added(tracer, args, kwargs, result):
    tracer.counters["iteration.dims_added"] += (result.dim_after
                                                - result.dim_before)


def _residual_entries(tracer, args, kwargs, result):
    tracer.counters["setfuncs.residual.entries"] += len(result.table)


def _element_count(tracer, args, kwargs, result):
    tracer.counters["groups.elements.entries"] += len(result)


def _wht_counts(tracer, args, kwargs, result):
    mat = args[0]
    rows, cols = mat.shape
    c = tracer.counters
    c["kernels.wht_rows.rows"] += rows
    c["kernels.wht_rows.entries"] += mat.size
    # Computed, not measured: each butterfly stage reads and writes the
    # whole matrix once.
    c["kernels.wht_rows.bytes_computed"] += (
        2 * mat.size * mat.itemsize * max(0, cols.bit_length() - 1))
    if mat.dtype == object and tracer.parent_name() == "fourier.fwht":
        c["fourier.fwht.object_calls"] += 1


def _proposals(tracer, args, kwargs, result):
    tracer.counters["kernels.anneal_sweep.proposals"] += len(args[3])


def _candidates(tracer, args, kwargs, result):
    tracer.counters["explore.min_norm_exhaustive.candidates"] += (
        result.evaluations)


def _trials(tracer, args, kwargs, result):
    tracer.counters["verify.trials"] += result.trials


def _cert_bytes(tracer, args, kwargs, result):
    tracer.counters["fileio.write_certificate.bytes"] += os.path.getsize(
        args[0])


# (span name, [(module, attribute), ...], count hook).  The attribute is
# patched on the module a caller looks it up in; "verify.suite" spans are
# named after the suite they run.
TRACED: Tuple[Tuple[str, Tuple[Tuple[str, str], ...], Optional[Callable]], ...] = (
    ("cli.main", (("cli", "main"),), None),
    ("fileio.read_set_file", (("cli", "read_set_file"),), None),
    ("fileio.tool_commit", (("fileio", "tool_commit"),), None),
    ("fileio.certificate_payload", (("cli", "certificate_payload"),), None),
    ("fileio.write_certificate", (("cli", "write_certificate"),),
     _cert_bytes),
    ("fileio.check_certificate", (("cli", "check_certificate"),), None),
    ("iteration.run_iteration", (("cli", "run_iteration"),), None),
    ("iteration.iterate_step", (("iteration", "iterate_step"),), _dims_added),
    ("iteration.hypothesis_check", (("cli", "hypothesis_check"),
                                    ("iteration", "hypothesis_check")), None),
    ("chang.level_sets", (("iteration", "level_sets"),), _level_counts),
    ("chang.select_level", (("iteration", "select_level"),), _chosen_count),
    ("chang.chang_span", (("verify", "chang_span"),), None),
    ("chang.riesz_product", (("verify", "riesz_product"),
                             ("chang", "riesz_product")), None),
    ("chang.beckner_verify", (("verify", "beckner_verify"),), None),
    ("fourier.fwht", (("iteration", "fwht"), ("setfuncs", "fwht"),
                      ("chang", "fwht"), ("verify", "fwht"),
                      ("fourier", "fwht")), _table_entries),
    ("fourier.inverse_fwht", (("chang", "inverse_fwht"),
                              ("fourier", "inverse_fwht")), None),
    ("fourier.norms", (("iteration", "a_norm"), ("iteration", "l2_norm_sq"),
                       ("setfuncs", "a_norm"), ("chang", "l1_norm"),
                       ("chang", "l2_norm_sq"), ("chang", "spectrum_l2_sq"),
                       ("chang", "lp_norm"), ("verify", "l1_norm")), None),
    ("setfuncs.residual", (("iteration", "residual"), ("verify", "residual")),
     _residual_entries),
    ("setfuncs.residual_l1", (("iteration", "residual_l1"),
                              ("verify", "residual_l1")), None),
    ("setfuncs.set_a_norm", (("cli", "set_a_norm"), ("fileio", "set_a_norm"),
                             ("explore", "set_a_norm")), None),
    ("groups.subspace_insert", (("iteration", "subspace_insert"),
                                ("chang", "subspace_insert"),
                                ("groups", "subspace_insert"),
                                ("verify", "subspace_insert")), None),
    ("groups.elements", (("groups", "DualSubspace.elements"),),
     _element_count),
    ("groups.coset_index_table", (("setfuncs", "coset_index_table"),
                                  ("constructions", "coset_index_table")),
     None),
    ("groups.all_subspaces", (("groups", "all_subspaces"),), None),
    ("groups.annihilator_basis", (("groups", "annihilator_basis"),), None),
    ("kernels.wht_rows", (("_kernels", "wht_rows"),), _wht_counts),
    ("kernels.anneal_sweep", (("_kernels", "anneal_sweep"),), _proposals),
    ("explore.min_norm_exhaustive", (("cli", "min_norm_exhaustive"),),
     _candidates),
    ("explore.min_norm_anneal", (("cli", "min_norm_anneal"),), None),
    ("verify.suite", (("cli", "run_suite"),), _trials),
    ("constructions.build_coset_union", (("constructions", "build_coset_union"),
                                         ("cli", "build_coset_union")), None),
)


def _owner(module: str, attr: str):
    obj = importlib.import_module(f"f2wiener.{module}")
    *path, name = attr.split(".")
    for part in path:
        obj = getattr(obj, part)
    return obj, name


class Tracer:
    """Span recorder; one per process, used from one thread."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []
        self.counters: Counter = Counter()
        self.op_id = -1
        self._patched: List[Tuple[object, str, object]] = []
        self.missing: set = set()

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._nid(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def parent_name(self) -> Optional[str]:
        return self.names[self.name_id[self.stack[-1]]] if self.stack else None

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None):
        tracer = self
        dynamic = name == "verify.suite"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(f"verify.suite.{args[0]}" if dynamic else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn: Callable):
        """Spans cover each next() on the generator fn returns."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def spans():
                while True:
                    idx = tracer.open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(idx)
                    tracer.counters[f"{name}.yielded"] += 1
                    yield item

            return spans()

        return traced

    def install(self) -> None:
        """Patch every traced name; names the package lacks go to missing."""
        if self._patched:
            return
        for name, places, hook in TRACED:
            for module, attr in places:
                try:
                    owner, key = _owner(module, attr)
                    original = getattr(owner, key)
                except (ImportError, AttributeError):
                    self.missing.add(f"{module}.{attr}")
                    continue
                self._patched.append((owner, key, original))
                if name in GENERATORS:
                    setattr(owner, key, self.wrap_generator(name, original))
                else:
                    setattr(owner, key, self.wrap(name, original, hook))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def spans(self) -> Dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())


def self_times(start: Sequence[float], end: Sequence[float],
               parent: Sequence[int]) -> List[float]:
    """Each span's duration minus the union of its children's intervals.

    Spans must be indexed in start order, so a parent's children arrive
    sorted by start; overlapping children are counted once and clipped to
    the parent.
    """
    own = [e - s for s, e in zip(start, end)]
    covered_to: Dict[int, float] = {}
    for i, p in enumerate(parent):
        if p < 0:
            continue
        lo = max(start[i], covered_to.get(p, start[p]))
        hi = min(end[i], end[p])
        if hi > lo:
            own[p] -= hi - lo
            covered_to[p] = hi
    return own


def layer_metrics(tracer: Tracer, ops: Sequence[int]) -> Dict[str, float]:
    """Per-layer metrics over the spans of the given op ids.

    Counters are read as they stand, so the caller resets them around the
    passes it asks about.
    """
    keep = set(ops)
    own = self_times(tracer.start, tracer.end, tracer.parent)
    calls: Counter = Counter()
    total: Dict[str, float] = defaultdict(float)
    self_s: Dict[str, float] = defaultdict(float)
    for i, nid in enumerate(tracer.name_id):
        if tracer.op[i] not in keep:
            continue
        name = tracer.names[nid]
        calls[name] += 1
        total[name] += tracer.end[i] - tracer.start[i]
        self_s[name] += own[i]
    c = tracer.counters
    out: Dict[str, float] = {}
    for name in METRIC_UNITS:
        if name == "trace.overhead_ratio" or name in SETUP_METRICS:
            continue
        if name == "chang.chosen_ratio":
            coeffs = c["chang.level_sets.coeffs"]
            out[name] = c["chang.select_level.chosen"] / coeffs if coeffs else 0.0
        elif name.endswith(".calls"):
            out[name] = calls[name[:-len(".calls")]]
        elif name.endswith(".self_s"):
            out[name] = self_s[name[:-len(".self_s")]]
        elif name.endswith(".s"):
            out[name] = total[name[:-len(".s")]]
        else:
            out[name] = c[name]
    return out


def setup_metrics(tracer: Tracer, setup_op: int) -> Dict[str, float]:
    total = {name: 0.0 for name in SETUP_METRICS}
    for i, nid in enumerate(tracer.name_id):
        name = tracer.names[nid] + ".s"
        if tracer.op[i] == setup_op and name in total:
            total[name] += tracer.end[i] - tracer.start[i]
    return total


def zero_predictions(workload: str, metrics: Dict[str, float]) -> List[str]:
    """Metrics predicted to read 0 on this workload that did not."""
    return [name for name, where in ZERO_ON.items()
            if workload in where and metrics.get(name, 0) != 0]


def is_count(name: str) -> bool:
    return METRIC_UNITS.get(name) in ("count", "B")

