"""The four workloads: seeded inputs, the operations run on them, and checks.

Each builder turns a seed into a fixed list of operations.  An operation's
``run`` calls the package and returns its raw output; ``check`` compares that
output with values from ``oracle`` and returns a list of problems, empty when
the output is right.  ``run`` is timed and ``check`` is not.

CLI commands go through ``f2wiener.cli.main`` in this process with stdout
captured, so interpreter start-up is not part of an operation.  Package
functions are always looked up on their module at call time
(``groups.all_subspaces``, ``_kernels.wht_rows``), so the wrappers that
``tracing`` installs see every call.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from f2wiener import _kernels, cli, constructions, groups

import oracle

# Certify inputs: (family, k, n, strategy).  Coset unions ("geometric4",
# "double_exp") take 2 to 13 growth steps with small levels; random sets
# ("random2", "random16": density 1/2 and 1/16) take one step whose level
# holds the whole spectrum.  geometric4 k=8 is left out: 69 s per op.
# The list has 12 ops under 0.1 s, 5 near 0.15 s and 12 dearer ones, six of
# them geometric4 k=6, n=15 under different affine maps.  So the median
# falls among the five like ops in the middle and the tail percentile (p82
# of 58 samples) among the six like dear ones, not on one noisy op.
CERTIFY_SPECS: Tuple[Tuple[str, int, int, str], ...] = (
    ("double_exp", 3, 12, "smallest-s"),
    ("geometric4", 6, 15, "smallest-s"),
    ("random2", 0, 14, "smallest-s"),
    ("random16", 0, 12, "best-ratio"),
    ("geometric4", 7, 14, "smallest-s"),
    ("double_exp", 4, 12, "smallest-s"),
    ("geometric4", 6, 15, "smallest-s"),
    ("random16", 0, 14, "best-ratio"),
    ("double_exp", 3, 13, "best-ratio"),
    ("geometric4", 5, 15, "smallest-s"),
    ("random2", 0, 12, "smallest-s"),
    ("geometric4", 6, 15, "smallest-s"),
    ("double_exp", 4, 16, "smallest-s"),
    ("double_exp", 4, 13, "best-ratio"),
    ("geometric4", 6, 12, "smallest-s"),
    ("random16", 0, 13, "smallest-s"),
    ("geometric4", 6, 15, "smallest-s"),
    ("double_exp", 3, 16, "best-ratio"),
    ("random2", 0, 13, "best-ratio"),
    ("geometric4", 5, 16, "smallest-s"),
    ("geometric4", 5, 12, "best-ratio"),
    ("geometric4", 6, 15, "smallest-s"),
    ("geometric4", 5, 14, "smallest-s"),
    ("geometric4", 5, 13, "smallest-s"),
    ("random2", 0, 16, "best-ratio"),
    ("double_exp", 3, 14, "smallest-s"),
    ("geometric4", 6, 14, "best-ratio"),
    ("double_exp", 4, 14, "best-ratio"),
    ("geometric4", 6, 15, "smallest-s"),
)

# Search inputs: (n, size) for 10k-step annealing; None is the exhaustive
# n=5, size=6 scan (27,405 candidates).
SEARCH_SPECS: Tuple[Optional[Tuple[int, int]], ...] = (
    (10, 24), (11, 60), (12, 100), None, (10, 80), (11, 150),
    (12, 300), None, (10, 200), (11, 400), (12, 700),
)
ANNEAL_STEPS = 10_000
EXHAUSTIVE_N, EXHAUSTIVE_SIZE = 5, 6

# Trials per call give every verify op about the same cost (0.3 s at
# reference speed), so op_p50_s and op_tail_s are percentiles of like ops
# rather than the border between a cheap suite and a dear one.
VERIFY_TRIALS = {"tA": 550, "lem1": 750, "techlem": 3500, "beckner": 400,
                 "chang": 250}
VERIFY_ROUNDS = 8

SWEEP_MAX_N = 8
# Rows per wht_rows call for every n, so the dearest batches are the first
# ones at n=8 (large annihilators) rather than a few big n<=7 batches.
SWEEP_BATCH = 1024

_LINE_RE = re.compile(r"^(\w+) = (\S+)")
_SUITE_RE = re.compile(r"^suite (\w+): trials=(\d+) violations=(\d+) (PASS|FAIL)$")
_COMMIT_TAIL = b', "tool_commit": '


def call_cli(argv: List[str]) -> Tuple[int, str, str]:
    """Run one CLI command in-process; (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _fields(stdout: str) -> Dict[str, str]:
    """'label = value ...' lines of CLI output, first token of each value."""
    found = {}
    for line in stdout.splitlines():
        m = _LINE_RE.match(line)
        if m:
            found.setdefault(m.group(1), m.group(2))
    return found


def _exit_problems(label: str, rc: int, stderr: str) -> List[str]:
    if rc == 0:
        return []
    return [f"{label} exited {rc}: {stderr.strip()[:200]}"]


def bitmap_hex(indicator: np.ndarray) -> str:
    """Set-file bitmap of a 0/1 table: bit x set means point x is in the set."""
    raw = np.packbits(indicator.astype(np.uint8), bitorder="little")
    bits = int.from_bytes(raw.tobytes(), "little")
    return format(bits, f"0{max(1, len(indicator) // 4)}x")


def write_set(path: str, indicator: np.ndarray, n: int) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"n={n}\nhexbits={bitmap_hex(indicator)}\n")


def random_invertible_rows(rng: np.random.Generator, n: int) -> List[int]:
    """Rows of a uniformly random invertible n x n matrix over F2."""
    while True:
        rows = [int(r) for r in rng.integers(1, 1 << n, size=n)]
        pivots: Dict[int, int] = {}
        for r in rows:
            for bit, row in pivots.items():
                if (r >> bit) & 1:
                    r ^= row
            if r == 0:
                break
            pivots[r.bit_length() - 1] = r
        else:
            return rows


def affine_image(indicator: np.ndarray, n: int, rows: List[int],
                 shift: int) -> np.ndarray:
    """Table of {M x + shift : x in A}, with bit i of M x equal to <rows[i], x>."""
    pts = np.flatnonzero(indicator).astype(np.int64)
    image = np.full(pts.shape, shift, dtype=np.int64)
    for i, r in enumerate(rows):
        image ^= (np.bitwise_count(pts & r).astype(np.int64) & 1) << i
    out = np.zeros(1 << n, dtype=np.int64)
    out[image] = 1
    return out


def strip_commit(cert: bytes) -> bytes:
    """Certificate bytes without the trailing tool_commit field (git HEAD)."""
    head, sep, _ = cert.rpartition(_COMMIT_TAIL)
    return head if sep else cert


class CertifyOp:
    """lowerbound SET --max-order 2^n, then check-cert on the certificate."""

    def __init__(self, label: str, set_path: str, n: int, strategy: str,
                 expected_norm: Fraction):
        self.label = label
        self.set_path = set_path
        self.cert_path = set_path + ".cert.json"
        self.n = n
        self.strategy = strategy
        self.expected_norm = expected_norm
        self.first_cert: Optional[bytes] = None

    def run(self):
        lower = call_cli(["lowerbound", self.set_path,
                          "--max-order", str(1 << self.n),
                          "--strategy", self.strategy,
                          "--out", self.cert_path])
        checked = call_cli(["check-cert", self.set_path, self.cert_path])
        return lower, checked

    def check(self, result) -> List[str]:
        (rc, out, err), (rc2, out2, err2) = result
        problems = (_exit_problems("lowerbound", rc, err)
                    + _exit_problems("check-cert", rc2, err2))
        if rc != 0:
            return problems
        fields = _fields(out)
        for key in ("a_norm", "final_bound"):
            got = oracle.parse_dyadic(fields.get(key, "nan"))
            if got != self.expected_norm:
                problems.append(f"{key} {got} != expected {self.expected_norm}")
        if not out2.startswith("certificate OK"):
            problems.append(f"check-cert did not accept: {out2.strip()[:200]}")
        with open(self.cert_path, "rb") as fh:
            cert = strip_commit(fh.read())
        if self.first_cert is None:
            self.first_cert = cert
        elif cert != self.first_cert:
            problems.append("re-emitted certificate bytes differ")
        return problems

    def digest(self) -> str:
        return hashlib.sha256(self.first_cert or b"").hexdigest()


class SearchOp:
    """explore --method anneal (seeded) or the exhaustive n=5, size=6 scan."""

    def __init__(self, label: str, argv: List[str], n: int, size: int,
                 expected_min: Optional[Fraction]):
        self.label = label
        self.argv = argv
        self.n = n
        self.size = size
        self.expected_min = expected_min
        self.first_set: Optional[str] = None

    def run(self):
        return call_cli(self.argv)

    def check(self, result) -> List[str]:
        rc, out, err = result
        problems = _exit_problems("explore", rc, err)
        if rc != 0:
            return problems
        fields = _fields(out)
        best = oracle.parse_dyadic(fields.get("best_norm", "nan"))
        hex_bits = out.split("best_set hex = ", 1)[1].split()[0]
        table = oracle.indicator_from_hex(hex_bits, self.n)
        if int(table.sum()) != self.size:
            problems.append(f"best set has {int(table.sum())} points, "
                            f"not {self.size}")
        recomputed = oracle.set_norm(table, self.n)
        if recomputed != best:
            problems.append(f"best_norm {best} != norm of best set {recomputed}")
        if self.expected_min is not None and best != self.expected_min:
            problems.append(f"best_norm {best} != minimum {self.expected_min}")
        if self.first_set is None:
            self.first_set = hex_bits
        elif hex_bits != self.first_set:
            problems.append("same seed gave a different best set")
        return problems


class VerifyOp:
    """verify --suite X --trials T --seed S --jobs 1."""

    def __init__(self, label: str, suite: str, trials: int, seed: int):
        self.label = label
        self.suite = suite
        self.trials = trials
        self.argv = ["verify", "--suite", suite, "--trials", str(trials),
                     "--seed", str(seed), "--jobs", "1"]

    def run(self):
        return call_cli(self.argv)

    def check(self, result) -> List[str]:
        rc, out, err = result
        problems = _exit_problems("verify", rc, err)
        lines = out.splitlines()
        m = _SUITE_RE.match(lines[0]) if lines else None
        if m is None:
            return problems + [f"unreadable verify output {out[:200]!r}"]
        if (m.group(1), int(m.group(2))) != (self.suite, self.trials):
            problems.append(f"ran {m.group(1)} x{m.group(2)}, asked "
                            f"{self.suite} x{self.trials}")
        if int(m.group(3)) != 0:
            problems.append(f"{m.group(3)} violations: {lines[1:3]}")
        return problems


class SweepState:
    """Subspace generator shared by the batches of one dimension."""

    def __init__(self):
        self.subspaces = None
        self.seen = 0


class SweepOp:
    """One batch of the criterion-1 sweep over all subspaces of F2^n.

    Each subspace's annihilator coset, moved by a seeded offset, becomes one
    row; the rows go through ``_kernels.wht_rows`` together.  A coset
    indicator has Wiener norm 1, so every row's absolute sum must be 2^n.
    The first batch of a dimension starts a fresh enumeration and the last
    one checks that it ends after exactly ``oracle.subspace_total(n)``.
    """

    def __init__(self, label: str, state: SweepState, n: int, rows: int,
                 offsets: np.ndarray, buf: np.ndarray, first: bool,
                 last: bool):
        self.label = label
        self.state = state
        self.n = n
        self.rows = rows
        self.offsets = offsets
        self.buf = buf[:rows]
        self.first = first
        self.last = last

    def run(self):
        st = self.state
        if self.first:
            st.subspaces = groups.all_subspaces(self.n)
            st.seen = 0
        buf = self.buf
        buf[:] = 0
        fill = 0
        for v in st.subspaces:
            pts = [0]
            for b in groups.annihilator_basis(v, self.n):
                pts = pts + [p ^ b for p in pts]
            off = int(self.offsets[st.seen])
            buf[fill, [p ^ off for p in pts]] = 1
            fill += 1
            st.seen += 1
            if fill == self.rows:
                break
        extra = sum(1 for _ in st.subspaces) if self.last else 0
        _kernels.wht_rows(buf[:fill])
        return fill, extra

    def check(self, result) -> List[str]:
        fill, extra = result
        problems = []
        if fill != self.rows:
            problems.append(f"batch has {fill} subspaces, expected {self.rows}")
        sums = np.abs(self.buf[:fill]).sum(axis=1)
        bad = int((sums != (1 << self.n)).sum())
        if bad:
            problems.append(f"{bad} rows do not sum to 2^{self.n}")
        if extra:
            problems.append(f"enumeration of n={self.n} yielded {extra} "
                            f"more than {oracle.subspace_total(self.n)}")
        return problems


def build_certify(seed: int, workdir: str) -> List[CertifyOp]:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for i, (family, k, n, strategy) in enumerate(CERTIFY_SPECS):
        order = 1 << n
        if family.startswith("random"):
            size = order // int(family[len("random"):])
            table = np.zeros(order, dtype=np.int64)
            table[rng.permutation(order)[:size]] = 1
            expected = oracle.set_norm(table, n)
            label = f"{family}_n{n}"
        else:
            base, _ = constructions.build_coset_union(
                constructions.density_family(family, k), n)
            base_table = oracle.indicator_from_hex(format(base.bits, "x"), n)
            expected = oracle.set_norm(base_table, n)
            rows = random_invertible_rows(rng, n)
            table = affine_image(base_table, n, rows,
                                 int(rng.integers(0, order)))
            if oracle.set_norm(table, n) != expected:
                raise AssertionError(f"affine map changed the norm of {family}")
            label = f"{family}{k}_n{n}"
        label = f"c{i:02d}_{label}"
        path = os.path.join(workdir, f"{label}.set")
        write_set(path, table, n)
        ops.append(CertifyOp(f"{label}/{strategy}", path, n, strategy,
                             expected))
    return ops


def build_search(seed: int, workdir: str) -> List[SearchOp]:
    rng = np.random.default_rng([seed, 2])
    minimum = oracle.min_set_norm(EXHAUSTIVE_N, EXHAUSTIVE_SIZE)
    ops = []
    for spec in SEARCH_SPECS:
        if spec is None:
            argv = ["explore", "--method", "exhaustive",
                    "--n", str(EXHAUSTIVE_N), "--size", str(EXHAUSTIVE_SIZE)]
            ops.append(SearchOp("exhaustive_n5", argv, EXHAUSTIVE_N,
                                EXHAUSTIVE_SIZE, minimum))
            continue
        n, size = spec
        argv = ["explore", "--method", "anneal", "--n", str(n),
                "--size", str(size), "--steps", str(ANNEAL_STEPS),
                "--seed", str(int(rng.integers(0, 2**31)))]
        ops.append(SearchOp(f"anneal_n{n}_s{size}", argv, n, size, None))
    return ops


def build_verify(seed: int, workdir: str) -> List[VerifyOp]:
    rng = np.random.default_rng([seed, 3])
    return [VerifyOp(f"{suite}_{r}", suite, trials,
                     int(rng.integers(0, 2**31)))
            for r in range(VERIFY_ROUNDS)
            for suite, trials in VERIFY_TRIALS.items()]


def build_sweep(seed: int, workdir: str) -> List[SweepOp]:
    rng = np.random.default_rng([seed, 4])
    state = SweepState()
    ops = []
    for n in range(1, SWEEP_MAX_N + 1):
        order = 1 << n
        total = oracle.subspace_total(n)
        batch = SWEEP_BATCH
        offsets = rng.integers(0, order, size=total)
        buf = np.zeros((min(batch, total), order), dtype=np.int64)
        starts = range(0, total, batch)
        for j, start in enumerate(starts):
            rows = min(batch, total - start)
            ops.append(SweepOp(f"n{n}_b{j}", state, n, rows, offsets, buf,
                               first=(j == 0), last=(j == len(starts) - 1)))
    return ops


def warmup_op(ops: list):
    """The untimed op run before timing starts: the first op, except on the
    sweep, where the first batch at the largest n brings the process to its
    working size (a small batch would leave that to the first timed ones)."""
    starts = [op for op in ops if isinstance(op, SweepOp) and op.first]
    return starts[-1] if starts else ops[0]


# name -> (builder, minimum whole passes over the op list in one run)
WORKLOADS: Dict[str, Tuple[Callable[[int, str], list], int]] = {
    "certify": (build_certify, 2),
    "search": (build_search, 2),
    "verify": (build_verify, 1),
    "sweep": (build_sweep, 2),
}
