"""Set files, witness JSON, and lower-bound certificates.

A set file is line-oriented text: "n=<int>" first, then either one hex
point mask per line or a single "hexbits=<bitmap>" line.  Certificates
serialize every exact value as {num, exp} integer pairs; the only float
is chang_ceiling, written with 17 significant digits.  Emission uses a
fixed key order and a local serializer so that re-running the tool on
the same inputs reproduces files byte for byte.
"""
from __future__ import annotations

import functools
import json
import math
import os
import re
import subprocess
from typing import List, Optional, Tuple

from .chang import LevelSet, level_qualifies
from .constructions import CosetUnionWitness
from .dyadic import DyadicScalar
from .groups import HARD_EXP_CAP
from .iteration import HypothesisReport, IterationTrace, Termination
from .setfuncs import PointSet, set_a_norm

__all__ = [
    "SetFileError",
    "read_set_file",
    "write_set_file",
    "dumps_deterministic",
    "certificate_payload",
    "write_certificate",
    "load_certificate",
    "check_certificate",
    "witness_payload",
    "tool_commit",
]

CERT_VERSION = 1

_N_RE = re.compile(r"^n=(\d+)$")
_HEX_RE = re.compile(r"^[0-9a-f]+$", re.IGNORECASE)
_BITS_RE = re.compile(r"^hexbits=([0-9a-f]+)$", re.IGNORECASE)


class SetFileError(ValueError):
    """Malformed set file."""


def read_set_file(path: str, max_n: int) -> PointSet:
    """The set in a set file, refusing any n above max_n."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise SetFileError("empty set file")
    m = _N_RE.match(lines[0])
    if not m:
        raise SetFileError(f"first line must be n=<int>, got {lines[0]!r}")
    digits = m.group(1).lstrip("0") or "0"
    # Check the cap before anything is sized by n (1 << n below).
    if len(digits) > len(str(max_n)) or int(digits) > max_n:
        shown = digits if len(digits) <= 20 else digits[:20] + "..."
        raise SetFileError(f"n={shown} is above the dimension cap {max_n}")
    n = int(digits)
    if n < 1:
        raise SetFileError("n must be >= 1")
    body = lines[1:]
    if len(body) == 1 and body[0].lower().startswith("hexbits="):
        bm = _BITS_RE.match(body[0])
        if not bm:
            raise SetFileError(f"bad hexbits line {body[0]!r}")
        bits = int(bm.group(1), 16)
        if bits.bit_length() > (1 << n):
            raise SetFileError("bitmap has points outside the group")
        return PointSet(n, bits)
    bits = 0
    for ln in body:
        if not _HEX_RE.match(ln):
            raise SetFileError(f"bad point line {ln!r}")
        x = int(ln, 16)
        if x >= (1 << n):
            raise SetFileError(f"point {ln} outside the group")
        if (bits >> x) & 1:
            raise SetFileError(f"duplicate point {ln}")
        bits |= 1 << x
    return PointSet(n, bits)


def write_set_file(path: str, a: PointSet, style: str = "hexbits") -> None:
    lines = [f"n={a.dim.n}"]
    if style == "hexbits":
        lines.append(f"hexbits={a.set_hex()}")
    elif style == "points":
        lines.extend(format(p, "x") for p in a.points())
    else:
        raise ValueError(f"unknown set file style {style!r}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _emit(obj, out: List[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format(obj, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)))
            out.append(": ")
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _emit(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_deterministic(obj) -> str:
    """JSON with insertion key order and 17-significant-digit floats."""
    out: List[str] = []
    _emit(obj, out)
    return "".join(out)


def _pair(x: DyadicScalar) -> dict:
    return {"num": x.num, "exp": x.exp}


def _hypothesis_payload(rep: HypothesisReport) -> dict:
    return {
        "alpha": _pair(rep.alpha),
        "max_order": rep.max_order,
        "per_dim": [
            {"d": r.d, "product": _pair(r.product), "scaled": _pair(r.scaled)}
            for r in rep.rows
        ],
        "c_plain": _pair(rep.c_plain),
        "c_scaled": _pair(rep.c_scaled),
    }


def certificate_payload(a: PointSet, trace: IterationTrace,
                        hypothesis: Optional[HypothesisReport],
                        commit: Optional[str] = None) -> dict:
    return {
        "version": CERT_VERSION,
        "n": a.dim.n,
        "alpha": _pair(a.density()),
        "a_norm": _pair(trace.a_norm),
        "trace": [
            {
                "s": st.s,
                "dim_before": st.dim_before,
                "dim_after": st.dim_after,
                "gain": _pair(st.gain),
                "chang_ceiling": st.chang_ceiling,
            }
            for st in trace.steps
        ],
        "final_bound": _pair(trace.final_bound),
        "termination": trace.termination.value,
        "hypothesis": (None if hypothesis is None
                       else _hypothesis_payload(hypothesis)),
        "tool_commit": commit if commit is not None else tool_commit(),
    }


def write_certificate(path: str, payload: dict) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_deterministic(payload) + "\n")


def load_certificate(path: str) -> dict:
    with open(path, "r", encoding="ascii") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("certificate JSON nests too deeply") from None


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _need(ok: bool, where: str, what: str) -> None:
    if not ok:
        raise ValueError(f"malformed certificate: {where} must be {what}")


def _pair_in(obj, where: str) -> DyadicScalar:
    _need(isinstance(obj, dict) and _is_int(obj.get("num"))
          and _is_int(obj.get("exp")), where, "a {num, exp} pair of integers")
    _need(0 <= obj["exp"] <= HARD_EXP_CAP, f"{where}.exp",
          f"in [0, {HARD_EXP_CAP}]")
    return DyadicScalar(obj["num"], obj["exp"])


def _step_in(st, where: str, n: int) -> tuple:
    """(s, dim_before, dim_after, gain, chang_ceiling), each checked."""
    # A level index s is at most 2n + 1: nonzero residual coefficients are
    # at least 2^-2n and ||f_V||_1 <= 1.  This keeps 3**s and 4**s small.
    _need(isinstance(st, dict), where, "an object")
    for key in ("s", "dim_before", "dim_after"):
        _need(_is_int(st.get(key)), f"{where} {key}", "an integer")
    _need(0 <= st["s"] <= 2 * n + 1, f"{where} s", f"in [0, {2 * n + 1}]")
    for key in ("dim_before", "dim_after"):
        _need(0 <= st[key] <= n, f"{where} {key}", f"in [0, {n}]")
    gain = _pair_in(st.get("gain"), f"{where} gain")
    ceiling = st.get("chang_ceiling")
    _need((_is_int(ceiling) or isinstance(ceiling, float))
          and math.isfinite(ceiling), f"{where} chang_ceiling",
          "a finite number")
    return st["s"], st["dim_before"], st["dim_after"], gain, ceiling


def check_certificate(a: PointSet, cert,
                      ) -> Tuple[List[str], Optional[DyadicScalar]]:
    """Recheck a loaded certificate against its set: (problems, final_bound).

    problems is [] when the certificate is sound; final_bound is None when
    its version or n already disagree.  Every field is decoded into a
    checked, typed value before anything is computed from it, so a
    certificate not shaped like the tool's output raises ValueError
    instead: it refutes nothing.
    """
    if not isinstance(cert, dict):
        raise ValueError("malformed certificate: top level must be an object")
    version, n = cert.get("version"), cert.get("n")
    if not _is_int(version) or version != CERT_VERSION:
        return [f"unknown version {version!r}"], None
    if not _is_int(n) or n != a.dim.n:
        return [f"n mismatch: file {a.dim.n}, certificate {n}"], None
    alpha = _pair_in(cert.get("alpha"), "alpha")
    claimed = cert.get("a_norm")
    if claimed is not None:
        claimed = _pair_in(claimed, "a_norm")
    final = _pair_in(cert.get("final_bound"), "final_bound")
    trace = cert.get("trace", [])
    _need(isinstance(trace, list), "trace", "a list")
    steps = [_step_in(st, f"trace step {i}", n) for i, st in enumerate(trace)]
    term = cert.get("termination")
    _need(isinstance(term, str), "termination", "a string")
    hyp = cert.get("hypothesis")
    if hyp is not None:
        _need(isinstance(hyp, dict), "hypothesis", "an object or null")
        # hypothesis_check bounds it before use, as it does for lowerbound.
        _need(_is_int(hyp.get("max_order")), "hypothesis.max_order",
              "an integer")

    problems: List[str] = []
    if alpha != a.density():
        problems.append(f"alpha {alpha} != set density {a.density()}")
    norm = set_a_norm(a)
    if claimed is not None and claimed != norm:
        problems.append(f"a_norm {claimed} != recomputed {norm}")
    if final > norm:
        problems.append(f"final_bound {final} exceeds a_norm {norm}")
    total = alpha
    dim = 0
    for i, (s, before, after, gain, ceiling) in enumerate(steps):
        if before != dim:
            problems.append(f"step {i}: dim_before {before} != {dim}")
        dim = after
        if dim <= before:
            problems.append(f"step {i}: subspace did not grow")
        if dim - before > ceiling:
            problems.append(f"step {i}: growth above the recorded ceiling")
        # A step's gain must meet the floor of the level it was taken at.
        if not level_qualifies(LevelSet(s, (), gain)):
            problems.append(f"step {i}: gain {gain} below (1/6)(4/3)^{s}")
        total = total + gain
    if total != final:
        problems.append(
            f"alpha plus step gains {total} != final_bound {final}"
        )
    if term not in {t.value for t in Termination}:
        problems.append(f"unknown termination {term!r}")
    if term == Termination.RESIDUAL_ZERO.value and final != norm:
        problems.append(
            f"ResidualZero must certify the exact norm: {final} != {norm}"
        )
    if hyp is not None:
        from .iteration import hypothesis_check

        rep = hypothesis_check(a.density(), hyp["max_order"])
        # Compared as JSON text, so 1, 1.0 and true are told apart.
        if json.dumps(_hypothesis_payload(rep)) != json.dumps(hyp):
            problems.append("hypothesis report does not recompute")
    return problems, final


def witness_payload(witness: CosetUnionWitness,
                    norm: DyadicScalar) -> dict:
    return {
        "version": CERT_VERSION,
        "kind": "coset_union_witness",
        "n": witness.dim.n,
        "exponents": list(witness.density.exponents),
        "alpha": _pair(witness.density.value()),
        "lambdas": [list(lam.basis) for lam in witness.lambdas],
        "gammas": list(witness.gammas),
        "offsets": list(witness.offsets),
        "parts_hex": [p.set_hex() for p in witness.parts],
        "a_norm": _pair(norm),
        "part_count": witness.density.k,
        "tool_commit": tool_commit(),
    }


@functools.cache
def tool_commit() -> str:
    """git HEAD of the package checkout, or "unknown"; asked once a process.

    The modules a process has imported cannot change under it, so the
    first answer stays the right one.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10, check=False,
        )
        commit = out.stdout.strip()
        if out.returncode == 0 and commit:
            return commit
    except OSError:
        pass
    return "unknown"
