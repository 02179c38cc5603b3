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
import os
import re
import subprocess
from typing import List, Optional

from .constructions import CosetUnionWitness
from .dyadic import DyadicScalar
from .groups import get_dim_cap
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


def read_set_file(path: str) -> PointSet:
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
    cap = get_dim_cap()
    if len(digits) > len(str(cap)) or int(digits) > cap:
        shown = digits if len(digits) <= 20 else digits[:20] + "..."
        raise SetFileError(f"n={shown} is above the dimension cap {cap}")
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
        return json.load(fh)


def _pair_in(obj) -> DyadicScalar:
    return DyadicScalar(int(obj["num"]), int(obj["exp"]))


def check_certificate(a: PointSet, cert: dict) -> List[str]:
    """Recompute everything checkable about a certificate; [] when sound."""
    problems: List[str] = []
    if cert.get("version") != CERT_VERSION:
        problems.append(f"unknown version {cert.get('version')!r}")
        return problems
    if cert.get("n") != a.dim.n:
        problems.append(f"n mismatch: file {a.dim.n}, certificate {cert.get('n')}")
        return problems
    alpha = _pair_in(cert["alpha"])
    if alpha != a.density():
        problems.append(f"alpha {alpha} != set density {a.density()}")
    norm = set_a_norm(a)
    if cert.get("a_norm") is not None:
        claimed = _pair_in(cert["a_norm"])
        if claimed != norm:
            problems.append(f"a_norm {claimed} != recomputed {norm}")
    final = _pair_in(cert["final_bound"])
    if final > norm:
        problems.append(f"final_bound {final} exceeds a_norm {norm}")
    total = alpha
    dim = 0
    for i, st in enumerate(cert.get("trace", [])):
        s = int(st["s"])
        gain = _pair_in(st["gain"])
        if s < 0:
            problems.append(f"step {i}: negative level {s}")
        if int(st["dim_before"]) != dim:
            problems.append(f"step {i}: dim_before {st['dim_before']} != {dim}")
        dim = int(st["dim_after"])
        if dim <= int(st["dim_before"]):
            problems.append(f"step {i}: subspace did not grow")
        if dim - int(st["dim_before"]) > float(st["chang_ceiling"]):
            problems.append(f"step {i}: growth above the recorded ceiling")
        # gain >= (1/6)(4/3)^s by exact cross-multiplication.
        if 6 * (3 ** s) * gain.num < (4 ** s) * (1 << gain.exp):
            problems.append(f"step {i}: gain {gain} below (1/6)(4/3)^{s}")
        total = total + gain
    if total != final:
        problems.append(
            f"alpha plus step gains {total} != final_bound {final}"
        )
    term = cert.get("termination")
    if term not in {t.value for t in Termination}:
        problems.append(f"unknown termination {term!r}")
    if term == Termination.RESIDUAL_ZERO.value and final != norm:
        problems.append(
            f"ResidualZero must certify the exact norm: {final} != {norm}"
        )
    hyp = cert.get("hypothesis")
    if hyp is not None:
        from .iteration import hypothesis_check

        rep = hypothesis_check(_pair_in(hyp["alpha"]), int(hyp["max_order"]))
        if _hypothesis_payload(rep) != hyp:
            problems.append("hypothesis report does not recompute")
    return problems


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
