"""Set files, witness JSON, and lower-bound certificates.

A set file is line-oriented text: "n=<int>" first, then either one hex
point mask per line or a single "hexbits=<bitmap>" line.  A witness file
(version 2) records a construction by its generators (exponents, lambdas,
gammas, offsets), which fix every part; version 1 also held each part's
bitmap.  Certificates and witness files hold integers and strings only,
every exact value as a {num, exp} pair, and are written by json.dumps in a
fixed key order, so re-running the tool on the same inputs reproduces them
byte for byte.  Their last key, tool_commit, holds the package version, so
a file depends only on its command line and the version that wrote it.
"""
from __future__ import annotations

import json
import re
from typing import List, Optional, Tuple

from . import __version__
from .chang import meets_gain_floor
from .constructions import CosetUnionWitness
from .dyadic import DyadicScalar
from .groups import HARD_DIM_CAP, HARD_EXP_CAP
from .iteration import MAX_ORDER, IterationTrace, Termination, step_ceiling
from .setfuncs import PointSet, physical_lower_bound, set_a_norm

__all__ = [
    "SetFileError",
    "read_set_file",
    "write_set_file",
    "certificate_payload",
    "write_certificate",
    "load_certificate",
    "check_certificate",
    "witness_payload",
    "tool_commit",
]

CERT_VERSION = 2
# The keys certificate_payload writes; check_certificate wants exactly these.
_CERT_KEYS = ("version", "n", "alpha", "a_norm", "trace", "final_bound",
              "termination", "max_order", "tool_commit")
_STEP_KEYS = ("s", "dim_before", "dim_after", "gain", "l1")

_N_RE = re.compile(r"^n=(\d+)$")
# Case-sensitive classes: far faster than IGNORECASE on a long line.
_HEX_RE = re.compile(r"[0-9a-fA-F]+")
_BITS_RE = re.compile(r"(?i:hexbits)=([0-9a-fA-F]+)")


class SetFileError(ValueError):
    """Malformed set file."""


def _clip(text: str) -> str:
    return text if len(text) <= 40 else text[:40] + "..."


def _bad_line(kind: str, line: str, start: int) -> SetFileError:
    """Names the first column from start on that holds no hex digit."""
    m = _HEX_RE.match(line, start)
    col = m.end() if m else start
    return SetFileError(f"bad {kind} line {_clip(line)!r}: no hex digit at "
                        f"column {col + 1}")


def read_set_file(path: str, max_n: int) -> PointSet:
    """The set in a set file, refusing any n above max_n."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [ln.strip() for ln in fh]
    except UnicodeDecodeError:
        raise SetFileError(f"set file {path} is not ASCII text") from None
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise SetFileError("empty set file")
    m = _N_RE.match(lines[0])
    if not m:
        raise SetFileError(
            f"first line must be n=<int>, got {_clip(lines[0])!r}")
    digits = m.group(1).lstrip("0") or "0"
    # Check the cap before anything is sized by n (1 << n below).
    if len(digits) > len(str(max_n)) or int(digits) > max_n:
        raise SetFileError(
            f"n={_clip(digits)} is above the dimension cap {max_n}")
    n = int(digits)
    if n < 1:
        raise SetFileError("n must be >= 1")
    body = lines[1:]
    if body and body[0][:8].lower() == "hexbits=":
        if len(body) > 1:
            raise SetFileError("a hexbits line must be the only line after n=")
        bm = _BITS_RE.fullmatch(body[0])
        if not bm:
            raise _bad_line("hexbits", body[0], 8)
        bits = int(bm.group(1), 16)
        if bits.bit_length() > (1 << n):
            raise SetFileError("bitmap has points outside the group")
        return PointSet(n, bits)
    seen = set()
    for ln in body:
        if not _HEX_RE.fullmatch(ln):
            raise _bad_line("point", ln, 0)
        x = int(ln, 16)
        if x >= (1 << n):
            raise SetFileError(f"point {_clip(ln)} outside the group")
        if x in seen:
            raise SetFileError(f"duplicate point {_clip(ln)}")
        seen.add(x)
    return PointSet.from_points(n, seen)


def write_set_file(path: str, a: PointSet) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"n={a.dim.n}\nhexbits={a.set_hex()}\n")


def _pair(x: DyadicScalar) -> dict:
    return {"num": x.num, "exp": x.exp}


def certificate_payload(a: PointSet, trace: IterationTrace,
                        max_order: int) -> dict:
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
                "l1": _pair(st.l1),
            }
            for st in trace.steps
        ],
        "final_bound": _pair(trace.final_bound),
        "termination": trace.termination.value,
        "max_order": max_order,
        "tool_commit": tool_commit(),
    }


def write_certificate(path: str, payload: dict) -> None:
    """The one JSON writer, for certificates and witness files alike."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps(payload) + "\n")


def load_certificate(path: str) -> dict:
    with open(path, "r", encoding="ascii") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("certificate JSON nests too deeply") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(
                f"certificate {path} is not valid ASCII JSON: {exc}") from None


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _need(ok: bool, where: str, what: str) -> None:
    if not ok:
        raise ValueError(f"malformed certificate: {where} must be {what}")


def _keys_in(obj, keys: Tuple[str, ...], where: str) -> None:
    _need(isinstance(obj, dict) and set(obj) == set(keys), where,
          "an object with exactly the keys " + ", ".join(keys))


def _pair_in(obj, where: str, n: int) -> DyadicScalar:
    """A {num, exp} pair; every certified value is at most 2^(n/2) <= 2^n."""
    _need(isinstance(obj, dict) and _is_int(obj.get("num"))
          and _is_int(obj.get("exp")), where, "a {num, exp} pair of integers")
    _need(0 <= obj["exp"] <= HARD_EXP_CAP, f"{where}.exp",
          f"in [0, {HARD_EXP_CAP}]")
    _need(abs(obj["num"]) <= 1 << (obj["exp"] + n), f"{where}.num",
          "at most 2^(exp + n) in absolute value")
    return DyadicScalar(obj["num"], obj["exp"])


def _step_in(st, where: str, n: int) -> tuple:
    """(s, dim_before, dim_after, gain, l1), each checked."""
    # A level index s is at most 2n + 1: nonzero residual coefficients are
    # at least 2^-2n and ||f_V||_1 <= 1.  This keeps 3**s and 4**s small.
    _keys_in(st, _STEP_KEYS, where)
    for key, top in (("s", 2 * n + 1), ("dim_before", n), ("dim_after", n)):
        _need(_is_int(st[key]), f"{where} {key}", "an integer")
        _need(0 <= st[key] <= top, f"{where} {key}", f"in [0, {top}]")
    return (st["s"], st["dim_before"], st["dim_after"],
            _pair_in(st["gain"], f"{where} gain", n),
            _pair_in(st["l1"], f"{where} l1", n))


def check_certificate(a: PointSet, cert,
                      ) -> Tuple[List[str], Optional[DyadicScalar]]:
    """Recheck a loaded certificate against its set: (problems, final_bound).

    problems is [] when the certificate is sound; final_bound is None when
    its version or n already disagree.  Every field is decoded into a
    checked, typed value before anything is computed from it, so a
    certificate not shaped like the tool's output raises ValueError
    instead: it refutes nothing.
    """
    _need(isinstance(cert, dict), "top level", "an object")
    version, n = cert.get("version"), cert.get("n")
    if not _is_int(version) or version != CERT_VERSION:
        v1 = _is_int(version) and version == 1
        fix = "; re-run lowerbound to write version 2" if v1 else ""
        return [f"unsupported version {version!r}{fix}"], None
    if not _is_int(n) or n != a.dim.n:
        return [f"n mismatch: file {a.dim.n}, certificate {n}"], None
    _keys_in(cert, _CERT_KEYS, "top level")
    alpha = _pair_in(cert["alpha"], "alpha", n)
    claimed = _pair_in(cert["a_norm"], "a_norm", n)
    final = _pair_in(cert["final_bound"], "final_bound", n)
    trace = cert["trace"]
    _need(isinstance(trace, list), "trace", "a list")
    steps = [_step_in(st, f"trace step {i}", n) for i, st in enumerate(trace)]
    term = cert["termination"]
    _need(isinstance(term, str), "termination", "a string")
    max_order = cert["max_order"]
    _need(_is_int(max_order) and 1 <= max_order <= MAX_ORDER, "max_order",
          f"an integer in [1, 2^{HARD_DIM_CAP}]")

    problems: List[str] = []
    if alpha != a.density():
        problems.append(f"alpha {alpha} != set density {a.density()}")
    norm = set_a_norm(a)
    if claimed != norm:
        problems.append(f"a_norm {claimed} != recomputed {norm}")
    if final > norm:
        problems.append(f"final_bound {final} exceeds a_norm {norm}")
    total = alpha
    dim = 0
    # ||f_V||_1 = 2 (alpha - sum_V hat(chi_A)^2) = (m|A| - sum c^2) /
    # 2^(2n - d - 1), over A's coset counts c and m = 2^(n - d).  At V = {0}
    # it is 2 alpha (1 - alpha); it falls as V grows and meets Lemma 1's floor.
    prev = (a.density() * (1 - a.density())).mul_pow2(1)
    floors = physical_lower_bound([a.size] * len(steps), n,
                                  [st[1] for st in steps])
    for i, (s, before, after, gain, l1) in enumerate(steps):
        if before != dim:
            problems.append(f"step {i}: dim_before {before} != {dim}")
        if 1 << before > max_order:
            problems.append(f"step {i}: starts at order 2^{before} above "
                            f"max_order {max_order}")
        dim = after
        if dim <= before:
            problems.append(f"step {i}: subspace did not grow")
        if i == 0 and l1 != prev:
            problems.append(f"step 0: l1 {l1} != 2 alpha (1 - alpha) = {prev}")
        if i and l1 >= prev:
            problems.append(f"step {i}: l1 {l1} not below step {i - 1}'s")
        prev = l1
        floor = DyadicScalar(int(floors[0][i]), int(floors[1][i]))
        if l1 < floor:
            problems.append(f"step {i}: l1 {l1} below Lemma 1's floor {floor}")
        if l1.exp > 2 * n - before - 1:
            problems.append(f"step {i}: l1 {l1} has a denominator above "
                            "2^(2n - dim_before - 1)")
        if l1 <= 0:
            problems.append(f"step {i}: l1 {l1} is not positive")
        elif dim - before > step_ceiling(s, l1):
            problems.append(f"step {i}: growth above the Chang ceiling")
        # A step's gain must meet the floor of the level it was taken at.
        if not meets_gain_floor(gain, s):
            problems.append(f"step {i}: gain {gain} below (1/6)(4/3)^{s}")
        total = total + gain
    if total != final:
        problems.append(
            f"alpha plus step gains {total} != final_bound {final}")
    # The run stops only when |V| > max_order or the residual is zero.
    expected = (Termination.ORDER_CAP if 1 << dim > max_order
                else Termination.RESIDUAL_ZERO)
    if term != expected.value:
        problems.append(f"termination {term!r} != {expected.value} for "
                        f"dimension {dim} and max_order {max_order}")
    if expected is Termination.RESIDUAL_ZERO and final != norm:
        problems.append(
            f"ResidualZero must certify the exact norm: {final} != {norm}")
    return problems, final


def witness_payload(witness: CosetUnionWitness,
                    norm: DyadicScalar) -> dict:
    return {
        "version": 2,
        "kind": "coset_union_witness",
        "n": witness.dim.n,
        "exponents": list(witness.density.exponents),
        "alpha": _pair(witness.density.value()),
        "lambdas": [list(lam.basis) for lam in witness.lambdas],
        "gammas": list(witness.gammas),
        "offsets": list(witness.offsets),
        "a_norm": _pair(norm),
        "part_count": witness.density.k,
        "tool_commit": tool_commit(),
    }


def tool_commit() -> str:
    """The package version, the value of every output's tool_commit key."""
    return __version__
