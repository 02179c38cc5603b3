"""Command-line surface: norms, constructions, certificates, searches.

Everything is driven by flags, each with one default; no behavior depends
on environment variables or files the command line does not name, so a
recorded command line reproduces its output byte for byte; the
tool_commit field of certificates and witness files is the package version.
Certificates (version 2) hold integers and strings only; check-cert derives
each step's Chang ceiling from its ||f_V||_1 and refuses version 1.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from typing import List, Optional

from .chang import STRATEGIES, NoQualifyingLevel, ZeroMass
from .constructions import (DyadicDensity, ExponentOverflow,
                            build_coset_union, density_family)
from .dyadic import DyadicScalar, ONE, ZERO
from .explore import (AnnealParams, BudgetExceeded, DEFAULT_BUDGET,
                      append_record, check_ledger, min_norm_anneal,
                      min_norm_exhaustive)
from .fileio import (SetFileError, certificate_payload, check_certificate,
                     load_certificate, read_set_file, witness_payload,
                     write_certificate, write_set_file)
from .groups import HARD_DIM_CAP, HARD_EXP_CAP, as_dim
from .iteration import run_iteration
from .setfuncs import set_a_norm
from .verify import SUITE_NAMES, run_suite

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BAD_INPUT = 2
EXIT_RESOURCE = 3

# Set files and --n above this are refused unless --max-n raises the cap.
DEFAULT_MAX_N = 16


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="f2wiener",
        description="Exact Wiener-norm computations on subsets of F2^n",
    )
    parser.add_argument("--max-n", type=int, default=DEFAULT_MAX_N,
                        help="largest n a set file or --n may have "
                             f"(1 to {HARD_DIM_CAP}, default %(default)s)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="print the exact Wiener norm of a set")
    p.add_argument("setfile")

    p = sub.add_parser("construct", help="build a coset-union set")
    p.add_argument("--family", choices=["geometric4", "double_exp"])
    p.add_argument("--k", type=int)
    p.add_argument("--exponents", help="comma-separated exponents d1,d2,...")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", help="output base path (BASE.set, BASE.witness.json)")

    p = sub.add_parser("lowerbound", help="emit a certified lower bound")
    p.add_argument("setfile")
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--strategy", choices=STRATEGIES, default=STRATEGIES[0])
    p.add_argument("--out", help="certificate path (default SETFILE.cert.json)")

    p = sub.add_parser("profile", help="print the density hypothesis profile")
    p.add_argument("--alpha", required=True, metavar="NUM/2^EXP")
    p.add_argument("--max-dim", type=int, required=True)

    p = sub.add_parser("verify", help="run randomized identity/inequality suites")
    p.add_argument("--suite", default="all",
                   choices=list(SUITE_NAMES) + ["all"])
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("explore", help="search for minimum-norm sets")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--method", choices=["exhaustive", "anneal"],
                   default="exhaustive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ledger", help="CSV ledger to append the record to")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--steps", type=int, default=AnnealParams.steps)
    p.add_argument("--t0", type=float, default=AnnealParams.t0)
    p.add_argument("--cooling", type=float, default=AnnealParams.cooling)

    p = sub.add_parser("check-cert", help="recheck a certificate against a set")
    p.add_argument("setfile")
    p.add_argument("certificate")
    return parser


def _dyadic_line(label: str, x: DyadicScalar) -> str:
    return f"{label} = {x} = {x.decimal_str()}"


def _frac_str(x: DyadicScalar) -> str:
    q = x.as_fraction()
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _check_n(n: int, max_n: int) -> None:
    if n > max_n:
        raise ValueError(f"--n {n} is above the dimension cap {max_n}")


def _check_out_path(path: str) -> None:
    """Refuse an output path that cannot be written: a directory, or a
    file in a directory that does not exist.  Called before the work
    whose result goes there, and without opening the path."""
    if os.path.isdir(path):
        raise ValueError(f"output path {path} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ValueError(f"output path {path}: no directory {parent}")


def _cmd_norm(args) -> int:
    a = read_set_file(args.setfile, args.max_n)
    print(f"n = {a.dim.n}")
    print(f"size = {a.size}")
    print(_dyadic_line("alpha", a.density()))
    print(_dyadic_line("a_norm", set_a_norm(a)))
    return EXIT_OK


def _parse_exponents(text: str) -> DyadicDensity:
    try:
        exps = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad exponent list {text!r}") from exc
    return DyadicDensity(exps)


def _cmd_construct(args) -> int:
    _check_n(args.n, args.max_n)
    if args.exponents is not None:
        if args.family is not None or args.k is not None:
            raise ValueError("--exponents excludes --family/--k")
        density = _parse_exponents(args.exponents)
        base = args.out or f"custom_n{args.n}"
    else:
        if args.family is None or args.k is None:
            raise ValueError("need --family and --k, or --exponents")
        # k parts need k distinct exponents in [1, n]; refuse a larger k
        # before density_family builds them.
        if args.k > as_dim(args.n).n:
            raise ExponentOverflow(f"--k {args.k} needs {args.k} distinct "
                                   f"exponents in [1, {args.n}]")
        density = density_family(args.family, args.k)
        base = args.out or f"{args.family}_k{args.k}_n{args.n}"
    set_path = base + ".set"
    wit_path = base + ".witness.json"
    _check_out_path(set_path)
    _check_out_path(wit_path)
    a, witness = build_coset_union(density, args.n)
    norm = set_a_norm(a)
    if norm > DyadicScalar(density.k):
        raise ArithmeticError(
            f"construction norm {norm} exceeds the part count {density.k}"
        )
    write_set_file(set_path, a)
    write_certificate(wit_path, witness_payload(witness, norm))
    print(f"set file: {set_path}")
    print(f"witness: {wit_path}")
    print(f"n = {a.dim.n}")
    print(f"size = {a.size}")
    print(_dyadic_line("alpha", a.density()))
    print(_dyadic_line("a_norm", norm))
    print(f"part count k = {density.k}")
    return EXIT_OK


def _cmd_lowerbound(args) -> int:
    a = read_set_file(args.setfile, args.max_n)
    out = args.out or (args.setfile + ".cert.json")
    _check_out_path(out)
    if os.path.exists(out) and os.path.samefile(out, args.setfile):
        raise ValueError(f"output path {out} is the set file")
    trace = run_iteration(a, args.max_order, args.strategy)
    write_certificate(out, certificate_payload(a, trace, args.max_order))
    print(f"n = {a.dim.n}")
    print(_dyadic_line("alpha", a.density()))
    print(_dyadic_line("a_norm", trace.a_norm))
    print(_dyadic_line("final_bound", trace.final_bound))
    print(f"termination = {trace.termination.value} after {len(trace.steps)} steps")
    if trace.steps:
        floor = trace.gain_floor()
        ratio = trace.final_bound.as_fraction() / floor
        print(f"guaranteed gain floor = {floor} (achieved/floor = {float(ratio):.6g})")
    if args.max_order >= 2:
        loglog = math.log(math.log(args.max_order))
        if loglog > 0:
            ratio = float(trace.final_bound.as_fraction()) / loglog
            print(f"final_bound / loglog(max_order) = {ratio:.6g}")
        else:
            print(f"loglog(max_order) = {loglog:.6g} (ratio not meaningful)")
    print(f"certificate: {out}")
    return EXIT_OK


def _cmd_profile(args) -> int:
    alpha = DyadicScalar.parse(args.alpha)
    # Bounds the exact decimal, which takes 5^exp.
    if alpha.exp > HARD_EXP_CAP:
        raise ValueError(f"alpha exponent must be at most {HARD_EXP_CAP}")
    if not ZERO <= alpha <= ONE:
        raise ValueError("alpha must lie in [0, 1]")
    if not 0 <= args.max_dim <= HARD_DIM_CAP:
        raise ValueError(f"max-dim must lie in [0, {HARD_DIM_CAP}]")
    print(_dyadic_line("alpha", alpha))
    print(f"max_order = {1 << args.max_dim}")
    # Row d: frac {alpha 2^d}, product frac (1 - frac), scaled product 2^d.
    products, scaled = [], []
    for d in range(args.max_dim + 1):
        frac = alpha.mul_pow2(d).frac()
        products.append(frac * (ONE - frac))
        scaled.append(products[-1].mul_pow2(d))
        print(f"d={d}  order={1 << d}  frac={_frac_str(frac)}  product="
              f"{_frac_str(products[-1])}  scaled={_frac_str(scaled[-1])}")
    print(f"c_plain = {_frac_str(min(products))}")
    print(f"c_scaled = {_frac_str(min(scaled))}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    failed = False
    for name in names:
        result = run_suite(name, args.trials, args.seed, args.jobs)
        status = "PASS" if result.ok else "FAIL"
        print(f"suite {name}: trials={result.trials} "
              f"violations={len(result.violations)} {status}")
        for msg in result.violations:
            print(f"  {msg}")
        failed = failed or not result.ok
    return EXIT_VIOLATION if failed else EXIT_OK


def _cmd_explore(args) -> int:
    _check_n(args.n, args.max_n)
    if args.ledger:
        _check_out_path(args.ledger)
        check_ledger(args.ledger)
    if args.method == "exhaustive":
        rec = min_norm_exhaustive(args.n, args.size, args.budget)
    else:
        params = AnnealParams(args.t0, args.cooling, args.steps)
        rec = min_norm_anneal(args.n, args.size, params, args.seed)
    if args.ledger:
        append_record(args.ledger, rec)
    print(f"n = {rec.n}")
    print(f"size = {rec.set_size}")
    print(f"method = {rec.method} seed = {rec.seed}")
    print(_dyadic_line("best_norm", rec.best_norm))
    print(f"best_set hex = {rec.best_set.set_hex()}")
    print(f"evaluations = {rec.evaluations}")
    return EXIT_OK


def _cmd_check_cert(args) -> int:
    a = read_set_file(args.setfile, args.max_n)
    cert = load_certificate(args.certificate)
    problems, final = check_certificate(a, cert)
    if problems:
        for msg in problems:
            print(f"PROBLEM: {msg}")
        print(f"certificate FAILED {len(problems)} checks")
        return EXIT_VIOLATION
    print(f"certificate OK: a_norm >= {final} = {final.decimal_str()}")
    return EXIT_OK


_COMMANDS = {
    "norm": _cmd_norm,
    "construct": _cmd_construct,
    "lowerbound": _cmd_lowerbound,
    "profile": _cmd_profile,
    "verify": _cmd_verify,
    "explore": _cmd_explore,
    "check-cert": _cmd_check_cert,
}


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on first use and shared by every main() call."""
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if not 1 <= args.max_n <= HARD_DIM_CAP:
            raise ValueError(f"dimension cap must lie in [1, {HARD_DIM_CAP}]")
        return _COMMANDS[args.command](args)
    except (BudgetExceeded, ExponentOverflow, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError as exc:
        print(f"error: out of memory in {args.command}: {exc}".rstrip(": "),
              file=sys.stderr)
        return EXIT_RESOURCE
    except (NoQualifyingLevel, ZeroMass, ArithmeticError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (SetFileError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
