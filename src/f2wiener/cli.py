"""Command-line surface: norms, constructions, certificates, searches.

Everything is driven by flags (with an optional --config TOML file for
defaults); no behavior depends on environment variables, so a recorded
command line reproduces its output byte for byte.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
import tomllib
from typing import List, Optional

from .chang import STRATEGIES, NoQualifyingLevel, ZeroMass
from .constructions import (DyadicDensity, ExponentOverflow, ResolutionError,
                            build_coset_union, density_family)
from .dyadic import DyadicScalar, ONE, ZERO
from .explore import (AnnealParams, BudgetExceeded, DEFAULT_BUDGET,
                      append_record, min_norm_anneal, min_norm_exhaustive)
from .fileio import (SetFileError, certificate_payload, check_certificate,
                     load_certificate, read_set_file, witness_payload,
                     write_certificate, write_set_file, dumps_deterministic)
from .groups import HARD_DIM_CAP, HARD_EXP_CAP
from .iteration import hypothesis_check, run_iteration
from .setfuncs import set_a_norm
from .verify import SUITE_NAMES, run_suite

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BAD_INPUT = 2
EXIT_RESOURCE = 3

# Set files and --n above this are refused unless a config raises max_n.
DEFAULT_MAX_N = 16
CONFIG_KEYS = ("max_n", "strategy", "step_cap", "trials", "seed", "jobs",
               "budget", "anneal_t0", "anneal_cooling", "anneal_steps")


def _load_config(path: str) -> dict:
    """TOML settings, with the keys of every table merged into one level."""
    with open(path, "rb") as fh:
        raw = tomllib.load(fh)
    flat = {}
    for k, v in raw.items():
        if isinstance(v, dict):
            flat.update(v)
        else:
            flat[k] = v
    for k in flat:
        if k not in CONFIG_KEYS:
            raise ValueError(f"unknown config key {k!r}")
    return flat


def _setting(flag, cfg: dict, key: str, default, kind: type):
    """The flag if given, else cfg[key] checked against kind, else default.

    kind is int or float; a float setting also takes an int, and neither
    takes a bool (TOML `true` is not a count).
    """
    if flag is not None:
        return flag
    value = cfg.get(key, default)
    allowed = (int,) if kind is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, allowed):
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"config value {key} must be {noun}, not {value!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="f2wiener",
        description="Exact Wiener-norm computations on subsets of F2^n",
    )
    parser.add_argument("--config", metavar="PATH",
                        help="TOML file supplying flag defaults")
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
    p.add_argument("--strategy", choices=STRATEGIES)
    p.add_argument("--step-cap", type=int)
    p.add_argument("--out", help="certificate path (default SETFILE.cert.json)")
    p.add_argument("--no-hypothesis", action="store_true",
                   help="omit the fractional-part hypothesis report")

    p = sub.add_parser("profile", help="print the density hypothesis profile")
    p.add_argument("--alpha", required=True, metavar="NUM/2^EXP")
    p.add_argument("--max-dim", type=int, required=True)

    p = sub.add_parser("verify", help="run randomized identity/inequality suites")
    p.add_argument("--suite", default="all",
                   choices=list(SUITE_NAMES) + ["all"])
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int)

    p = sub.add_parser("explore", help="search for minimum-norm sets")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--method", choices=["exhaustive", "anneal"],
                   default="exhaustive")
    p.add_argument("--seed", type=int)
    p.add_argument("--ledger", help="CSV ledger to append the record to")
    p.add_argument("--budget", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--t0", type=float)
    p.add_argument("--cooling", type=float)

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


def _cmd_norm(args, cfg, max_n) -> int:
    a = read_set_file(args.setfile, max_n)
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


def _cmd_construct(args, cfg, max_n) -> int:
    _check_n(args.n, max_n)
    if args.exponents is not None:
        if args.family is not None or args.k is not None:
            raise ValueError("--exponents excludes --family/--k")
        density = _parse_exponents(args.exponents)
        base = args.out or f"custom_n{args.n}"
    else:
        if args.family is None or args.k is None:
            raise ValueError("need --family and --k, or --exponents")
        density = density_family(args.family, args.k)
        base = args.out or f"{args.family}_k{args.k}_n{args.n}"
    a, witness = build_coset_union(density, args.n)
    norm = set_a_norm(a)
    if norm > DyadicScalar(density.k):
        raise ArithmeticError(
            f"construction norm {norm} exceeds the part count {density.k}"
        )
    set_path = base + ".set"
    wit_path = base + ".witness.json"
    write_set_file(set_path, a)
    with open(wit_path, "w", encoding="ascii") as fh:
        fh.write(dumps_deterministic(witness_payload(witness, norm)) + "\n")
    print(f"set file: {set_path}")
    print(f"witness: {wit_path}")
    print(f"n = {a.dim.n}")
    print(f"size = {a.size}")
    print(_dyadic_line("alpha", a.density()))
    print(_dyadic_line("a_norm", norm))
    print(f"part count k = {density.k}")
    return EXIT_OK


def _cmd_lowerbound(args, cfg, max_n) -> int:
    a = read_set_file(args.setfile, max_n)
    strategy = args.strategy or cfg.get("strategy", "smallest-s")
    if strategy not in STRATEGIES:
        raise ValueError(f"config value strategy must be in {STRATEGIES}")
    step_cap = _setting(args.step_cap, cfg, "step_cap", 64, int)
    trace = run_iteration(a, args.max_order, strategy, step_cap)
    hypothesis = None
    if not args.no_hypothesis:
        hypothesis = hypothesis_check(a.density(), args.max_order)
    out = args.out or (args.setfile + ".cert.json")
    write_certificate(out, certificate_payload(a, trace, hypothesis))
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


def _cmd_profile(args, cfg, max_n) -> int:
    alpha = DyadicScalar.parse(args.alpha)
    # Bounds the exact decimal, which takes 5^exp.
    if alpha.exp > HARD_EXP_CAP:
        raise ValueError(f"alpha exponent must be at most {HARD_EXP_CAP}")
    if not ZERO <= alpha <= ONE:
        raise ValueError("alpha must lie in [0, 1]")
    if not 0 <= args.max_dim <= HARD_DIM_CAP:
        raise ValueError(f"max-dim must lie in [0, {HARD_DIM_CAP}]")
    max_order = 1 << args.max_dim
    report = hypothesis_check(alpha, max_order)
    print(_dyadic_line("alpha", alpha))
    print(f"max_order = {max_order}")
    for row in report.rows:
        print(f"d={row.d}  order={1 << row.d}  frac={_frac_str(row.frac)}  "
              f"product={_frac_str(row.product)}  scaled={_frac_str(row.scaled)}")
    print(f"c_plain = {_frac_str(report.c_plain)}")
    print(f"c_scaled = {_frac_str(report.c_scaled)}")
    return EXIT_OK


def _cmd_verify(args, cfg, max_n) -> int:
    trials = _setting(args.trials, cfg, "trials", 500, int)
    seed = _setting(args.seed, cfg, "seed", 0, int)
    jobs = _setting(args.jobs, cfg, "jobs", 1, int)
    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    failed = False
    for name in names:
        result = run_suite(name, trials, seed, jobs)
        status = "PASS" if result.ok else "FAIL"
        print(f"suite {name}: trials={result.trials} "
              f"violations={len(result.violations)} {status}")
        for msg in result.violations:
            print(f"  {msg}")
        failed = failed or not result.ok
    return EXIT_VIOLATION if failed else EXIT_OK


def _cmd_explore(args, cfg, max_n) -> int:
    _check_n(args.n, max_n)
    seed = _setting(args.seed, cfg, "seed", 0, int)
    if args.method == "exhaustive":
        budget = _setting(args.budget, cfg, "budget", DEFAULT_BUDGET, int)
        rec = min_norm_exhaustive(args.n, args.size, budget)
    else:
        params = AnnealParams(
            t0=_setting(args.t0, cfg, "anneal_t0", 1.0, float),
            cooling=_setting(args.cooling, cfg, "anneal_cooling", 0.995,
                             float),
            steps=_setting(args.steps, cfg, "anneal_steps", 10_000, int),
        )
        rec = min_norm_anneal(args.n, args.size, params, seed)
    if args.ledger:
        append_record(args.ledger, rec)
    print(f"n = {rec.n}")
    print(f"size = {rec.set_size}")
    print(f"method = {rec.method} seed = {rec.seed}")
    print(_dyadic_line("best_norm", rec.best_norm))
    print(f"best_set hex = {rec.best_set.set_hex()}")
    print(f"evaluations = {rec.evaluations}")
    return EXIT_OK


def _cmd_check_cert(args, cfg, max_n) -> int:
    a = read_set_file(args.setfile, max_n)
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
        cfg = _load_config(args.config) if args.config else {}
        max_n = _setting(None, cfg, "max_n", DEFAULT_MAX_N, int)
        if not 1 <= max_n <= HARD_DIM_CAP:
            raise ValueError(f"dimension cap must lie in [1, {HARD_DIM_CAP}]")
        return _COMMANDS[args.command](args, cfg, max_n)
    except (BudgetExceeded, ExponentOverflow, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (NoQualifyingLevel, ZeroMass, ArithmeticError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (SetFileError, ResolutionError, FileNotFoundError, ValueError,
            KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
