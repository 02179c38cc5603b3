import concurrent.futures
import contextlib
import hashlib
import io
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from f2wiener import __version__, cli, verify
from f2wiener.cli import DEFAULT_MAX_N, build_parser, main
from f2wiener.constructions import build_coset_union, density_family
from f2wiener.explore import CSV_COLUMNS
from f2wiener.fileio import write_set_file
from f2wiener.groups import HARD_EXP_CAP
from f2wiener.iteration import MAX_ORDER
from f2wiener.setfuncs import PointSet

from _reference import witness_problems


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _set_file(tmp_path, name="a.set", n=4, points=(0, 2, 4, 8, 12)):
    path = tmp_path / name
    write_set_file(str(path), PointSet.from_points(n, points))
    return str(path)


def test_norm_command(workdir, capsys):
    path = _set_file(workdir)
    assert main(["norm", path]) == 0
    out = capsys.readouterr().out
    assert "n = 4" in out
    assert "size = 5" in out
    assert "alpha = 5/2^4 = 0.3125" in out
    assert "a_norm = 7/2^2 = 1.75" in out


def test_construct_and_norm_agree(workdir, capsys):
    assert main(["construct", "--family", "geometric4", "--k", "2",
                 "--n", "4", "--out", "fam"]) == 0
    out = capsys.readouterr().out
    assert "a_norm = 7/2^2 = 1.75" in out
    assert (workdir / "fam.set").read_text() == "n=4\nhexbits=1115\n"
    wit = json.loads((workdir / "fam.witness.json").read_text())
    assert wit["exponents"] == [2, 4]
    assert main(["norm", "fam.set"]) == 0
    assert "a_norm = 7/2^2 = 1.75" in capsys.readouterr().out


def test_construct_custom_exponents(workdir, capsys):
    assert main(["construct", "--exponents", "1,3", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "custom_n3.set" in out
    assert (workdir / "custom_n3.set").exists()


def test_construct_flag_conflicts(workdir, capsys):
    assert main(["construct", "--exponents", "1,2", "--family", "geometric4",
                 "--k", "2", "--n", "4"]) == 2
    assert main(["construct", "--n", "4"]) == 2
    assert main(["construct", "--exponents", "1,x", "--n", "4"]) == 2


def _written(base):
    """(set bitmap, witness JSON) of a construct run, read by hand."""
    text = pathlib.Path(base + ".set").read_text()
    bits = int(text.split("hexbits=")[1], 16)
    return bits, json.loads(pathlib.Path(base + ".witness.json").read_text())


@pytest.mark.parametrize("family", ["geometric4", "double_exp"])
def test_construct_witness_rechecks_from_json(workdir, capsys, family):
    # A reader without the package rebuilds every part from the witness's
    # generators alone, at every k whose exponents fit in n <= 12.
    for n in range(1, 13):
        for k in range(1, n + 1):
            if density_family(family, k).exponents[-1] > n:
                break
            assert main(["construct", "--family", family, "--k", str(k),
                         "--n", str(n), "--out", "w"]) == 0
            bits, wit = _written("w")
            assert witness_problems(wit, bits) == [], (n, k)
    capsys.readouterr()


def test_construct_custom_witness_rechecks_from_json(workdir, capsys):
    assert main(["construct", "--exponents", "1,3", "--n", "5",
                 "--out", "c"]) == 0
    capsys.readouterr()
    bits, wit = _written("c")
    assert (wit["exponents"], wit["offsets"]) == ([1, 3], [1])
    assert witness_problems(wit, bits) == []
    # The reader refuses a witness that does not rebuild its set.
    for key, value in (("offsets", [0]), ("part_count", 3),
                       ("alpha", {"num": 3, "exp": 3}),
                       ("lambdas", [[1], [1, 2, 8]])):
        assert witness_problems(dict(wit, **{key: value}), bits), key


def test_construct_overflow_is_resource_exit(workdir, capsys):
    assert main(["construct", "--family", "geometric4", "--k", "3",
                 "--n", "4"]) == 3
    assert "exceeds the dimension" in capsys.readouterr().err


@pytest.mark.parametrize("family", ["geometric4", "double_exp"])
def test_construct_refuses_more_parts_than_dimensions(workdir, capsys,
                                                      monkeypatch, family):
    # k parts need k distinct exponents in [1, n]; the refusal must come
    # before the family's exponents are built (here a billion of them).
    def bounded(kind, k):
        assert k <= 64, "density_family called with an unbounded k"
        return density_family(kind, k)

    monkeypatch.setattr(cli, "density_family", bounded)
    start = time.perf_counter()
    assert main(["construct", "--family", family, "--k", "1000000000",
                 "--n", "4"]) == 3
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr()
    assert out.out == "" and out.err == (
        "error: --k 1000000000 needs 1000000000 distinct exponents in "
        "[1, 4]\n")
    assert list(workdir.iterdir()) == []


def test_lowerbound_and_check_cert(workdir, capsys):
    path = _set_file(workdir)
    assert main(["lowerbound", path, "--max-order", "16"]) == 0
    out = capsys.readouterr().out
    assert "termination = ResidualZero" in out
    assert "final_bound = 7/2^2 = 1.75" in out
    assert "final_bound / loglog(max_order)" in out
    cert_path = path + ".cert.json"
    first = (workdir / "a.set.cert.json").read_bytes()
    assert main(["lowerbound", path, "--max-order", "16"]) == 0
    capsys.readouterr()
    assert (workdir / "a.set.cert.json").read_bytes() == first
    assert main(["check-cert", path, cert_path]) == 0
    assert "certificate OK" in capsys.readouterr().out


# sha256 of whole output files, tool_commit included: every byte is a
# function of the command line and the package version.
CERT_SHA256 = {
    16: "511f37f476e5535eb1d306f8e61a23cc3a80c8f4885b5949d7b53abc189585fe",
    256: "1abf42bc3884dd7dc822da8ffa7d40d053ce9d399da4c624909955c79f49a3d4",
}
WITNESS_SHA256 = (
    "1861fa80a986dd53f54c4b22bbbce70ed11b3666ac6da079a38e403e58fe032a")


def _sha256(path) -> str:
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("strategy", ["smallest-s", "best-ratio"])
@pytest.mark.parametrize("max_order", sorted(CERT_SHA256))
def test_output_files_are_pinned_byte_for_byte(workdir, capsys, strategy,
                                               max_order):
    assert main(["construct", "--family", "geometric4", "--k", "4",
                 "--n", "8", "--out", "g"]) == 0
    assert _sha256("g.witness.json") == WITNESS_SHA256
    assert main(["lowerbound", "g.set", "--max-order", str(max_order),
                 "--strategy", strategy, "--out", "c.json"]) == 0
    assert _sha256("c.json") == CERT_SHA256[max_order]


def test_certify_at_n18_in_process(workdir, capsys):
    # A scale smoke test above the default dimension cap; no time limit.
    cfg = ["--max-n", "18"]
    assert main(cfg + ["construct", "--family", "geometric4", "--k", "9",
                       "--n", "18", "--out", "g9"]) == 0
    assert main(cfg + ["lowerbound", "g9.set", "--max-order", str(1 << 18),
                       "--out", "g9.cert.json"]) == 0
    assert "termination = ResidualZero" in capsys.readouterr().out
    assert main(cfg + ["check-cert", "g9.set", "g9.cert.json"]) == 0
    assert "certificate OK" in capsys.readouterr().out


def test_check_cert_detects_tampering(workdir, capsys):
    path = _set_file(workdir)
    assert main(["lowerbound", path, "--max-order", "16",
                 "--out", "c.json"]) == 0
    capsys.readouterr()
    cert = json.loads((workdir / "c.json").read_text())
    cert["final_bound"]["num"] += 1 << cert["final_bound"]["exp"]
    (workdir / "c.json").write_text(json.dumps(cert))
    assert main(["check-cert", path, "c.json"]) == 1
    assert "FAILED" in capsys.readouterr().out


_DROP = object()


def _put(value, *path):
    """Mutation that sets cert[path[0]][path[1]]... to value, or deletes
    it when value is _DROP."""
    def mutate(c):
        target = c
        for key in path[:-1]:
            target = target[key]
        if value is _DROP:
            del target[path[-1]]
        else:
            target[path[-1]] = value
        return c
    return mutate


# n = 4 below, so a level index s lies in [0, 2n + 1] = [0, 9].
MALFORMED = {
    "top_level_list": lambda c: [c],
    "trace_string": _put("abc", "trace"),
    "gain_null": _put(None, "trace", 0, "gain"),
    "final_bound_string": _put("7/2^2", "final_bound"),
    "s_above_2n_plus_1": _put(10, "trace", 0, "s"),
    "s_huge": _put(10 ** 80, "trace", 0, "s"),
    "s_negative": _put(-1, "trace", 0, "s"),
    "s_float": _put(1.0, "trace", 0, "s"),
    "dim_bool": _put(False, "trace", 0, "dim_before"),
    "dim_above_n": _put(5, "trace", 2, "dim_after"),
    "step_not_object": _put([3], "trace"),
    "l1_nan": _put(float("nan"), "trace", 0, "l1"),
    "l1_string": _put("55/2^7", "trace", 0, "l1"),
    "l1_num_huge": _put(10 ** 400, "trace", 0, "l1", "num"),
    "l1_num_float": _put(55.0, "trace", 0, "l1", "num"),
    "num_4000_digits": _put({"num": 10 ** 3999, "exp": 4}, "alpha"),
    "num_above_2_to_exp_plus_n": _put({"num": 1 << 7, "exp": 2}, "a_norm"),
    "exp_huge": _put({"num": 1, "exp": 10 ** 9}, "alpha"),
    "exp_negative": _put({"num": 7, "exp": -2}, "final_bound"),
    "num_string": _put({"num": "7", "exp": 2}, "a_norm"),
    "termination_list": _put(["ResidualZero"], "termination"),
    "max_order_list": _put([16], "max_order"),
    "max_order_string": _put("16", "max_order"),
    "max_order_float": _put(16.0, "max_order"),
    "max_order_bool": _put(True, "max_order"),
    "max_order_zero": _put(0, "max_order"),
    "a_norm_missing": _put(_DROP, "a_norm"),
    "max_order_null": _put(None, "max_order"),
    "trace_missing": _put(_DROP, "trace"),
    "extra_top_level_key": _put(1, "comment"),
    "extra_step_key": _put(1, "trace", 0, "comment"),
    "step_key_missing": _put(_DROP, "trace", 1, "l1"),
}


@pytest.mark.parametrize("mutate", MALFORMED.values(), ids=MALFORMED.keys())
def test_check_cert_malformed_is_bad_input(workdir, capsys, mutate):
    path = _set_file(workdir)
    assert main(["lowerbound", path, "--max-order", "16",
                 "--out", "c.json"]) == 0
    capsys.readouterr()
    cert = json.loads((workdir / "c.json").read_text())
    assert cert["trace"] and cert["max_order"] == 16
    (workdir / "c.json").write_text(json.dumps(mutate(cert)))
    assert main(["check-cert", path, "c.json"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1
    assert out.err.startswith("error: malformed certificate: ")


def test_check_cert_level_at_bound_is_checked(workdir, capsys):
    # s = 2n + 1 is well formed, so a wrong gain there is a failed check.
    path = _set_file(workdir)
    assert main(["lowerbound", path, "--max-order", "16",
                 "--out", "c.json"]) == 0
    cert = json.loads((workdir / "c.json").read_text())
    (workdir / "c.json").write_text(json.dumps(_put(9, "trace", 0, "s")(cert)))
    capsys.readouterr()
    assert main(["check-cert", path, "c.json"]) == 1
    assert "below (1/6)(4/3)^9" in capsys.readouterr().out


# Edits of one step's l1 = ||f_V||_1, with the problem each must report.
# The set's residual norms are 55/2^7, 15/2^6 and 3/2^5, each equal to
# Lemma 1's floor at its dimension.
L1_TAMPERS = {
    "step_0_not_2_alpha_1_minus_alpha": (
        0, {"num": 7, "exp": 4},
        "step 0: l1 7/2^4 != 2 alpha (1 - alpha) = 55/2^7"),
    "not_below_previous": (
        1, {"num": 55, "exp": 7}, "step 1: l1 55/2^7 not below step 0's"),
    "below_floor": (
        2, {"num": 1, "exp": 4},
        "step 2: l1 1/2^4 below Lemma 1's floor 3/2^5"),
    "zero": (2, {"num": 0, "exp": 0}, "step 2: l1 0 is not positive"),
    # Between its neighbours and above the floor, but no residual at
    # dimension 2 has a denominator finer than 2^(2n - 2 - 1) = 2^5.
    "denominator_too_fine": (
        2, {"num": 7, "exp": 6},
        "step 2: l1 7/2^6 has a denominator above 2^(2n - dim_before - 1)"),
}


@pytest.mark.parametrize("step, l1, problem", L1_TAMPERS.values(),
                         ids=L1_TAMPERS.keys())
def test_check_cert_l1_tampering_fails(workdir, capsys, step, l1, problem):
    path = _set_file(workdir)
    assert main(["lowerbound", path, "--max-order", "16",
                 "--out", "c.json"]) == 0
    cert = json.loads((workdir / "c.json").read_text())
    assert [(st["l1"]["num"], st["l1"]["exp"]) for st in cert["trace"]] == [
        (55, 7), (15, 6), (3, 5)]
    cert["trace"][step]["l1"] = l1
    (workdir / "c.json").write_text(json.dumps(cert))
    capsys.readouterr()
    assert main(["check-cert", path, "c.json"]) == 1
    out = capsys.readouterr().out
    assert f"PROBLEM: {problem}\n" in out
    assert "certificate FAILED" in out


def test_check_cert_refuses_version_1(workdir, capsys):
    # A version 1 file, with its float ceilings and hypothesis report, is
    # refused as a whole, not read.
    path = _set_file(workdir)
    assert main(["lowerbound", path, "--max-order", "16",
                 "--out", "c.json"]) == 0
    cert = json.loads((workdir / "c.json").read_text())
    cert["version"] = 1
    for st in cert["trace"]:
        st["chang_ceiling"] = 21.744 * 4 ** st["s"]
        del st["l1"]
    cert["hypothesis"] = {"max_order": cert.pop("max_order")}
    (workdir / "c.json").write_text(json.dumps(cert))
    capsys.readouterr()
    assert main(["check-cert", path, "c.json"]) == 1
    assert capsys.readouterr().out == (
        "PROBLEM: unsupported version 1; re-run lowerbound to write "
        "version 2\ncertificate FAILED 1 checks\n")


def test_check_cert_deeply_nested(workdir, capsys):
    path = _set_file(workdir)
    (workdir / "c.json").write_text("[" * 100_000)
    assert main(["check-cert", path, "c.json"]) == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_max_order_cap_shared(workdir, capsys):
    # lowerbound accepts exactly the max_order values check-cert accepts.
    path = _set_file(workdir)
    assert main(["lowerbound", path, "--max-order", str(MAX_ORDER),
                 "--out", "c.json"]) == 0
    assert main(["check-cert", path, "c.json"]) == 0
    cert = json.loads((workdir / "c.json").read_text())
    assert cert["max_order"] == MAX_ORDER
    cert["max_order"] = MAX_ORDER + 1
    (workdir / "c.json").write_text(json.dumps(cert))
    capsys.readouterr()
    assert main(["check-cert", path, "c.json"]) == 2
    assert capsys.readouterr().err == (
        "error: malformed certificate: max_order must be an integer in "
        "[1, 2^30]\n")
    assert main(["lowerbound", path, "--max-order", str(MAX_ORDER + 1),
                 "--out", "d.json"]) == 2
    assert "max_order must lie in" in capsys.readouterr().err
    assert not (workdir / "d.json").exists()


def test_lowerbound_flags(workdir, capsys):
    path = _set_file(workdir)
    assert main(["lowerbound", path, "--max-order", "16", "--strategy",
                 "best-ratio", "--out", "c2.json"]) == 0
    cert = json.loads((workdir / "c2.json").read_text())
    assert cert["max_order"] == 16
    assert main(["lowerbound", path, "--max-order", "0"]) == 2
    # One stop rule and one certificate shape: the old switches are gone.
    for flag in ("--step-cap", "--no-hypothesis"):
        with pytest.raises(SystemExit) as exc:
            main(["lowerbound", path, "--max-order", "16", flag])
        assert exc.value.code == 2


def test_check_cert_accepts_both_terminations(workdir, capsys):
    path = _set_file(workdir)
    for order, termination in (("16", "ResidualZero"),
                               ("2", "OrderCapReached"),
                               ("1", "OrderCapReached")):
        assert main(["lowerbound", path, "--max-order", order,
                     "--out", "c.json"]) == 0
        assert f"termination = {termination}" in capsys.readouterr().out
        assert main(["check-cert", path, "c.json"]) == 0
        assert "certificate OK" in capsys.readouterr().out


def test_profile_output(workdir, capsys):
    assert main(["profile", "--alpha", "5/2^4", "--max-dim", "3"]) == 0
    out = capsys.readouterr().out
    assert "d=1  order=2  frac=5/8  product=15/64  scaled=15/32" in out
    assert "c_plain = 3/16" in out
    assert "c_scaled = 55/256" in out
    assert main(["profile", "--alpha", "5/3", "--max-dim", "2"]) == 2
    assert main(["profile", "--alpha", "17/2^4", "--max-dim", "2"]) == 2
    assert main(["profile", "--alpha", "1/2^1", "--max-dim", "31"]) == 2
    assert main(["profile", "--alpha", "1/2^1", "--max-dim", "-1"]) == 2
    # The exact decimal of alpha takes 5^exp, so the exponent is capped.
    capsys.readouterr()
    assert main(["profile", "--alpha", "1/2^100000000", "--max-dim", "2"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    assert f"at most {HARD_EXP_CAP}" in out.err
    assert main(["profile", "--alpha", f"1/2^{HARD_EXP_CAP}",
                 "--max-dim", "2"]) == 0


_ZERO_ROWS = "".join(f"d={d}  order={1 << d}  frac=0  product=0  scaled=0\n"
                     for d in range(3))
_TINY = ("d=30  order=1073741824  frac=7/1073741824  "
         "product=7516192719/1152921504606846976  "
         "scaled=7516192719/1073741824\n"
         "c_plain = 8070450532247928783/"
         "1329227995784915872903807060280344576\n"
         "c_scaled = 8070450532247928783/"
         "1329227995784915872903807060280344576\n")


@pytest.mark.parametrize("alpha, max_dim, expected", [
    ("0", 2, "alpha = 0 = 0\nmax_order = 4\n" + _ZERO_ROWS
     + "c_plain = 0\nc_scaled = 0\n"),
    ("1", 2, "alpha = 1 = 1\nmax_order = 4\n" + _ZERO_ROWS
     + "c_plain = 0\nc_scaled = 0\n"),
    # frac is 0 from d = 2 on, so both minima are 0
    ("3/2^2", 2, "alpha = 3/2^2 = 0.75\nmax_order = 4\n"
     "d=0  order=1  frac=3/4  product=3/16  scaled=3/16\n"
     "d=1  order=2  frac=1/2  product=1/4  scaled=1/2\n"
     "d=2  order=4  frac=0  product=0  scaled=0\n"
     "c_plain = 0\nc_scaled = 0\n"),
    # the smallest alpha step at the largest max-dim: 35 lines, pinned by
    # their sha256, the last row and both minima (at d = 0) spelled out
    ("7/2^60", 30,
     "7af23d94565530f3ce447b47c228798b50b670a169bdeca12151cd0642ae752d"),
])
def test_profile_edges(workdir, capsys, alpha, max_dim, expected):
    assert main(["profile", "--alpha", alpha, "--max-dim", str(max_dim)]) == 0
    out = capsys.readouterr().out
    if "\n" in expected:
        assert out == expected
    else:
        assert hashlib.sha256(out.encode()).hexdigest() == expected
        assert out.endswith(_TINY)


def test_verify_command(workdir, capsys):
    assert main(["verify", "--suite", "techlem", "--trials", "50",
                 "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "suite techlem: trials=50 violations=0 PASS" in out


def test_verify_all_small(workdir, capsys):
    assert main(["verify", "--trials", "5", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5


def test_explore_commands(workdir, capsys):
    assert main(["explore", "--n", "2", "--size", "3",
                 "--ledger", "runs.csv"]) == 0
    out = capsys.readouterr().out
    assert "best_norm = 3/2^1 = 1.5" in out
    assert "best_set hex = 7" in out
    assert main(["explore", "--n", "3", "--size", "3", "--method", "anneal",
                 "--seed", "4", "--steps", "300",
                 "--ledger", "runs.csv"]) == 0
    capsys.readouterr()
    rows = (workdir / "runs.csv").read_text().strip().splitlines()
    assert rows[0].startswith("n,size,method,seed")
    assert len(rows) == 3
    assert main(["explore", "--n", "5", "--size", "16",
                 "--budget", "100"]) == 3


# Anneal results at n = 10..12, three (n, size) pairs of perfbench's search
# workload and three more at its other sizes.  The best set is pinned by the
# first 16 hex digits of the sha256 of its "best_set hex" value.
ANNEAL_GOLDEN = [
    (10, 24, 1, "13/2^2 = 3.25", "90e8793c3220fe5e"),
    (10, 200, 2, "1135/2^7 = 8.8671875", "31805fbba2288c2e"),
    (11, 60, 3, "1449/2^8 = 5.66015625", "8643be410c67f112"),
    (11, 400, 4, "435/2^5 = 13.59375", "a064fd88d57e1265"),
    (12, 100, 5, "473/2^6 = 7.390625", "4ed49ed9f2925a08"),
    (12, 700, 6, "4503/2^8 = 17.58984375", "fcf4640ac3405fa9"),
]


@pytest.mark.parametrize("n,size,seed,norm,digest", ANNEAL_GOLDEN,
                         ids=[f"n{c[0]}_s{c[1]}" for c in ANNEAL_GOLDEN])
def test_explore_anneal_golden(workdir, capsys, n, size, seed, norm, digest):
    assert main(["explore", "--method", "anneal", "--n", str(n),
                 "--size", str(size), "--steps", "10000", "--seed", str(seed),
                 "--ledger", "runs.csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    hex_line = "best_set hex = "
    set_hex = next(x for x in lines if x.startswith(hex_line))[len(hex_line):]
    assert lines == [f"n = {n}", f"size = {size}",
                     f"method = anneal seed = {seed}", f"best_norm = {norm}",
                     hex_line + set_hex, "evaluations = 10001"]
    assert hashlib.sha256(set_hex.encode()).hexdigest()[:16] == digest
    num, exp = norm.split(" = ")[0].split("/2^")
    row = (workdir / "runs.csv").read_text().splitlines()[1]
    assert row == f"{n},{size},anneal,{seed},{num},{exp},{set_hex},10001"


def test_explore_rejects_bad_parameters(workdir, capsys):
    anneal = ["explore", "--method", "anneal", "--n", "4", "--size", "5"]
    cases = [anneal + ["--t0", "0"], anneal + ["--t0", "nan"],
             anneal + ["--cooling", "-1"], anneal + ["--steps", "-1"],
             anneal + ["--steps", str(10 ** 12)]]
    for argv in cases:
        assert main(argv) == 2, argv
        out = capsys.readouterr()
        assert out.out == "", argv
        assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert main(anneal + ["--cooling", "0.3", "--steps", "2000"]) == 0


def test_explore_bad_parameter_exit_in_child(tmp_path, package_env):
    out = subprocess.run(
        [sys.executable, "-m", "f2wiener", "explore", "--method", "anneal",
         "--n", "4", "--size", "5", "--t0", "0"],
        capture_output=True, text=True, cwd=tmp_path, env=package_env)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.count("\n") == 1
    assert "t0" in out.stderr and "Traceback" not in out.stderr


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 32.0 MiB", "out of memory in lowerbound: Unable to "
                                    "allocate 32.0 MiB"),
    ("", "out of memory in lowerbound")], ids=["message", "bare"])
def test_out_of_memory_is_resource_exit(workdir, capsys, monkeypatch,
                                        message, line):
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "run_iteration", exhausted)
    assert main(["lowerbound", _set_file(workdir), "--max-order", "16"]) == 3
    assert capsys.readouterr() == ("", f"error: {line}\n")
    assert not (workdir / "a.set.cert.json").exists()


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="RLIMIT_AS bounds allocations on Linux")
def test_out_of_memory_in_child_is_resource_exit(workdir, package_env):
    # lowerbound on the n = 22 one-third set peaks near 250 MB; the child,
    # and only the child, may map 200 MB.
    import resource

    a, _ = build_coset_union(density_family("geometric4", 11), 22)
    write_set_file("third22.set", a)
    limit = 200 << 20
    out = subprocess.run(
        [sys.executable, "-m", "f2wiener", "--max-n", "22", "lowerbound",
         "third22.set", "--max-order", str(1 << 22)],
        capture_output=True, text=True,
        env=dict(package_env, OPENBLAS_NUM_THREADS="1"),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (limit, limit)))
    assert out.returncode == 3, out.stderr
    assert out.stdout == ""
    assert out.stderr.startswith("error: out of memory in lowerbound")
    assert out.stderr.count("\n") == 1 and "Traceback" not in out.stderr
    assert not os.path.exists("third22.set.cert.json")


# Standard-library modules no lowerbound or check-cert run uses; each is
# imported, if at all, on the one path that needs it.
DEFERRED_MODULES = ("multiprocessing", "concurrent.futures.process",
                    "subprocess", "csv")


def test_cli_import_defers_unused_modules(package_env):
    code = ("import sys, f2wiener.cli; "
            f"print([m for m in {DEFERRED_MODULES!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=package_env, check=True)
    assert out.stdout == "[]\n"


def test_deferred_import_paths_in_fresh_processes(tmp_path, package_env):
    def run(*argv):
        out = subprocess.run([sys.executable, "-m", "f2wiener", *argv],
                             capture_output=True, text=True, cwd=tmp_path,
                             env=package_env)
        assert out.returncode == 0, (argv, out.stderr)
        return out.stdout

    # The worker pool: sharded trials print what one process prints.
    serial = run("verify", "--suite", "tA", "--trials", "8", "--jobs", "1")
    assert run("verify", "--suite", "tA", "--trials", "8",
               "--jobs", "2") == serial
    # csv, for the ledger.
    run("explore", "--n", "3", "--size", "2", "--ledger", "ledger.csv")
    assert (tmp_path / "ledger.csv").read_text().splitlines()[0] == (
        "n,size,method,seed,best_norm_num,best_norm_exp,set_hex,evaluations")
    # The certificate's tool_commit is the package version.
    run("construct", "--family", "geometric4", "--k", "2", "--n", "4",
        "--out", "g")
    run("lowerbound", "g.set", "--max-order", "16")
    cert = json.loads((tmp_path / "g.set.cert.json").read_text())
    assert cert["tool_commit"] == __version__


def test_bad_inputs(workdir, capsys):
    assert main(["norm", "missing.set"]) == 2
    (workdir / "junk.set").write_text("n=2\nq\n")
    assert main(["norm", "junk.set"]) == 2
    (workdir / "dup.set").write_text("n=2\n1\n1\n")
    assert main(["norm", "dup.set"]) == 2
    (workdir / "hex.set").write_text("n=3\nhexbits=0f\nextra=1\n")
    capsys.readouterr()
    assert main(["norm", "hex.set"]) == 2
    assert capsys.readouterr().err == (
        "error: a hexbits line must be the only line after n=\n")
    (workdir / "bin.set").write_bytes(b"n=3\nhexbits=0f\xff\n")
    assert main(["norm", "bin.set"]) == 2
    assert capsys.readouterr().err == (
        "error: set file bin.set is not ASCII text\n")


@pytest.mark.parametrize("argv", [
    ["norm", "d"],
    ["check-cert", "a.set", "d"],
    ["lowerbound", "a.set", "--max-order", "8", "--out", "d"],
    ["explore", "--n", "3", "--size", "2", "--ledger", "d"],
], ids=["norm", "check-cert", "lowerbound-out", "explore-ledger"])
def test_directory_path_is_bad_input(workdir, capsys, argv):
    _set_file(workdir)
    (workdir / "d").mkdir()
    assert main(argv) == 2
    assert _one_line_error(capsys)


_OUTPUT_RUNS = [
    ["lowerbound", "a.set", "--max-order", "16", "--out"],
    ["explore", "--n", "3", "--size", "2", "--ledger"],
    ["explore", "--method", "anneal", "--n", "3", "--size", "2", "--ledger"],
]


@pytest.mark.parametrize("target", ["d", "d/", "missing/x.out"],
                         ids=["directory", "directory-slash", "no-parent"])
def test_bad_output_path_refused_before_the_run(workdir, capsys, monkeypatch,
                                                target):
    _set_file(workdir)
    (workdir / "d").mkdir()

    def never(*args, **kwargs):
        raise AssertionError("the run started")

    for name in ("run_iteration", "min_norm_anneal", "min_norm_exhaustive"):
        monkeypatch.setattr(cli, name, never)
    for argv in _OUTPUT_RUNS:
        assert main(argv + [target]) == 2, argv
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1, argv
        assert out.err.startswith(f"error: output path {target}"), argv
    assert sorted(p.name for p in workdir.iterdir()) == ["a.set", "d"]
    assert list((workdir / "d").iterdir()) == []


@pytest.mark.parametrize("base, bad", [("x", "x.witness.json"),
                                       ("missing/x", "missing/x.set")],
                         ids=["witness-directory", "no-parent"])
def test_construct_refuses_bad_output_before_writing(workdir, capsys,
                                                     monkeypatch, base, bad):
    # Both BASE.set and BASE.witness.json are checked before the build, so
    # a refusal leaves nothing behind.
    (workdir / "x.witness.json").mkdir()

    def never(*args, **kwargs):
        raise AssertionError("the build started")

    monkeypatch.setattr(cli, "build_coset_union", never)
    assert main(["construct", "--family", "geometric4", "--k", "2",
                 "--n", "4", "--out", base]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    assert out.err.startswith(f"error: output path {bad}")
    assert [p.name for p in workdir.iterdir()] == ["x.witness.json"]
    assert list((workdir / "x.witness.json").iterdir()) == []


_LEDGER = (",".join(CSV_COLUMNS)
           + "\r\n3,2,exhaustive,0,1,0,03,1\r\n").encode()


def test_failed_run_leaves_existing_output(workdir, capsys, monkeypatch):
    # The output path is checked, not opened, before the run.  explore
    # appends only to a ledger, so its existing file is one.
    _set_file(workdir)

    def fails(*args, **kwargs):
        raise ArithmeticError("stopped")

    for name in ("run_iteration", "min_norm_anneal", "min_norm_exhaustive"):
        monkeypatch.setattr(cli, name, fails)
    for argv in _OUTPUT_RUNS:
        kept = _LEDGER if "--ledger" in argv else b"kept\n"
        (workdir / "old.out").write_bytes(kept)
        assert main(argv + ["old.out"]) == 1, argv
        assert "stopped" in capsys.readouterr().err
        assert (workdir / "old.out").read_bytes() == kept, argv


@pytest.mark.parametrize("method", ["exhaustive", "anneal"])
def test_explore_refuses_a_file_that_is_not_a_ledger(workdir, capsys,
                                                     monkeypatch, method):
    # A set file named as the ledger is refused before the search, with
    # exit 2 and one error line, and keeps its bytes.
    assert main(["construct", "--family", "geometric4", "--k", "2",
                 "--n", "4", "--out", "a"]) == 0
    before = (workdir / "a.set").read_bytes()
    header = ",".join(CSV_COLUMNS)
    (workdir / "wide.csv").write_text(header + ",extra\n")
    (workdir / "late.csv").write_text("x\n" + header + "\n")
    capsys.readouterr()
    argv = ["explore", "--method", method, "--n", "3", "--size", "2",
            "--ledger"]
    with monkeypatch.context() as m:
        for name in ("min_norm_anneal", "min_norm_exhaustive"):
            m.setattr(cli, name, None)
        for name in ("a.set", "wide.csv", "late.csv"):
            assert main(argv + [name]) == 2, name
            assert capsys.readouterr().err == (
                f"error: {name} is not a search ledger: its first line is "
                f"not {header}\n")
    assert (workdir / "a.set").read_bytes() == before
    assert main(["norm", "a.set"]) == 0
    # A ledger with either line ending, or an empty file, takes the row.
    (workdir / "lf.csv").write_bytes(_LEDGER.replace(b"\r\n", b"\n"))
    (workdir / "empty.csv").write_bytes(b"")
    for name in ("lf.csv", "empty.csv"):
        assert main(argv + [name]) == 0, name
        assert (workdir / name).read_text().splitlines()[0] == header


@pytest.mark.parametrize("content", [b"NOT_JSON", b'{"trace": [', b"\xff{}"],
                         ids=["text", "truncated", "not-ascii"])
def test_check_cert_not_json(workdir, capsys, content):
    path = _set_file(workdir)
    (workdir / "c.json").write_bytes(content)
    assert main(["check-cert", path, "c.json"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    assert out.err.startswith("error: certificate c.json is not valid ASCII "
                              "JSON: ")


def test_set_file_above_dimension_cap(tmp_path, package_env):
    path = tmp_path / "big.set"
    path.write_text(f"n={DEFAULT_MAX_N + 1}\nhexbits=1\n")
    out = subprocess.run(
        [sys.executable, "-m", "f2wiener", "norm", str(path)],
        capture_output=True, text=True, cwd=tmp_path, env=package_env)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.count("\n") == 1
    assert "dimension cap" in out.stderr
    assert "Traceback" not in out.stderr


def _one_line_error(capsys):
    out = capsys.readouterr()
    return out.out == "" and out.err.count("\n") == 1 and out.err.startswith(
        "error: ")


def test_dim_cap_configurable(workdir, capsys):
    # Each call takes max_n from its own --max-n; none outlives its call.
    # The cap bounds the set file of norm, lowerbound and check-cert, and
    # --n of construct and explore.
    big = _set_file(workdir, "big.set", n=DEFAULT_MAX_N + 1, points=(0, 3))
    five = _set_file(workdir, "five.set", n=5, points=(0, 3))
    up = ["--max-n", str(DEFAULT_MAX_N + 1)]
    assert main(["norm", big]) == 2
    assert _one_line_error(capsys)
    assert main(up + ["norm", big]) == 0
    assert f"n = {DEFAULT_MAX_N + 1}" in capsys.readouterr().out
    assert main(["norm", big]) == 2
    assert _one_line_error(capsys)
    assert main(["lowerbound", five, "--max-order", "4",
                 "--out", "five.cert.json"]) == 0
    for argv in (["norm", five],
                 ["lowerbound", five, "--max-order", "4", "--out", "c.json"],
                 ["check-cert", five, "five.cert.json"]):
        capsys.readouterr()
        assert main(["--max-n", "4"] + argv) == 2, argv
        assert _one_line_error(capsys), argv
        assert main(argv) == 0, argv
    for argv in (["explore", "--n", "5", "--size", "2"],
                 ["construct", "--family", "geometric4", "--k", "1",
                  "--n", "5"]):
        assert main(["--max-n", "4"] + argv) == 2
        out = capsys.readouterr()
        assert out.err == "error: --n 5 is above the dimension cap 4\n"
        assert main(argv) == 0
        capsys.readouterr()
    for cap in ("0", "31"):
        assert main(["--max-n", cap, "norm", five]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == (
            "", "error: dimension cap must lie in [1, 30]\n")


def test_config_flag_is_refused_by_the_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--config", "x.toml", "verify"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    # The unknown option leaves x.toml where the subcommand goes.
    assert out.out == "" and out.err.startswith("usage: f2wiener")
    assert "invalid choice: 'x.toml'" in out.err


def test_lowerbound_refuses_out_naming_the_set_file(workdir, capsys):
    # The certificate would replace the set it certifies; refused before
    # the run, whether --out names the set file directly or by a link.
    path = _set_file(workdir)
    before = (workdir / "a.set").read_bytes()
    (workdir / "link.set").symlink_to("a.set")
    for out in (path, "a.set", "./a.set", "link.set"):
        assert main(["lowerbound", path, "--max-order", "16",
                     "--out", out]) == 2, out
        assert capsys.readouterr().err == (
            f"error: output path {out} is the set file\n")
        assert (workdir / "a.set").read_bytes() == before
    assert main(["norm", path]) == 0


def test_omitted_flags_print_what_their_defaults_print(workdir, capsys):
    # Each default has one definition; leaving a flag out is the same
    # command as giving its default value.
    path = _set_file(workdir)
    explore = ["explore", "--n", "4", "--size", "5"]
    anneal = explore + ["--method", "anneal"]
    pairs = [
        (["verify"], ["verify", "--trials", "500", "--seed", "0",
                      "--jobs", "1"]),
        (anneal, anneal + ["--t0", "1.0", "--cooling", "0.995",
                           "--steps", "10000", "--seed", "0"]),
        (explore, explore + ["--budget", "10000000"]),
        (["lowerbound", path, "--max-order", "16", "--out", "c.json"],
         ["lowerbound", path, "--max-order", "16", "--out", "c.json",
          "--strategy", "smallest-s"]),
    ]
    cert = workdir / "c.json"
    for bare, explicit in pairs:
        outputs = []
        for argv in (bare, explicit):
            assert main(argv) == 0, argv
            outputs.append((capsys.readouterr().out,
                            cert.read_bytes() if cert.exists() else None))
        assert outputs[0] == outputs[1], bare


def test_verify_caps_jobs_and_trials(workdir, capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    # run_suite imports the pool where it starts one, so patch its source.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    for argv in (["verify", "--jobs", "100000"],
                 ["verify", "--trials", str(verify.MAX_TRIALS + 1)],
                 ["verify", "--seed", "-1"],
                 ["verify", "--jobs", "0"],
                 ["verify", "--jobs", "-3"]):
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.count("\n") == 1 and out.err.startswith("error: ")


def _readme_transcripts():
    """(argv, stdout) for each `$ ` line in README.md's code blocks; the
    output runs to the next blank line."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    found = []
    for block in re.findall(r"```\n(.*?)```", readme.read_text(), flags=re.S):
        for chunk in block.split("\n\n"):
            command, _, output = chunk.partition("\n")
            if command.startswith("$ "):
                found.append((shlex.split(command[2:]), output.rstrip("\n")
                              + "\n"))
    return found


def test_readme_transcripts_replay(workdir, capsys):
    # Every README example reproduces its printed stdout byte for byte; a
    # `$ cat FILE` example writes FILE for the commands after it.
    transcripts = _readme_transcripts()
    parser = build_parser()
    subcommands = next(a.choices for a in parser._actions
                       if a.dest == "command")
    covered = set()
    for argv, expected in transcripts:
        if argv[0] == "cat":
            (workdir / argv[1]).write_text(expected)
            continue
        assert argv[0] == "f2wiener", argv
        assert main(argv[1:]) == 0, argv
        out = capsys.readouterr()
        assert (out.out, out.err) == (expected, ""), argv
        covered.add(parser.parse_args(argv[1:]).command)
    assert covered == set(subcommands)


def _outcome(argv, capsys):
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = ("exit", exc.code)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_main_reuses_one_parser(workdir, capsys, monkeypatch):
    path = _set_file(workdir)
    runs = [
        ["norm", path],
        ["verify", "--suite", "techlem", "--trials", "5", "--seed", "1"],
        ["norm", path, "--bogus"],
        ["profile", "--alpha", "5/2^3", "--max-dim", "1"],
        ["verify", "--suite", "lem1", "--trials", "3"],
        ["verify", "--no-such-flag"],
        ["norm", path],
    ]
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    shared = [_outcome(argv, capsys) for argv in runs]
    assert len(built) == 1
    assert shared[2][0] == shared[5][0] == ("exit", 2)
    assert shared[0] == shared[6]
    monkeypatch.setattr(cli, "_parser", build_parser)
    fresh = [_outcome(argv, capsys) for argv in runs]
    assert shared == fresh
    assert build_parser() is not build_parser()


def test_module_entry_point(tmp_path, package_env):
    out = subprocess.run(
        [sys.executable, "-m", "f2wiener", "profile", "--alpha", "1/2^1",
         "--max-dim", "2"],
        capture_output=True, text=True, cwd=tmp_path, env=package_env)
    assert out.returncode == 0
    assert "c_plain = 0" in out.stdout


def _paths(obj, prefix=()):
    """Every key path into a JSON value, containers included."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@pytest.fixture(scope="module")
def valid_cert(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    path = _set_file(root)
    assert main(["lowerbound", path, "--max-order", "16",
                 "--out", str(root / "c.json")]) == 0
    cert = json.loads((root / "c.json").read_text())
    assert len(cert["trace"]) >= 2 and cert["max_order"] == 16
    paths = [p for p in _paths(cert) if p[0] != "tool_commit"]
    return path, cert, paths, str(root / "m.json")


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


def _pair_value(obj):
    """A well-formed {num, exp} pair at n = 4 as a Fraction, else None."""
    if not (isinstance(obj, dict) and set(obj) == {"num", "exp"}
            and all(type(obj[k]) is int for k in obj)):
        return None
    num, exp = obj["num"], obj["exp"]
    if not 0 <= exp <= HARD_EXP_CAP or abs(num) > 1 << (exp + 4):
        return None
    return Fraction(num, 1 << exp)


def _unseen(cert, mutated, path) -> bool:
    """Edits check-cert cannot see until it replays the run: an l1 after
    step 0 that stays strictly between its neighbours, at least Lemma 1's
    floor and with a denominator dividing 2^(2n - dim_before - 1), and the
    last step's dimension, where the rest of the certificate allows them;
    and a max_order under which the recorded run is the same run: every
    step starts at an order at most it, and it stops the run at the final
    dimension exactly when the run stopped at the order cap."""
    if path == ("max_order",):
        value = mutated["max_order"]
        trace = cert["trace"]
        capped = cert["termination"] == "OrderCapReached"
        return (type(value) is int and value <= MAX_ORDER
                and 1 << trace[-1]["dim_before"] <= value
                and (value < 1 << trace[-1]["dim_after"]) == capped)
    if path[0] == "trace" and len(path) >= 3 and path[2] == "l1":
        i = path[1]
        l1s = [_pair_value(st["l1"]) for st in mutated["trace"]]
        # Lemma 1's floor for |A| = 5 at n = 4 and the step's dim_before.
        dim = cert["trace"][i]["dim_before"]
        m = 1 << (4 - dim)
        floor = Fraction(2 * (5 % m) * (m - 5 % m), m * m << dim)
        return (i >= 1 and l1s[i] is not None and l1s[i] > 0
                and l1s[i] >= floor and l1s[i] < l1s[i - 1]
                and l1s[i].denominator <= 1 << (7 - dim)
                and (i + 1 == len(l1s) or l1s[i + 1] < l1s[i]))
    return path == ("trace", len(cert["trace"]) - 1, "dim_after")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_check_cert_fuzz_one_field(valid_cert, data):
    # One field of a valid certificate replaced by any JSON value: exit 1
    # with FAILED, or exit 2 with one stderr line, and never a traceback.
    set_path, cert, paths, cert_path = valid_cert
    path = data.draw(st.sampled_from(paths))
    value = data.draw(_JSON)
    mutated = json.loads(json.dumps(cert))
    target = mutated
    for key in path[:-1]:
        target = target[key]
    if json.dumps(target[path[-1]]) == json.dumps(value):
        return
    target[path[-1]] = value
    with open(cert_path, "w", encoding="ascii") as fh:
        json.dump(mutated, fh)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["check-cert", set_path, cert_path])
    out, err = out.getvalue(), err.getvalue()
    if rc == 2:
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: ")
    elif rc == 1:
        assert err == "" and "certificate FAILED" in out
    else:
        assert rc == 0 and _unseen(cert, mutated, path), (path, value)


_SET_LINE = st.one_of(
    st.from_regex(r"n=[0-9]{1,3}", fullmatch=True),
    st.from_regex(r"hexbits=[0-9a-fA-F]{0,10}", fullmatch=True),
    st.from_regex(r"[0-9a-fA-F]{1,3}", fullmatch=True),
    st.sampled_from(["", "#", "n=4", "n=0", "hexbits=", "-1", "0x1"]),
    st.text(max_size=6))


@pytest.fixture(scope="module")
def fuzz_set_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "f.set")


@settings(max_examples=100, deadline=None)
@given(lines=st.lists(_SET_LINE, max_size=6))
def test_set_file_fuzz(fuzz_set_path, lines):
    # Any text as a set file: exit 0 with the norm, or exit 2 with one
    # stderr line, and never a traceback.
    with open(fuzz_set_path, "wb") as fh:
        fh.write("\n".join(lines).encode("utf-8", "surrogatepass"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["norm", fuzz_set_path])
    out, err = out.getvalue(), err.getvalue()
    if rc == 0:
        assert err == "" and "a_norm = " in out
    else:
        assert rc == 2 and out == "" and err.count("\n") == 1
        assert err.startswith("error: ")
