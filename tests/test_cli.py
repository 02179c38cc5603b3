import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from f2wiener import cli, verify
from f2wiener.cli import DEFAULT_MAX_N, build_parser, main
from f2wiener.fileio import write_set_file
from f2wiener.groups import HARD_EXP_CAP
from f2wiener.iteration import MAX_ORDER
from f2wiener.setfuncs import PointSet


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


def test_construct_overflow_is_resource_exit(workdir, capsys):
    assert main(["construct", "--family", "geometric4", "--k", "3",
                 "--n", "4"]) == 3
    assert "exceeds the dimension" in capsys.readouterr().err


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


def _put(value, *path):
    """Mutation that sets cert[path[0]][path[1]]... to value."""
    def mutate(c):
        target = c
        for key in path[:-1]:
            target = target[key]
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
    "ceiling_nan": _put(float("nan"), "trace", 0, "chang_ceiling"),
    "ceiling_string": _put("9", "trace", 0, "chang_ceiling"),
    "exp_huge": _put({"num": 1, "exp": 10 ** 9}, "alpha"),
    "exp_negative": _put({"num": 7, "exp": -2}, "final_bound"),
    "num_string": _put({"num": "7", "exp": 2}, "a_norm"),
    "termination_list": _put(["ResidualZero"], "termination"),
    "hypothesis_list": _put([], "hypothesis"),
    "max_order_string": _put("16", "hypothesis", "max_order"),
}


@pytest.mark.parametrize("mutate", MALFORMED.values(), ids=MALFORMED.keys())
def test_check_cert_malformed_is_bad_input(workdir, capsys, mutate):
    path = _set_file(workdir)
    assert main(["lowerbound", path, "--max-order", "16",
                 "--out", "c.json"]) == 0
    capsys.readouterr()
    cert = json.loads((workdir / "c.json").read_text())
    assert cert["trace"] and cert["hypothesis"]
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
    cert["hypothesis"]["max_order"] = MAX_ORDER + 1
    (workdir / "c.json").write_text(json.dumps(cert))
    capsys.readouterr()
    assert main(["check-cert", path, "c.json"]) == 2
    assert capsys.readouterr().err.count("max_order must lie in") == 1
    for extra in ([], ["--no-hypothesis"]):
        assert main(["lowerbound", path, "--max-order", str(MAX_ORDER + 1),
                     "--out", "d.json"] + extra) == 2
        assert "max_order must lie in" in capsys.readouterr().err
    assert not (workdir / "d.json").exists()


def test_lowerbound_flags(workdir, capsys):
    path = _set_file(workdir)
    assert main(["lowerbound", path, "--max-order", "16", "--strategy",
                 "best-ratio", "--step-cap", "1", "--no-hypothesis",
                 "--out", "c2.json"]) == 0
    out = capsys.readouterr().out
    assert "termination = StepCap" in out
    cert = json.loads((workdir / "c2.json").read_text())
    assert cert["hypothesis"] is None
    assert len(cert["trace"]) == 1
    assert main(["lowerbound", path, "--max-order", "0"]) == 2


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


def test_explore_rejects_bad_parameters(workdir, capsys):
    anneal = ["explore", "--method", "anneal", "--n", "4", "--size", "5"]
    (workdir / "steps.toml").write_text('anneal_steps = "abc"\n')
    (workdir / "budget.toml").write_text('budget = "x"\n')
    (workdir / "seed.toml").write_text('seed = 1.5\n')
    (workdir / "cap.toml").write_text('max_n = 3.5\n')
    cases = [anneal + ["--t0", "0"], anneal + ["--t0", "nan"],
             anneal + ["--cooling", "-1"], anneal + ["--steps", "-1"],
             anneal + ["--steps", str(10 ** 12)],
             ["--config", "steps.toml"] + anneal,
             ["--config", "seed.toml"] + anneal,
             ["--config", "cap.toml"] + anneal,
             ["--config", "budget.toml", "explore", "--n", "3",
              "--size", "3"]]
    for argv in cases:
        assert main(argv) == 2, argv
        out = capsys.readouterr()
        assert out.out == "", argv
        assert out.err.startswith("error: ") and out.err.count("\n") == 1
    # A flag wins over a bad config value it replaces.
    assert main(["--config", "steps.toml"] + anneal + ["--steps", "50"]) == 0
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


def test_bad_inputs(workdir, capsys):
    assert main(["norm", "missing.set"]) == 2
    (workdir / "junk.set").write_text("n=2\nq\n")
    assert main(["norm", "junk.set"]) == 2
    (workdir / "dup.set").write_text("n=2\n1\n1\n")
    assert main(["norm", "dup.set"]) == 2


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
    # Each call works out max_n from its own config; none outlives its call.
    big = _set_file(workdir, "big.set", n=DEFAULT_MAX_N + 1, points=(0, 3))
    five = _set_file(workdir, "five.set", n=5, points=(0, 3))
    (workdir / "up.toml").write_text(f"max_n = {DEFAULT_MAX_N + 1}\n")
    (workdir / "down.toml").write_text("max_n = 4\n")
    (workdir / "over.toml").write_text("max_n = 31\n")
    assert main(["norm", big]) == 2
    assert _one_line_error(capsys)
    assert main(["--config", "up.toml", "norm", big]) == 0
    assert f"n = {DEFAULT_MAX_N + 1}" in capsys.readouterr().out
    assert main(["norm", big]) == 2
    assert _one_line_error(capsys)
    assert main(["--config", "down.toml", "norm", five]) == 2
    assert _one_line_error(capsys)
    assert main(["norm", five]) == 0
    assert "size = 2" in capsys.readouterr().out
    for argv in (["explore", "--n", "5", "--size", "2"],
                 ["construct", "--family", "geometric4", "--k", "1",
                  "--n", "5"]):
        assert main(["--config", "down.toml"] + argv) == 2
        out = capsys.readouterr()
        assert out.err == "error: --n 5 is above the dimension cap 4\n"
        assert main(argv) == 0
        capsys.readouterr()
    assert main(["--config", "over.toml", "norm", five]) == 2
    assert _one_line_error(capsys)


def test_config_keys_and_strategy_checked(workdir, capsys):
    # A full set ends before any level is selected, so only the config
    # check can refuse a bad strategy.
    full = _set_file(workdir, "full.set", n=2, points=(0, 1, 2, 3))
    lowerbound = ["lowerbound", full, "--max-order", "4"]
    (workdir / "typo.toml").write_text("trails = 7\n")
    (workdir / "nested.toml").write_text("[verify]\n[verify.more]\nseed = 1\n")
    (workdir / "bogus.toml").write_text('strategy = "bogus"\n')
    (workdir / "number.toml").write_text("strategy = 3\n")
    (workdir / "good.toml").write_text('[lowerbound]\nstrategy = "best-ratio"\n')
    for cfg, argv in (("typo.toml", ["verify", "--suite", "lem1"]),
                      ("nested.toml", lowerbound),
                      ("bogus.toml", lowerbound),
                      ("number.toml", lowerbound)):
        assert main(["--config", cfg] + argv) == 2, cfg
        assert _one_line_error(capsys), cfg
    assert main(["--config", "good.toml"] + lowerbound) == 0
    # A flag wins over the config value it replaces.
    assert main(["--config", "bogus.toml"] + lowerbound
                + ["--strategy", "smallest-s"]) == 0


def test_verify_caps_jobs_and_trials(workdir, capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(verify, "ProcessPoolExecutor", no_pool)
    (workdir / "cfg.toml").write_text("jobs = 100000\n")
    for argv in (["verify", "--jobs", "100000"],
                 ["verify", "--trials", str(verify.MAX_TRIALS + 1)],
                 ["--config", "cfg.toml", "verify"]):
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.count("\n") == 1 and out.err.startswith("error: ")


def test_config_defaults(workdir, capsys):
    (workdir / "cfg.toml").write_text(
        '[verify]\ntrials = 7\nseed = 3\n')
    assert main(["--config", "cfg.toml", "verify", "--suite", "lem1"]) == 0
    out = capsys.readouterr().out
    assert "trials=7" in out
    assert main(["--config", "nope.toml", "verify", "--suite", "lem1"]) == 2


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
    assert len(cert["trace"]) >= 2 and cert["hypothesis"]
    paths = [p for p in _paths(cert) if p[0] != "tool_commit"]
    return path, cert, paths, str(root / "m.json")


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


def _unseen(cert, path, value) -> bool:
    """Edits check-cert cannot see until it replays the run: a step's level
    or ceiling, the last step's dimension and the termination, where the
    rest of the certificate allows them; and the optional a_norm and
    hypothesis set to null."""
    if path in (("a_norm",), ("hypothesis",)):
        return value is None
    if path == ("termination",):
        return True
    last = ("trace", len(cert["trace"]) - 1, "dim_after")
    return path == last or (len(path) == 3 and path[0] == "trace"
                            and path[2] in ("s", "chang_ceiling"))


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
        assert rc == 0 and _unseen(cert, path, value), (path, value)
