import json
import subprocess
import sys

import pytest

from f2wiener import cli
from f2wiener.cli import build_parser, main
from f2wiener.fileio import write_set_file
from f2wiener.groups import get_dim_cap
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
    path.write_text(f"n={get_dim_cap() + 1}\nhexbits=1\n")
    out = subprocess.run(
        [sys.executable, "-m", "f2wiener", "norm", str(path)],
        capture_output=True, text=True, cwd=tmp_path, env=package_env)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.count("\n") == 1
    assert "dimension cap" in out.stderr
    assert "Traceback" not in out.stderr


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
