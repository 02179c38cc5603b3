import json
import math
import re
import subprocess

import pytest

from f2wiener import fileio
from f2wiener.constructions import build_coset_union, density_family
from f2wiener.dyadic import DyadicScalar
from f2wiener.fileio import (SetFileError, certificate_payload,
                             check_certificate, dumps_deterministic,
                             load_certificate, read_set_file, tool_commit,
                             witness_payload, write_certificate,
                             write_set_file)
from f2wiener.cli import DEFAULT_MAX_N
from f2wiener.iteration import hypothesis_check, run_iteration
from f2wiener.setfuncs import PointSet, set_a_norm


def test_set_file_roundtrip(tmp_path):
    a = PointSet.from_points(3, [0, 3, 5])
    for style in ("hexbits", "points"):
        path = tmp_path / f"{style}.set"
        write_set_file(str(path), a, style)
        assert read_set_file(str(path), 3) == a
    text = (tmp_path / "hexbits.set").read_text()
    assert text == "n=3\nhexbits=29\n"
    assert (tmp_path / "points.set").read_text() == "n=3\n0\n3\n5\n"
    with pytest.raises(ValueError):
        write_set_file(str(tmp_path / "x.set"), a, "csv")


def test_set_file_comments_and_blank_lines(tmp_path):
    path = tmp_path / "c.set"
    path.write_text("# sample\n\nn=2\n# points below\n0\n\n3\n")
    assert read_set_file(str(path), 2).points() == [0, 3]


def test_set_file_errors(tmp_path):
    def bad(text):
        p = tmp_path / "bad.set"
        p.write_text(text)
        with pytest.raises(SetFileError):
            read_set_file(str(p), DEFAULT_MAX_N)

    bad("")
    bad("# only comments\n")
    bad("m=2\n0\n")
    bad("n=0\n0\n")
    bad("n=2\nzz\n")
    bad("n=2\n7\n")          # point 7 outside F2^2
    bad("n=2\n1\n1\n")       # duplicate
    bad("n=2\nhexbits=1ff\n")  # bitmap wider than 2^2 bits
    bad("n=2\nhexbits=\n")


def test_set_file_dimension_cap_checked_first(tmp_path):
    # The cap is checked before anything is sized by n: a bitmap too wide
    # even for n = cap + 1 is reported as a cap violation, and an n too
    # long for int() is rejected as a SetFileError too.
    cap = DEFAULT_MAX_N
    wide = "f" * ((1 << (cap + 1)) // 4 + 1)
    for head in (str(cap + 1), "0" + str(cap + 1), str(10 ** 6), "9" * 5000):
        p = tmp_path / "big.set"
        p.write_text(f"n={head}\nhexbits={wide}\n")
        with pytest.raises(SetFileError, match="dimension cap"):
            read_set_file(str(p), cap)
    p.write_text(f"n={cap}\nhexbits=1\n")
    assert read_set_file(str(p), cap).dim.n == cap


def test_dumps_deterministic():
    obj = {
        "b": 1,
        "a": [1.5, None, True, False, "x\"y"],
        "nested": {"z": 0, "a": 2},
    }
    text = dumps_deterministic(obj)
    # insertion order survives, no sorting
    assert text.index('"b"') < text.index('"a"') < text.index('"nested"')
    assert json.loads(text) == obj
    assert dumps_deterministic(0.1) == format(0.1, ".17g")
    assert dumps_deterministic(math.pi) == "3.1415926535897931"
    with pytest.raises(TypeError):
        dumps_deterministic({"x": {1, 2}})


def _cert_fixture(max_order=16, commit="deadbeef"):
    a, _ = build_coset_union(density_family("geometric4", 2), 4)
    trace = run_iteration(a, max_order)
    hyp = hypothesis_check(a.density(), max_order)
    return a, certificate_payload(a, trace, hyp, commit=commit)


def test_certificate_roundtrip(tmp_path):
    a, payload = _cert_fixture()
    path = tmp_path / "c.json"
    write_certificate(str(path), payload)
    loaded = load_certificate(str(path))
    assert loaded == json.loads(dumps_deterministic(payload))
    assert check_certificate(a, loaded) == ([], set_a_norm(a))
    # byte-identical on re-emission, from the payload and from the loaded file
    first = path.read_bytes()
    write_certificate(str(path), payload)
    assert path.read_bytes() == first
    write_certificate(str(path), loaded)
    assert path.read_bytes() == first
    # fixed key order
    keys = list(loaded.keys())
    assert keys == ["version", "n", "alpha", "a_norm", "trace",
                    "final_bound", "termination", "hypothesis", "tool_commit"]
    assert list(loaded["alpha"].keys()) == ["num", "exp"]
    assert loaded["termination"] == "ResidualZero"
    assert loaded["tool_commit"] == "deadbeef"
    for st in loaded["trace"]:
        assert list(st.keys()) == ["s", "dim_before", "dim_after", "gain",
                                   "chang_ceiling"]
        assert isinstance(st["chang_ceiling"], float)


def test_certificate_without_hypothesis(tmp_path):
    a, _ = build_coset_union(density_family("geometric4", 2), 4)
    trace = run_iteration(a, 16)
    payload = certificate_payload(a, trace, None, commit="x")
    assert payload["hypothesis"] is None
    assert check_certificate(a, json.loads(dumps_deterministic(payload))) == (
        [], trace.final_bound)


def _tampered(payload, mutate):
    cert = json.loads(dumps_deterministic(payload))
    mutate(cert)
    return cert


def test_check_certificate_detects_tampering():
    a, payload = _cert_fixture()

    def overshoot(c):
        c["final_bound"]["num"] += 1 << c["final_bound"]["exp"]

    def break_chain(c):
        c["trace"][1]["dim_before"] += 1

    def shrink_gain(c):
        c["trace"][0]["gain"] = {"num": 1, "exp": 12}

    def no_growth(c):
        c["trace"][0]["dim_after"] = c["trace"][0]["dim_before"]

    def bad_term(c):
        c["termination"] = "Maybe"

    def bad_version(c):
        c["version"] = 99

    def fake_zero(c):
        c["final_bound"] = {"num": 1, "exp": 1}
        c["a_norm"] = {"num": 1, "exp": 1}

    def bad_hyp(c):
        c["hypothesis"]["c_plain"]["num"] += 1

    def bad_ceiling(c):
        c["trace"][0]["chang_ceiling"] = 0.5

    def other_alpha_hyp(c):
        # Consistent in itself, but for a density the set does not have.
        rep = hypothesis_check(DyadicScalar(1, 1), 16)
        c["hypothesis"] = json.loads(dumps_deterministic(
            fileio._hypothesis_payload(rep)))

    def bool_version(c):
        c["version"] = True

    def float_n(c):
        c["n"] = 4.0

    for mutate in (overshoot, break_chain, shrink_gain, no_growth, bad_term,
                   bad_version, fake_zero, bad_hyp, bad_ceiling,
                   other_alpha_hyp, bool_version, float_n):
        problems, _ = check_certificate(a, _tampered(payload, mutate))
        assert problems, mutate.__name__

    wrong_set = PointSet.from_points(4, [0, 1])
    assert check_certificate(wrong_set, json.loads(
        dumps_deterministic(payload)))[0]


def test_witness_payload():
    a, w = build_coset_union(density_family("double_exp", 2), 3)
    payload = witness_payload(w, set_a_norm(a))
    assert payload["kind"] == "coset_union_witness"
    assert payload["n"] == 3
    assert payload["exponents"] == [1, 2]
    assert payload["part_count"] == 2
    assert len(payload["parts_hex"]) == 2
    covered = 0
    for hx in payload["parts_hex"]:
        covered |= int(hx, 16)
    assert covered == a.bits
    text = dumps_deterministic(payload)
    assert json.loads(text) == payload


def test_tool_commit():
    c = tool_commit()
    assert c == "unknown" or re.fullmatch(r"[0-9a-f]{40}", c)


def test_tool_commit_spawns_git_once(monkeypatch):
    spawned = []

    def fake_run(argv, **kwargs):
        spawned.append(argv)
        return subprocess.CompletedProcess(argv, 0, stdout="ab" * 20 + "\n")

    monkeypatch.setattr(fileio.subprocess, "run", fake_run)
    tool_commit.cache_clear()
    try:
        assert tool_commit() == tool_commit() == "ab" * 20
    finally:
        tool_commit.cache_clear()
    assert spawned == [["git", "rev-parse", "HEAD"]]
