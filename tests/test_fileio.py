import json

import pytest

from f2wiener import __version__, fileio
from f2wiener.constructions import build_coset_union, density_family
from f2wiener.dyadic import DyadicScalar
from f2wiener.fileio import (SetFileError, certificate_payload,
                             check_certificate, load_certificate,
                             read_set_file, tool_commit, witness_payload,
                             write_certificate, write_set_file)
from f2wiener.cli import DEFAULT_MAX_N
from f2wiener.iteration import run_iteration
from f2wiener.setfuncs import PointSet, set_a_norm

from _reference import set_points, witness_problems


def test_set_file_roundtrip(tmp_path):
    a = PointSet.from_points(3, [0, 3, 5])
    path = tmp_path / "a.set"
    write_set_file(str(path), a)
    assert path.read_text() == "n=3\nhexbits=29\n"
    assert read_set_file(str(path), 3) == a
    # The tool writes hexbits only, but reads one hex point per line too.
    path.write_text("n=3\n0\n3\n5\n")
    assert read_set_file(str(path), 3) == a


def test_set_file_comments_and_blank_lines(tmp_path):
    path = tmp_path / "c.set"
    path.write_text("# sample\n\nn=2\n# points below\n0\n\n3\n")
    assert set_points(read_set_file(str(path), 2)) == [0, 3]


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


def test_hexbits_line_must_stand_alone(tmp_path):
    # A hexbits line with any other line after n= is its own fault, not a
    # bad point line.
    path = tmp_path / "h.set"
    for text in ("n=3\nhexbits=0f\nextra=1\n",
                 "n=3\nhexbits=0f\nhexbits=0f\n", "n=3\nHEXBITS=0f\n2\n"):
        path.write_text(text)
        with pytest.raises(SetFileError) as exc:
            read_set_file(str(path), DEFAULT_MAX_N)
        assert str(exc.value) == (
            "a hexbits line must be the only line after n=")
    # A later hexbits line is a point line, checked in file order.
    for text, msg in (("n=3\n1\nhexbits=0f\n", "bad point line"),
                      ("n=2\n9\nhexbits=1\n", "point 9 outside the group")):
        path.write_text(text)
        with pytest.raises(SetFileError, match=msg):
            read_set_file(str(path), DEFAULT_MAX_N)


def test_set_file_names_first_offender(tmp_path):
    # Lines are checked in file order: the first bad line is the one named.
    path = tmp_path / "o.set"
    for text, message in (("n=2\n1\n1\n9\n", "duplicate point 1"),
                          ("n=2\n9\n1\n1\n", "point 9 outside"),
                          ("n=2\n3\nzz\n3\n", "bad point line 'zz'")):
        path.write_text(text)
        with pytest.raises(SetFileError, match=message):
            read_set_file(str(path), DEFAULT_MAX_N)


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


def test_set_file_hex_digits_any_case(tmp_path):
    # The hexbits key and the digits may take either case.
    path = tmp_path / "u.set"
    a = PointSet.from_points(4, [0, 2, 4, 8, 12, 15])
    for text in ("n=4\nHEXBITS=9115\n", "n=4\nHexBits=9115\n",
                 "n=4\nhexbits=9115\n", "n=4\n0\n2\n4\n8\nC\nf\n"):
        path.write_text(text)
        assert read_set_file(str(path), 4) == a


def test_set_file_refuses_other_number_syntax(tmp_path):
    # int(x, 16) would take 0x, underscores, a sign and surrounding space;
    # a set file takes bare hex digits only.
    path = tmp_path / "x.set"
    for body in ("hexbits=0x1f", "hexbits=1_f", "hexbits=+1f", "hexbits=1 f",
                 "hexbits =1f", "0x3", "1_0", "+3", "-3", "1 0", "3\t1"):
        path.write_text(f"n=5\n{body}\n")
        with pytest.raises(SetFileError, match="no hex digit at column"):
            read_set_file(str(path), 5)


def test_set_file_bad_line_is_clipped_with_its_column(tmp_path):
    # A bad line is echoed to 40 characters at most, with the column of
    # its first character that is no hex digit, whatever its length.
    path = tmp_path / "w.set"
    digits = "0" * 5000
    for body, column in ((f"hexbits={digits}g", 5009),
                         (f"hexbits=z{digits}", 9), ("hexbits=", 9),
                         (f"{digits}x1", 5001), ("12q", 3)):
        path.write_text(f"n=16\n{body}\n")
        with pytest.raises(SetFileError) as exc:
            read_set_file(str(path), 16)
        message = str(exc.value)
        assert message.endswith(f": no hex digit at column {column}")
        assert repr(body[:40] + ("..." if len(body) > 40 else "")) in message
        assert len(message) < 100


def test_set_file_not_ascii_names_the_file(tmp_path):
    path = tmp_path / "u.set"
    for raw in (b"\xff\n", b"n=3\nhexbits=0f\n\xc3\xa9\n",
                "n=3\n\u0661\n".encode("utf-8")):
        path.write_bytes(raw)
        with pytest.raises(SetFileError) as exc:
            read_set_file(str(path), 3)
        assert str(exc.value) == f"set file {path} is not ASCII text"


def _cert_fixture(monkeypatch, max_order=16):
    monkeypatch.setattr(fileio, "tool_commit", lambda: "deadbeef")
    a, _ = build_coset_union(density_family("geometric4", 2), 4)
    trace = run_iteration(a, max_order)
    return a, certificate_payload(a, trace, max_order)


def test_certificate_roundtrip(tmp_path, monkeypatch):
    a, payload = _cert_fixture(monkeypatch)
    path = tmp_path / "c.json"
    write_certificate(str(path), payload)
    loaded = load_certificate(str(path))
    assert loaded == payload
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
                    "final_bound", "termination", "max_order", "tool_commit"]
    assert list(loaded["alpha"].keys()) == ["num", "exp"]
    assert loaded["termination"] == "ResidualZero"
    assert loaded["tool_commit"] == "deadbeef"
    assert loaded["max_order"] == 16
    for st in loaded["trace"]:
        assert list(st.keys()) == ["s", "dim_before", "dim_after", "gain",
                                   "l1"]
        assert list(st["l1"].keys()) == ["num", "exp"]


def _leaves(obj):
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        for item in obj:
            yield from _leaves(item)
    else:
        yield obj


def test_certificate_is_json_dumps_without_floats(tmp_path, monkeypatch):
    # Every value is an int or a string, so json.dumps writes the file and
    # reading it back gives every number exactly.
    for max_order in (16, 2):
        a, payload = _cert_fixture(monkeypatch, max_order)
        path = tmp_path / "c.json"
        write_certificate(str(path), payload)
        assert path.read_text() == json.dumps(payload) + "\n"
        kinds = {type(x) for x in _leaves(load_certificate(str(path)))}
        assert kinds == {int, str}


def _tampered(payload, mutate):
    cert = json.loads(json.dumps(payload))
    mutate(cert)
    return cert


def test_check_certificate_detects_tampering(monkeypatch):
    a, payload = _cert_fixture(monkeypatch)

    def overshoot(c):
        c["final_bound"]["num"] += 1 << c["final_bound"]["exp"]

    def break_chain(c):
        c["trace"][1]["dim_before"] += 1

    def shrink_gain(c):
        c["trace"][0]["gain"] = {"num": 1, "exp": 12}

    def move_gain(c):
        # Keeps the sum of the gains, so only the per-step floor sees it.
        g0, g1 = (DyadicScalar(st["gain"]["num"], st["gain"]["exp"])
                  for st in c["trace"][:2])
        low = DyadicScalar(1, 12)
        moved = g1 + g0 - low
        c["trace"][0]["gain"] = {"num": low.num, "exp": low.exp}
        c["trace"][1]["gain"] = {"num": moved.num, "exp": moved.exp}

    def no_growth(c):
        c["trace"][0]["dim_after"] = c["trace"][0]["dim_before"]

    def bad_term(c):
        c["termination"] = "Maybe"

    def bad_version(c):
        c["version"] = 99

    def fake_zero(c):
        c["final_bound"] = {"num": 1, "exp": 1}
        c["a_norm"] = {"num": 1, "exp": 1}

    def residual_to_cap(c):
        # The final dimension is 4 and 2^4 <= 16, so the run cannot have
        # stopped at the order cap.
        c["termination"] = "OrderCapReached"

    def step_cap(c):
        c["termination"] = "StepCap"

    def bool_version(c):
        c["version"] = True

    def float_n(c):
        c["n"] = 4.0

    for mutate in (overshoot, break_chain, shrink_gain, move_gain, no_growth,
                   bad_term, bad_version, fake_zero, residual_to_cap,
                   step_cap, bool_version, float_n):
        problems, _ = check_certificate(a, _tampered(payload, mutate))
        assert problems, mutate.__name__

    def late_step(c):
        # Consistent but for step 2, which starts at order 2^2 > 3: a run
        # with max_order 3 stops before it.
        c["max_order"] = 3
        c["termination"] = "OrderCapReached"

    problems, _ = check_certificate(a, _tampered(payload, late_step))
    assert problems == ["step 2: starts at order 2^2 above max_order 3"]

    # At max_order 2 the run stops at dimension 2 with the residual still
    # nonzero, so it must not claim ResidualZero.
    a, capped = _cert_fixture(monkeypatch, max_order=2)
    assert capped["termination"] == "OrderCapReached"
    assert check_certificate(a, _tampered(capped, lambda c: None))[0] == []

    def cap_to_residual(c):
        c["termination"] = "ResidualZero"

    for mutate in (cap_to_residual, step_cap):
        assert check_certificate(a, _tampered(capped, mutate))[0], (
            mutate.__name__)

    wrong_set = PointSet.from_points(4, [0, 1])
    assert check_certificate(wrong_set, _tampered(payload, lambda c: None))[0]

    # The Chang ceiling at s = 0 and l1 = 2 alpha (1 - alpha) = 1/2 is
    # 4e max(ln(1/(2 l1)), 1) = 4e ~ 10.87: a step 0 may add 10 dimensions
    # at n = 11, not 11.
    half = PointSet.from_points(11, range(0, 1 << 11, 2))
    cert = certificate_payload(half, run_iteration(half, 16), 16)
    assert check_certificate(half, cert)[0] == []
    assert cert["trace"][0]["s"] == 0
    assert cert["trace"][0]["l1"] == {"num": 1, "exp": 1}
    for grown, over in ((10, False), (11, True)):
        problems, _ = check_certificate(
            half, _tampered(cert, lambda c: c["trace"][0].update(
                dim_after=grown)))
        assert ("step 0: growth above the Chang ceiling" in problems) == over


def test_witness_payload(monkeypatch):
    monkeypatch.setattr(fileio, "tool_commit", lambda: "deadbeef")
    a, w = build_coset_union(density_family("double_exp", 2), 3)
    payload = witness_payload(w, set_a_norm(a))
    assert payload["kind"] == "coset_union_witness"
    assert payload["n"] == 3
    assert payload["exponents"] == [1, 2]
    assert payload["part_count"] == 2
    assert witness_problems(payload, a.bits) == []
    # Version 2 records the generators only, byte for byte.
    assert json.dumps(payload) == (
        '{"version": 2, "kind": "coset_union_witness", "n": 3, '
        '"exponents": [1, 2], "alpha": {"num": 3, "exp": 2}, '
        '"lambdas": [[1], [1, 2]], "gammas": [1, 2], "offsets": [1], '
        '"a_norm": {"num": 3, "exp": 1}, "part_count": 2, '
        '"tool_commit": "deadbeef"}')


def test_tool_commit():
    # Every certificate and witness file records the package version.
    assert tool_commit() == __version__
