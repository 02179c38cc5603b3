import concurrent.futures
import json
import pathlib
import re
from fractions import Fraction

import numpy as np
import pytest

import _reference
from f2wiener import cli, verify
from f2wiener.chang import RieszProduct
from f2wiener.dyadic import DyadicScalar
from f2wiener.fourier import FunctionTable
from f2wiener.groups import DualSubspace
from f2wiener import _streams
from f2wiener._draws import (_BECKNER_NS, _BECKNER_RAWS, _CHANG_NS,
                             _CHANG_RAWS, _SET_NS, _SET_RAWS,
                             _decode_beckner, _decode_chang, _decode_sets,
                             _decode_techlem, _draw_beckner, _draw_chang,
                             _draw_set_and_subspace, _draw_techlem,
                             _techlem_width, beckner_draws, chang_draws,
                             set_draws, techlem_draws)
from f2wiener._streams import (_JUMP_RAWS, _PCG_MULT, _RAW_BUDGET,
                               _SEED_BLOCK, bounded_draws, trial_words)
from f2wiener.verify import MAX_JOBS, MAX_TRIALS, SUITE_NAMES, run_suite

from _reference import (REFERENCE_TRIALS, brute_chang_span,
                        reference_residual, stack_rows, table_fractions,
                        trial_rngs)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_passes(name):
    res = run_suite(name, trials=25, seed=7)
    assert res.name == name
    assert res.trials == 25
    assert res.ok, res.violations


def test_suite_deterministic():
    a = run_suite("techlem", trials=40, seed=3)
    b = run_suite("techlem", trials=40, seed=3)
    assert a.violations == b.violations
    assert a.ok and b.ok


def test_suite_parallel_matches_serial():
    for name in SUITE_NAMES:
        serial = run_suite(name, trials=8, seed=9, jobs=1)
        parallel = run_suite(name, trials=8, seed=9, jobs=2)
        assert serial.violations == parallel.violations
        assert parallel.ok, name


def test_suite_validation(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    # run_suite imports the pool where it starts one, so patch its source.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    with pytest.raises(ValueError):
        run_suite("nosuch", trials=5, seed=0)
    with pytest.raises(ValueError):
        run_suite("tA", trials=0, seed=0)
    with pytest.raises(ValueError):
        run_suite("tA", trials=MAX_TRIALS + 1, seed=0)
    with pytest.raises(ValueError):
        run_suite("tA", trials=8, seed=0, jobs=MAX_JOBS + 1)
    for seed, jobs in ((-1, 1), (-1, 2), (0, 0), (0, -3)):
        with pytest.raises(ValueError):
            run_suite("tA", trials=8, seed=seed, jobs=jobs)


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32, 2**64 + 7,
                                  2**130 + 3])
def test_trial_rngs_match_default_rng(seed):
    # shard starts that are not 0, a block boundary, and the last trial
    spans = [(0, 2), (7, _SEED_BLOCK + 2), (MAX_TRIALS - 3, 3)]
    for start, count in spans:
        seen = []
        for i, rng in trial_rngs(seed, start, count):
            want = np.random.default_rng([seed, i])
            assert rng.bit_generator.state == want.bit_generator.state, i
            assert rng.integers(0, 1 << 62) == want.integers(0, 1 << 62)
            seen.append(i)
        assert seen == list(range(start, start + count))


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32, 2**64 + 7,
                                  2**130 + 3])
def test_jump_ahead_outputs_match_random_raw(seed):
    # Every trial's words against its Generator's random_raw over the spans
    # of the test above, at widths 1 or 9, and _JUMP_RAWS (by jump-ahead)
    # or one more (by a loaded Generator), as the first word's low bit
    # picks, so a block mixes the two routes.
    spans = [(0, 2), (7, _SEED_BLOCK + 2), (MAX_TRIALS - 3, 3)]
    for pair in ((1, 9), (_JUMP_RAWS, _JUMP_RAWS + 1)):
        for start, count in spans:
            seen = []
            for trials, words in trial_words(
                    seed, start, count,
                    lambda firsts: np.asarray(pair)[firsts & 1]):
                w = pair[int(words[0, 0]) & 1]
                assert words.shape == (len(trials), 2 * w)
                for t, i in enumerate(trials.tolist()):
                    want = np.random.default_rng([seed, i]).bit_generator
                    assert words[t].tolist() == want.random_raw(w).astype(
                        "<u8").view("<u4").tolist(), (w, i)
                    seen.append(i)
            assert sorted(seen) == list(range(start, start + count))


_DRAWS = {"techlem": (techlem_draws, None, None),
          "set": (set_draws, _SET_NS, _SET_RAWS),
          "chang": (chang_draws, _CHANG_NS, _CHANG_RAWS),
          "beckner": (beckner_draws, _BECKNER_NS, _BECKNER_RAWS)}


@pytest.mark.parametrize("kind", sorted(_DRAWS))
def test_only_wide_trials_load_a_generator(monkeypatch, kind):
    # Trials of at most _JUMP_RAWS outputs take them by jump-ahead: the
    # trials loaded into a Generator are the wider ones (a trial's n is its
    # Generator's first draw, which gives its width), and the decode
    # fallbacks, which draw from default_rng([seed, i]), load none.
    seed, count = 3, 3 * _SEED_BLOCK
    loaded = []

    def generators(words):
        loaded.append(words.shape[1])
        return real(words)

    real = _streams._generators
    monkeypatch.setattr(_streams, "_generators", generators)
    draws, ns, raws = _DRAWS[kind]
    assert sum(1 for _ in draws(seed, 0, count))
    if ns is None:
        wide = 0
    else:
        wide = sum(int(raws[np.random.default_rng([seed, i]).integers(
            0, ns)]) > _JUMP_RAWS for i in range(count))
        assert 0 < wide < count
    assert sum(loaded) == wide


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32, 2**64 + 7,
                                  2**130 + 3])
def test_decoded_techlem_draws_match_generator(seed):
    # Every trial's m, dens and nums decoded from its stream words against
    # the Generator's draws, over the spans of the test above.
    spans = [(0, 2), (7, _SEED_BLOCK + 2), (MAX_TRIALS - 3, 3)]
    for start, count in spans:
        seen = []
        for trials, nums, dens, m in techlem_draws(seed, start, count):
            assert len(m) == len(trials)
            for t, (i, k) in enumerate(zip(trials.tolist(), m.tolist())):
                want = _draw_techlem(np.random.default_rng([seed, i]))
                assert (nums[t, :k].tolist(), dens[t, :k].tolist()) == want
                assert (nums[t, k:] == 0).all() and (dens[t, k:] == 1).all()
                seen.append(i)
        assert seen == list(range(start, start + count))


_DECODED = {"set": (set_draws, _draw_set_and_subspace),
            "chang": (chang_draws, _draw_chang),
            "beckner": (beckner_draws, _draw_beckner)}


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32, 2**64 + 7,
                                  2**130 + 3])
@pytest.mark.parametrize("kind", sorted(_DECODED))
def test_decoded_set_and_chang_draws_match_generator(kind, seed):
    # Every trial's decoded draws against its Generator's, over the spans
    # of test_trial_rngs_match_default_rng; a group shares n and lists its
    # trials in order.
    draws, draw = _DECODED[kind]
    for start, count in [(0, 2), (7, _SEED_BLOCK + 2), (MAX_TRIALS - 3, 3)]:
        seen = []
        for n, trials, *fields in draws(seed, start, count):
            assert trials.tolist() == sorted(trials.tolist())
            for t, i in enumerate(trials.tolist()):
                want_n, *want = draw(np.random.default_rng([seed, i]))
                assert want_n == n, i
                for got, value in zip(fields, want):
                    assert np.array_equal(got[t], value), i
                seen.append(i)
        assert sorted(seen) == list(range(start, start + count))


def test_trial_words_groups_hold_their_width_within_budget():
    # Each group shares one width and lists its trials in order; it is
    # yielded once it holds _RAW_BUDGET outputs, so it holds fewer before
    # its last trial.  Every trial of the span comes once.
    seen = []
    for trials, words in trial_words(3, 5, 2 * _SEED_BLOCK + 9,
                                     lambda word: _SET_RAWS[
                                         word * _SET_NS >> 32]):
        w = words.shape[1] // 2
        widths = {_SET_RAWS[int(row[0]) * _SET_NS >> 32] for row in words}
        assert widths == {w}
        assert (len(trials) - 1) * w < _RAW_BUDGET
        assert trials.tolist() == sorted(trials.tolist())
        seen += trials.tolist()
    assert sorted(seen) == list(range(5, 5 + 2 * _SEED_BLOCK + 9))


def _group_of(n, seed, first, count, ns, raws):
    """The (trials, words) group of trials with n from the first block of
    trials first, first + 1, ... as the decoders read them."""
    for trials, words in trial_words(seed, first, count,
                                     lambda word: raws[word * ns >> 32]):
        if 2 + (int(words[0, 0]) * ns >> 32) == n:
            return trials, words
    raise AssertionError(f"no trial with n={n}")


def _check_redrawn(decode, draw, seed, trials, words, crafted, rows):
    # The crafted rows come back after the others, each as a group of
    # one drawn by its own Generator; the rest decode as before.
    got = decode(seed, trials, crafted)
    keep = np.setdiff1d(np.arange(len(trials)), rows)
    want = decode(seed, trials, words)
    assert len(want) == 1
    assert got[0][0] == want[0][0]
    for a, b in zip(got[0][1:], want[0][1:]):
        assert np.array_equal(a, b[keep])
    assert [g[1].tolist() for g in got[1:]] == [[int(trials[t])]
                                                for t in rows]
    for (n, ids, *fields), t in zip(got[1:], rows):
        want_n, *values = draw(np.random.default_rng([seed, int(trials[t])]))
        assert n == want_n
        for f, v in zip(fields, values):
            assert np.array_equal(f[0], v)


def test_rejected_set_words_drawn_by_their_generator():
    # n = 4: range 11 for n rejects low halves below 4, k's range 5 below
    # 1 and a character's range 15 below 1, so a zero word is rejected in
    # each place; row 1 gets n's, row 2 k's, and the first row from 3 on
    # with k >= 1 its first character's.
    seed, n, size = 5, 4, 16
    trials, words = _group_of(n, seed, 40, _SEED_BLOCK, _SET_NS, _SET_RAWS)
    k = bounded_draws(words[:, size + 1], n + 1)[0]
    char_row = 3 + int(np.flatnonzero(k[3:])[0])
    crafted = words.copy()
    crafted[1, 0] = 0
    crafted[2, size + 1] = 0
    crafted[char_row, size + 2] = 0
    assert bounded_draws(crafted[1, 0], _SET_NS)[1]
    assert bounded_draws(crafted[2, size + 1], n + 1)[1]
    assert bounded_draws(crafted[char_row, size + 2], size - 1)[1]
    _check_redrawn(_decode_sets, _draw_set_and_subspace, seed, trials,
                   words, crafted, [1, 2, char_row])


def test_rejected_chang_words_drawn_by_their_generator():
    # n = 3: range 17 for a numerator rejects a low half of 0, and so does
    # j's range 5; row 1 gets a zero numerator word, row 2 a zero j word.
    seed, n, size = 5, 3, 8
    trials, words = _group_of(n, seed, 40, _SEED_BLOCK, _CHANG_NS,
                              _CHANG_RAWS)
    crafted = words.copy()
    crafted[1, 5] = 0
    crafted[2, size + 2] = 0
    assert bounded_draws(crafted[1, 5], 17)[1]
    assert bounded_draws(crafted[2, size + 2], 5)[1]
    _check_redrawn(_decode_chang, _draw_chang, seed, trials, words,
                   crafted, [1, 2])


def test_rejected_beckner_words_drawn_by_their_generator():
    # n = 3: range 17 for a numerator and range 7 for a candidate reject a
    # zero word.  Row 1 gets a zero numerator word, the first row from 2
    # on with k >= 1 a zero first candidate, and the next row with k >= 2
    # candidates that all decode to 1 (word 1: 7 * 1 has low half 7, at
    # least 2^32 mod 7 = 4), so its loop keeps one character and runs past
    # the slack.
    seed, n, size = 5, 3, 8
    trials, words = _group_of(n, seed, 40, _SEED_BLOCK, _BECKNER_NS,
                              _BECKNER_RAWS)
    k = bounded_draws(words[:, size + 2], 4)[0]
    char_row = 2 + int(np.flatnonzero(k[2:])[0])
    slack_row = char_row + 1 + int(np.flatnonzero(k[char_row + 1:] >= 2)[0])
    crafted = words.copy()
    crafted[1, 5] = 0
    crafted[char_row, size + 3] = 0
    crafted[slack_row, size + 3:] = 1
    assert bounded_draws(crafted[1, 5], 17)[1]
    assert bounded_draws(crafted[char_row, size + 3], size - 1)[1]
    assert not bounded_draws(crafted[slack_row, size + 3:], size - 1)[1].any()
    _check_redrawn(_decode_beckner, _draw_beckner, seed, trials, words,
                   crafted, [1, char_row, slack_row])


def _stream_starting_with(raw0):
    """A Generator whose first 64-bit output is raw0: PCG64 steps its
    128-bit state, then outputs the XOR of its halves rotated right by the
    top six bits, so a state with those bits 0 and halves (1, 1 ^ raw0) is
    stepped back to the state before it."""
    inc = 1
    after = (1 << 64) | (1 ^ raw0)
    before = (after - inc) * pow(_PCG_MULT, -1, 1 << 128) % (1 << 128)
    rng = np.random.default_rng(0)
    rng.bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": before, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
    return rng


def test_bounded_draws_flag_exactly_the_rejected_words():
    # A word whose product with high has low half 2^32 mod high - 1 is the
    # largest that numpy rejects, and one more is accepted: numpy then
    # draws from the next word, the stream's second.
    second = 0x9E3779B9
    for high in (3, 61, 65, (1 << 32) - 1):
        threshold = (1 << 32) % high
        for low in (threshold - 1, threshold):
            word = low * pow(high, -1, 1 << 32) % (1 << 32)
            rng = _stream_starting_with(word | second << 32)
            assert rng.bit_generator.random_raw() == word | second << 32
            rng = _stream_starting_with(word | second << 32)
            got = int(rng.integers(0, high))
            draws, redrawn = bounded_draws(
                np.array([word, second], dtype=np.uint64), high)
            assert redrawn.tolist() == [low < threshold, False]
            assert got == draws[1 if low < threshold else 0]
    # a power of two never rejects
    words = np.array([0, 1, 1 << 31, (1 << 32) - 1], dtype=np.uint64)
    for high in (8, 64, 1 << 32):
        assert not bounded_draws(words, high)[1].any()


def test_rejected_techlem_trial_drawn_by_its_generator():
    # Crafted words: trial 3's first den is 2 (range 3, which rejects low
    # halves below 1) and its first num word 0, which numpy would reject.
    # That trial alone comes from its own Generator.
    seed, first = 5, 40
    trials, words = next(trial_words(seed, first, 6, _techlem_width))
    assert trials.tolist() == list(range(first, first + 6))
    crafted = words.copy()
    crafted[3, 1:3] = [1 << 26, 0]
    assert bounded_draws(crafted[3, 1], 64)[0] + 1 == 2
    assert bounded_draws(crafted[3, 2], 3)[1]
    got = _decode_techlem(seed, trials, crafted)
    want = _decode_techlem(seed, trials, words)
    for a, b in zip(got, want):
        assert (a == b).all()
    nums, dens, m = got
    assert (nums[3, :m[3]].tolist(), dens[3, :m[3]].tolist()) == (
        _draw_techlem(np.random.default_rng([seed, first + 3])))
    assert dens[3, 0] != 2 or nums[3, 0] != 0


def _drop_last_row(original):
    def chang_span(*args):
        basis = original(*args).copy()
        dims = np.count_nonzero(basis, axis=1)
        rows = np.flatnonzero(dims)
        basis[rows, dims[rows] - 1] = 0
        return basis
    return chang_span


def _cap_over_eight(original):
    def chang_cardinality_bound(l1, l2sq, eps):
        return original(l1, l2sq, eps) / 8
    return chang_cardinality_bound


def _one_unit_up(original):
    def residual_l1(fv):
        nums, exps, broken = original(fv)
        return nums + 1, exps, broken
    return residual_l1


def _rhs_minus_one(original):
    def frac_quadratic_gap(nums, dens, m):
        _, rhs, squares = original(nums, dens, m)
        return [r - sq for r, sq in zip(rhs, squares)], rhs, squares
    return frac_quadratic_gap


def _mass_one_unit_off(original):
    def riesz_product(n, lambdas, etas):
        p = original(n, lambdas, etas)
        nums = p.nums.copy()
        nums[:, 0] += 1
        return RieszProduct(nums, p.exps, p.lambdas, p.etas)
    return riesz_product


def _floor_one_unit_up(original):
    def physical_lower_bound(sizes, n, dims):
        nums, exps = original(sizes, n, dims)
        return nums + 1, exps
    return physical_lower_bound


# The same mutants on the per-trial forms in tests/_reference.py.
def _ref_drop_last_row(original):
    def chang_span(spec, threshold):
        return DualSubspace(original(spec, threshold).basis[:-1])
    return chang_span


def _ref_one_unit_up(original):
    def residual_l1(fv):
        got = original(fv)
        return DyadicScalar(got.num + 1, got.exp)
    return residual_l1


def _ref_rhs_minus_one(original):
    def frac_quadratic_gap(deltas):
        _, rhs = original(deltas)
        return rhs - 1, rhs
    return frac_quadratic_gap


def _ref_mass_one_unit_off(original):
    def riesz_product(dim, lambdas, eta):
        p = original(dim, lambdas, eta)
        nums = p.table.nums.copy()
        nums[0] += 1
        return _reference.RieszTable(
            FunctionTable(p.table.dim, nums, p.table.exp), p.lambdas, p.eta)
    return riesz_product


def _ref_floor_one_unit_up(original):
    def physical_lower_bound(alpha, order):
        floor = original(alpha, order)
        return DyadicScalar(floor.num + 1, floor.exp)
    return physical_lower_bound


# What each mutant's violations say: the check that the mutant broke.
_CAUGHT_BY = {
    "chang_span": "outside the span",
    "chang_cardinality_bound": r"span dimension \d+ above the Chang bound",
    "residual_l1": "!= coset closed form",
    "frac_quadratic_gap": r"= g\(1-g\)",
    "riesz_product": "Riesz product mass",
    "physical_lower_bound": "below the floor",
}


_MUTANTS = [
    ("chang", "chang_span", _drop_last_row),
    ("chang", "chang_cardinality_bound", _cap_over_eight),
    ("tA", "residual_l1", _one_unit_up),
    ("techlem", "frac_quadratic_gap", _rhs_minus_one),
    ("beckner", "riesz_product", _mass_one_unit_off),
    ("lem1", "physical_lower_bound", _floor_one_unit_up),
]


@pytest.mark.parametrize("suite, attr, mutate", _MUTANTS)
def test_suite_catches_mutant(monkeypatch, suite, attr, mutate):
    monkeypatch.setattr(verify, attr, mutate(getattr(verify, attr)))
    res = run_suite(suite, trials=30, seed=11)
    assert res.violations
    assert all(msg.startswith("trial ") and re.search(_CAUGHT_BY[attr], msg)
               for msg in res.violations), res.violations


def test_techlem_mutant_messages_pinned(monkeypatch):
    # Trials must draw what default_rng([seed, i]) draws: any drift in the
    # streams changes these deltas.
    monkeypatch.setattr(verify, "frac_quadratic_gap",
                        _rhs_minus_one(verify.frac_quadratic_gap))
    assert run_suite("techlem", 3, 11).violations == [
        "trial 0: sum(d - d^2) = -63577/82944 < 19367/82944 = g(1-g) "
        "for deltas [Fraction(7, 9), Fraction(19, 32)]",
        "trial 1: sum(d - d^2) = -1625091781/2117840400 < "
        "492748619/2117840400 = g(1-g) for deltas "
        "[Fraction(3, 13), Fraction(53, 60), Fraction(15, 59)]",
        "trial 2: sum(d - d^2) = -661/841 < 180/841 = g(1-g) "
        "for deltas [Fraction(20, 29), Fraction(1, 1)]",
    ]


# Every violation, in order, that each mutant gives at trials=30, seed=11,
# as checking the trials one at a time gives them.
_PINNED = json.loads((pathlib.Path(__file__).parent
                      / "verify_mutants.json").read_text())


@pytest.mark.parametrize("suite, attr, mutate", _MUTANTS)
def test_mutant_violations_pinned(monkeypatch, suite, attr, mutate):
    monkeypatch.setattr(verify, attr, mutate(getattr(verify, attr)))
    assert run_suite(suite, trials=30, seed=11).violations == _PINNED[attr]


# stdout of verify --suite all --trials 500 at seeds 1, 2 and 3.
_ALL_PASS = "".join(f"suite {name}: trials=500 violations=0 PASS\n"
                    for name in SUITE_NAMES)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_verify_all_stdout_pinned(capsys, seed, jobs):
    rc = cli.main(["verify", "--suite", "all", "--trials", "500",
                   "--seed", str(seed), "--jobs", str(jobs)])
    assert (rc, capsys.readouterr().out) == (0, _ALL_PASS)


@pytest.mark.parametrize("suite, attr, mutate",
                         [m for m in _MUTANTS if m[0] != "techlem"])
def test_sharding_keeps_violations_under_a_mutant(monkeypatch, suite, attr,
                                                  mutate):
    # 1500 trials over 3 jobs: shards of 500 cut every n-group at their
    # ends, and the third shard crosses the seed block boundary.
    assert 1000 < _SEED_BLOCK < 1500
    monkeypatch.setattr(verify, attr, mutate(getattr(verify, attr)))
    serial = run_suite(suite, trials=1500, seed=5, jobs=1).violations
    assert serial
    assert [int(m.split()[1][:-1]) for m in serial] == sorted(
        int(m.split()[1][:-1]) for m in serial)
    assert run_suite(suite, trials=1500, seed=5, jobs=3).violations == serial


def test_sharding_keeps_every_techlem_message(monkeypatch):
    # Under the mutant every trial violates, so all 5000 messages, with
    # their deltas and both sides, are compared; shards of 1667 start off
    # the seed blocks.
    monkeypatch.setattr(verify, "frac_quadratic_gap",
                        _rhs_minus_one(verify.frac_quadratic_gap))
    serial = run_suite("techlem", 5000, 11, jobs=1).violations
    assert len(serial) == 5000
    assert run_suite("techlem", 5000, 11, jobs=3).violations == serial


def _per_trial(name, seed, count):
    trial = REFERENCE_TRIALS[name]
    out = []
    for i, rng in trial_rngs(seed, 0, count):
        msg = trial(rng)
        if msg is not None:
            out.append(f"trial {i}: {msg}")
    return out


_REFERENCE_MUTANTS = {
    "tA": ("residual_l1", _one_unit_up, _ref_one_unit_up),
    "lem1": ("physical_lower_bound", _floor_one_unit_up,
             _ref_floor_one_unit_up),
    "techlem": ("frac_quadratic_gap", _rhs_minus_one, _ref_rhs_minus_one),
    "beckner": ("riesz_product", _mass_one_unit_off, _ref_mass_one_unit_off),
    "chang": ("chang_span", _drop_last_row, _ref_drop_last_row),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_TRIALS))
@pytest.mark.parametrize("mutated", [False, True])
def test_batched_suites_match_per_trial(monkeypatch, name, mutated):
    if mutated:
        attr, batched, per_trial = _REFERENCE_MUTANTS[name]
        monkeypatch.setattr(verify, attr, batched(getattr(verify, attr)))
        monkeypatch.setattr(_reference, attr,
                            per_trial(getattr(_reference, attr)))
    for seed in (0, 4, 2**40 + 1):
        want = _per_trial(name, seed, 300)
        assert run_suite(name, 300, seed).violations == want
        assert bool(want) == mutated


def test_beckner_floats_match_per_trial(monkeypatch):
    # A negative slack flags about one trial in ten, so the messages print
    # both sides of the smoothing bound: their reprs must be the per-trial
    # check's, bit for bit.
    monkeypatch.setattr(verify, "BECKNER_SLACK", -0.3)
    monkeypatch.setattr(_reference, "BECKNER_SLACK", -0.3)
    for seed in (0, 9):
        want = _per_trial("beckner", seed, 400)
        assert len(want) > 20
        assert run_suite("beckner", 400, seed).violations == want


def test_batched_beckner_edge_cases():
    # n = 2 stacks of every character count from 0 (no factor) to n, and
    # every suite eta, each row against the per-trial check.
    from f2wiener.chang import beckner_verify, riesz_product
    rng = np.random.default_rng(12)
    for n in (2, 3):
        tables, lams, etas = [], [], []
        for k in range(n + 1):
            for eta in verify._ETAS:
                tables.append(_reference.random_table(rng, n))
                lams.append(_reference.random_independent_chars(rng, n, k))
                etas.append(eta)
        lambdas = np.zeros((len(lams), n), dtype=np.int64)
        for row, chars in enumerate(lams):
            lambdas[row, :len(chars)] = chars
        p = riesz_product(n, lambdas, etas)
        lhs, rhs = beckner_verify(np.stack([f.nums for f in tables]),
                                  [f.exp for f in tables], p)
        for t, (f, chars, eta) in enumerate(zip(tables, lams, etas)):
            ref = _reference.riesz_product(n, chars, eta)
            assert FunctionTable(n, p.nums[t], int(p.exps[t])) == ref.table
            assert (lhs[t], rhs[t]) == _reference.beckner_verify(f, ref)


def test_batched_residual_edge_cases():
    # n = 2 with every subspace, the empty and the full set; then dim V = 0
    # and dim V = n at n = 5, each row against the per-trial reference.
    from f2wiener.groups import all_subspaces
    from f2wiener.setfuncs import (PointSet, physical_lower_bound,
                                   residual_l1, residual_rows)
    from _reference import full_set, full_subspace
    cases = []
    for n in (2, 5):
        sets = [PointSet(n, 0), full_set(n), PointSet.from_points(n, [1])]
        subs = (list(all_subspaces(n)) if n == 2
                else [DualSubspace.trivial(), full_subspace(n)])
        cases.append([(a, v) for a in sets for v in subs])
    for rows in cases:
        ind, chars = stack_rows([a for a, _ in rows], [v for _, v in rows])
        fv = residual_rows(ind, chars)
        nums, exps, broken = residual_l1(fv)
        sizes = ind.sum(axis=1)
        n = rows[0][0].dim.n
        floor, floor_exp = physical_lower_bound(sizes, n, fv.dims)
        assert broken == {}
        for t, (a, v) in enumerate(rows):
            want = reference_residual(a, v)
            assert fv.dims[t] == v.dim
            assert table_fractions(want.table) == [
                Fraction(x, 1 << (n - v.dim)) for x in fv.nums[t].tolist()]
            l1 = _reference.residual_l1(want)
            assert (int(nums[t]), int(exps[t])) == (l1.num, l1.exp)
            assert DyadicScalar(int(floor[t]), int(floor_exp[t])) == (
                _reference.physical_lower_bound(a.density(), v.order))


def test_stacked_chang_edge_rows(monkeypatch):
    # n = 2 rows through verify's stacked chang check: an all-zero table
    # (l1 = 0, so it draws no j and its j here is never read), a row at
    # j = 0 (f = |f| chi_1, so only hat f(1) reaches l1), a full-rank row
    # (a point mass: every |hat f| is l1) and a row with no large
    # character (|hat f| = l1 / 2 everywhere, at j = 0).
    from f2wiener.chang import chang_span
    n = 2
    nums = np.array([[0, 0, 0, 0], [3, -1, 2, -5], [8, 0, 0, 0],
                     [1, 1, 1, -1]], dtype=np.int64)
    exps = np.array([0, 1, 2, 0])
    js = np.array([99, 0, 4, 0])
    want = []
    for t in range(1, 4):
        f = FunctionTable(n, nums[t], int(exps[t]))
        thr = _reference.l1_norm(f).as_fraction() / 2 ** int(js[t])
        want.append(brute_chang_span(table_fractions(_reference.fwht(f)),
                                     thr, n))
    assert [len(basis) for basis, _ in want] == [1, 2, 0]
    spec = nums[1:].copy()
    for row in spec:
        row[:] = _reference.fwht(FunctionTable(n, row, 0)).nums
    l1 = np.abs(nums[1:]).sum(axis=1)
    basis = chang_span(spec, (exps[1:] + n).tolist(), l1.tolist(),
                       (exps[1:] + n + js[1:]).tolist())
    assert [tuple(g for g in row if g) for row in basis.tolist()] == [
        b for b, _ in want]
    # No violation, and one Chang cap per nonzero row, the reference's.
    caps = []

    def record(original):
        def chang_cardinality_bound(l1, l2sq, eps):
            caps.append(original(l1, l2sq, eps))
            return caps[-1]
        return chang_cardinality_bound

    monkeypatch.setattr(verify, "chang_cardinality_bound",
                        record(verify.chang_cardinality_bound))
    assert verify._eval_chang(n, [10, 11, 12, 13], nums, exps, js) == []
    assert caps == pytest.approx([cap for _, cap in want], rel=1e-12)
    # A zero cap reports every row of positive dimension, with its dimension.
    monkeypatch.setattr(verify, "chang_cardinality_bound",
                        lambda l1, l2sq, eps: 0.0)
    assert verify._eval_chang(n, [10, 11, 12, 13], nums, exps, js) == [
        (11, "span dimension 1 above the Chang bound 0.0 (n=2, eps=1)"),
        (12, "span dimension 2 above the Chang bound 0.0 (n=2, eps=1/2^4)")]
