import concurrent.futures
import json
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _reference
from f2wiener import cli, verify
from f2wiener.chang import RieszProduct
from f2wiener.dyadic import DyadicScalar
from f2wiener.groups import DualSubspace
from f2wiener import _draws
from f2wiener._draws import (beckner_draws, chang_draws, set_draws,
                             techlem_draws)
from f2wiener._streams import bounded, trial_bases, trial_words
from f2wiener.verify import MAX_JOBS, MAX_TRIALS, SUITE_NAMES, run_suite

from _reference import (REFERENCE_TRIALS, TrialStream, brute_chang_span,
                        draw_beckner, draw_chang, draw_set, draw_techlem,
                        mulhi, parity_labels, span_of, stack_rows,
                        stream_word, table_fractions, table_fwht, table_l1)


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


def test_pool_sized_to_its_chunks(monkeypatch):
    # jobs above the chunk count start no idle worker: the pool is sized
    # to the chunks it maps.  The stand-in pool maps in this process and
    # records its size, so no process starts.
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool)
    for trials, jobs, chunks in ((4, 64, 4), (4, 3, 2), (10, 4, 4),
                                 (10, 6, 5), (10, 9, 5), (12, 2, 2)):
        sizes.clear()
        got = run_suite("tA", trials=trials, seed=3, jobs=jobs)
        assert sizes == [chunks], (trials, jobs)
        assert got == run_suite("tA", trials=trials, seed=3, jobs=1)
    sizes.clear()
    run_suite("tA", trials=3, seed=3, jobs=64)
    assert sizes == []


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32, 2**64 - 1, 2**64,
                                  2**64 + 7, 2**130 + 3])
def test_stream_words_match_reference(seed):
    # Trials 0, 7 and the last, words 0..3 and a far one, against the
    # Python-int stream; then a trial's words do not depend on where its
    # block or shard starts.
    for i in (0, 7, MAX_TRIALS - 1):
        trials, bases = trial_bases(seed, i, i + 1)
        assert trials.tolist() == [i]
        words = trial_words(bases, 1100)
        assert [int(words[0, k]) for k in (0, 1, 2, 3, 1099)] == [
            stream_word(seed, i, k) for k in (0, 1, 2, 3, 1099)]
    whole = trial_words(trial_bases(seed, 0, 40)[1], 5)
    for start in (1, 7, 13, 39):
        assert np.array_equal(trial_words(trial_bases(seed, start, 40)[1], 5),
                              whole[start:])


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32, 2**64 + 7,
                                  2**130 + 3])
def test_jump_ahead_outputs_match_random_raw(seed):
    # trial_bases jumps straight to trial lo and trial_words to word k,
    # (k + 1) G past the base, with no stepping; those words are the
    # outputs of SplitMix64 stepped one word at a time from the base.
    for lo, hi in ((0, 3), (4094, 4098), (MAX_TRIALS - 2, MAX_TRIALS)):
        trials, bases = trial_bases(seed, lo, hi)
        assert trials.tolist() == list(range(lo, hi))
        words = trial_words(bases, 300)
        for t, i in enumerate(range(lo, hi)):
            assert words[t].tolist() == TrialStream(seed, i).random_raw(300)


def test_seeds_a_limb_apart_draw_apart():
    # key(S) folds in the limb count, so S and S + 2^64 (and 2^64 - 1
    # and 2^128 - 1, whose limbs are all ones) read different streams.
    for seed, other in ((0, 2**64), (7, 2**64 + 7), (2**64 - 1, 2**128 - 1),
                        (2**64, 2**128 + 2**64)):
        a = trial_words(trial_bases(seed, 0, 64)[1], 8)
        b = trial_words(trial_bases(other, 0, 64)[1], 8)
        assert not (a == b).any()
        assert stream_word(seed, 3, 2) == int(a[3, 2])
        assert stream_word(other, 3, 2) == int(b[3, 2])


def test_bounded_is_the_exact_multiply_high():
    # floor(w r / 2^64) from 32-bit halves against Python ints, for random
    # words and the extremes, over ranges where the low half's carry
    # matters (r near 2^32) and where it rarely does.
    words = trial_words(trial_bases(3, 0, 1)[1], 4000)[0]
    words[:4] = [0, 1, (1 << 32) - 1, (1 << 64) - 1]
    for r in (1, 2, 3, 17, 61, 64, 65, 4095, (1 << 32) - 1, 1 << 32):
        assert bounded(words, r).tolist() == [
            mulhi(w, r) for w in words.tolist()]
    ranges = np.arange(1, 4001)
    assert bounded(words, ranges).tolist() == [
        mulhi(w, r) for w, r in zip(words.tolist(), ranges.tolist())]


# Spans of trials that start off 0, cross the blocks of a test that draws n
# 16 trials at a time (techlem 16 rows at a time), and end at the last.
_SPANS = [(0, 2), (7, 40), (MAX_TRIALS - 3, 3)]


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32, 2**64 + 7,
                                  2**130 + 3])
def test_decoded_techlem_draws_match_generator(monkeypatch, seed):
    # Every trial's m, dens and nums against the reference stream's
    # per-trial draws.
    monkeypatch.setattr(_draws, "_TECHLEM_ROWS", 16)
    for start, count in _SPANS:
        seen = []
        for trials, nums, dens, m in techlem_draws(seed, start, count):
            assert len(m) == len(trials)
            for t, (i, k) in enumerate(zip(trials.tolist(), m.tolist())):
                want = draw_techlem(TrialStream(seed, i))
                assert (nums[t, :k].tolist(), dens[t, :k].tolist()) == want
                assert (nums[t, k:] == 0).all() and (dens[t, k:] == 1).all()
                seen.append(i)
        assert seen == list(range(start, start + count))


_DECODED = {"set": (set_draws, draw_set),
            "chang": (chang_draws, draw_chang),
            "beckner": (beckner_draws, draw_beckner)}


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32, 2**64 + 7,
                                  2**130 + 3])
@pytest.mark.parametrize("kind", sorted(_DECODED))
def test_decoded_set_and_chang_draws_match_generator(monkeypatch, kind, seed):
    # Every trial's array draws against the reference stream's per-trial
    # draws, whose k characters the arrays pad with zeros; a group shares
    # n, holds at most _group_rows(n) trials and lists them in order.
    monkeypatch.setattr(_draws, "_BLOCK", 16)
    draws, draw = _DECODED[kind]
    for start, count in _SPANS:
        seen = []
        for n, trials, *fields in draws(seed, start, count):
            assert trials.tolist() == sorted(trials.tolist())
            assert len(trials) <= _draws._group_rows(n)
            for t, i in enumerate(trials.tolist()):
                want_n, *want = draw(TrialStream(seed, i))
                assert want_n == n, i
                for got, value in zip(fields, want):
                    if isinstance(value, list):
                        value = value + [0] * (len(got[t]) - len(value))
                    assert np.array_equal(got[t], value), i
                seen.append(i)
        assert sorted(seen) == list(range(start, start + count))


# Each kind of draws: its suites, its draws and its widest n (None: no n).
_KINDS = {"set": (("tA", "lem1"), set_draws, 12),
          "techlem": (("techlem",), techlem_draws, None),
          "chang": (("chang",), chang_draws, 10),
          "beckner": (("beckner",), beckner_draws, 10)}


@pytest.mark.parametrize("kind", ["beckner", "chang", "set", "techlem"])
def test_only_wide_trials_load_a_generator(monkeypatch, kind):
    # No trial is too wide for the stream words, so none loads a
    # generator: every draw, the widest n's included, comes from the
    # stream the package defines, and no numpy Generator, SeedSequence or
    # bit generator is made while the suites run.
    def refuse(*args, **kwargs):
        raise AssertionError("a numpy random generator was made")

    for name in ("default_rng", "Generator", "SeedSequence", "PCG64"):
        monkeypatch.setattr(np.random, name, refuse)
    suites, draws, widest = _KINDS[kind]
    if widest is not None:
        assert max(group[0] for group in draws(4, 0, 300)) == widest
    for name in suites:
        assert run_suite(name, 300, 4).ok


def test_trial_words_groups_hold_their_width_within_budget(monkeypatch):
    # A group of _by_n holds trials of one n (its width), word 0's draw, in
    # trial order and at most _group_rows(n) of them, so its tables hold
    # at most 2^13 entries; every trial lands in one group, across blocks.
    monkeypatch.setattr(_draws, "_BLOCK", 700)
    for ns in (9, 11):
        seen = []
        for n, trials, bases in _draws._by_n(5, 3, 3000, ns):
            assert 2 <= n < 2 + ns
            assert 1 <= len(trials) <= _draws._group_rows(n) <= 256
            assert len(trials) << n <= 1 << 13
            assert trials.tolist() == sorted(trials.tolist())
            for t, i in enumerate(trials.tolist()):
                assert int(bases[t]) == int(trial_bases(5, i, i + 1)[1][0])
            assert (2 + bounded(trial_words(bases, 1)[:, 0], ns) == n).all()
            seen += trials.tolist()
        assert sorted(seen) == list(range(3, 3003))


def test_draws_cover_their_ranges():
    # One fixed seed: every n, k, m, exp, j and eta index in range occurs,
    # and every delta and numerator lies in its range and reaches its ends.
    seed, count = 17, 3000
    set_ns, set_ks = set(), set()
    for n, _, ind, chars in set_draws(seed, 0, count):
        set_ns.add(n)
        set_ks.update(np.count_nonzero(chars, axis=1).tolist())
        assert ind.shape[1] == 1 << n and set(np.unique(ind)) <= {0, 1}
        assert ((chars >= 0) & (chars < 1 << n)).all()
    assert set_ns == set(range(2, 13)) and set_ks == set(range(13))
    ms, num_seen, den_seen = set(), set(), set()
    for _, nums, dens, m in techlem_draws(seed, 0, count):
        ms.update(m.tolist())
        used = np.arange(8) < m[:, None]
        assert ((0 <= nums) & (nums <= dens) & (dens >= 1)
                & (dens <= 64)).all()
        num_seen.update(nums[used].tolist())
        den_seen.update(dens[used].tolist())
    assert ms == set(range(1, 9)) and den_seen == set(range(1, 65))
    assert num_seen == set(range(65))
    for draws in (chang_draws, beckner_draws):
        ns, vals, exps, lasts = set(), set(), set(), set()
        for n, _, nums, exp, *rest in draws(seed, 0, count):
            ns.add(n)
            vals.update(np.unique(nums).tolist())
            exps.update(exp.tolist())
            lasts.update(rest[-1].tolist())
        assert ns == set(range(2, 11)) and vals == set(range(-8, 9))
        assert exps == set(range(4))
        # chang's j in [0, 4], beckner's eta index in [0, 3]
        assert lasts == set(range(5 if draws is chang_draws else 4))


def test_beckner_characters_independent():
    # Every beckner trial of a fixed seed draws exactly k nonzero
    # characters, each outside the span of those before it, with every k
    # from 0 to min(n, 4) at every n.
    seen = set()
    for n, _, _, _, lambdas, _ in beckner_draws(23, 0, 4000):
        for row in lambdas.tolist():
            k = np.count_nonzero(row)
            assert all(0 < g < 1 << n for g in row[:k]) and not any(row[k:])
            assert span_of(row[:k]).dim == k
            seen.add((n, k))
    assert seen == {(n, k) for n in range(2, 11)
                    for k in range(min(n, 4) + 1)}

def _cap_over_eight(original):
    def chang_cardinality_bound(l1, l2sq, eps):
        return original(l1, l2sq, eps) / 8
    return chang_cardinality_bound


def _one_unit_up(original):
    def residual_l1(ind, chars):
        nums, exps, dims = original(ind, chars)
        return nums + 1, exps, dims
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
def _ref_one_unit_up(original):
    def residual_l1(a, v):
        got = original(a, v)
        return DyadicScalar(got.num + 1, got.exp)
    return residual_l1


def _ref_rhs_minus_one(original):
    def frac_quadratic_gap(deltas):
        _, rhs = original(deltas)
        return rhs - 1, rhs
    return frac_quadratic_gap


def _ref_mass_one_unit_off(original):
    def riesz_product(dim, lambdas, eta):
        nums, exp = original(dim, lambdas, eta)
        nums = nums.copy()
        nums[0] += 1
        return nums, exp
    return riesz_product


def _ref_floor_one_unit_up(original):
    def physical_lower_bound(alpha, order):
        floor = original(alpha, order)
        return DyadicScalar(floor.num + 1, floor.exp)
    return physical_lower_bound


# What each mutant's violations say: the check that the mutant broke.
_CAUGHT_BY = {
    "chang_cardinality_bound": r"span dimension \d+ above the Chang bound",
    "residual_l1": "!= coset closed form",
    "frac_quadratic_gap": r"= g\(1-g\)",
    "riesz_product": "Riesz product mass",
    "physical_lower_bound": "below the floor",
}


_MUTANTS = [
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
    # Trials must draw what the documented stream of (seed, i) gives: any
    # drift in the stream or its layout changes these deltas.
    monkeypatch.setattr(verify, "frac_quadratic_gap",
                        _rhs_minus_one(verify.frac_quadratic_gap))
    assert run_suite("techlem", 3, 11).violations == [
        "trial 0: sum(d - d^2) = -190109803/253478241 < "
        "63368438/253478241 = g(1-g) for deltas [Fraction(0, 1), "
        "Fraction(7, 61), Fraction(24, 29), Fraction(1, 1), Fraction(5, 9)]",
        "trial 1: sum(d - d^2) = -21/25 < 4/25 = g(1-g) "
        "for deltas [Fraction(4, 5)]",
        "trial 2: sum(d - d^2) = -49/64 < 15/64 = g(1-g) "
        "for deltas [Fraction(7, 8), Fraction(0, 1), Fraction(1, 2)]",
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
    # ends; then blocks of 256 trials cut them in-process.
    monkeypatch.setattr(verify, attr, mutate(getattr(verify, attr)))
    serial = run_suite(suite, trials=1500, seed=5, jobs=1).violations
    assert serial
    assert [int(m.split()[1][:-1]) for m in serial] == sorted(
        int(m.split()[1][:-1]) for m in serial)
    assert run_suite(suite, trials=1500, seed=5, jobs=3).violations == serial
    monkeypatch.setattr(_draws, "_BLOCK", 256)
    assert run_suite(suite, trials=1500, seed=5, jobs=1).violations == serial


def test_sharding_keeps_every_techlem_message(monkeypatch):
    # Under the mutant every trial violates, so all 5000 messages, with
    # their deltas and both sides, are compared; shards of 1667 start off
    # the techlem blocks.
    monkeypatch.setattr(verify, "frac_quadratic_gap",
                        _rhs_minus_one(verify.frac_quadratic_gap))
    serial = run_suite("techlem", 5000, 11, jobs=1).violations
    assert len(serial) == 5000
    assert run_suite("techlem", 5000, 11, jobs=3).violations == serial


def _per_trial(name, seed, count):
    trial = REFERENCE_TRIALS[name]
    out = []
    for i in range(count):
        msg = trial(seed, i)
        if msg is not None:
            out.append(f"trial {i}: {msg}")
    return out


_REFERENCE_MUTANTS = {
    "tA": ("residual_l1", _one_unit_up, _ref_one_unit_up),
    "lem1": ("physical_lower_bound", _floor_one_unit_up,
             _ref_floor_one_unit_up),
    "techlem": ("frac_quadratic_gap", _rhs_minus_one, _ref_rhs_minus_one),
    "beckner": ("riesz_product", _mass_one_unit_off, _ref_mass_one_unit_off),
    "chang": ("chang_cardinality_bound", _cap_over_eight, _cap_over_eight),
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
        lhs, rhs = beckner_verify(np.stack([f[0] for f in tables]),
                                  [f[1] for f in tables], p)
        for t, (f, chars, eta) in enumerate(zip(tables, lams, etas)):
            ref = _reference.riesz_product(n, chars, eta)
            assert table_fractions(p.nums[t], int(p.exps[t])) == (
                table_fractions(*ref))
            assert (lhs[t], rhs[t]) == _reference.beckner_verify(f, ref, eta)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_coset_squares_match_coset_counts(data):
    # tA's spectral sum of c^2 against one bincount per row over the
    # parity labels of A's points.  Each row has its own k in [0, n]
    # characters, some repeating or adding up earlier ones, padded with
    # zeros to the stack's width and up to two columns past it.
    n = data.draw(st.integers(2, 12))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    ks = data.draw(st.lists(st.integers(0, n), min_size=1, max_size=4))
    width = max(ks) + data.draw(st.integers(0, min(2, 12 - max(ks))))
    chars = np.zeros((len(ks), width), dtype=np.int64)
    for row, k in zip(chars, ks):
        for i in range(k):
            kind = rng.integers(3) if i else 0
            if kind == 0:
                row[i] = rng.integers(1, 1 << n)
            elif kind == 1:
                row[i] = row[rng.integers(i)]
            else:
                subset = row[:i][rng.integers(2, size=i) == 1]
                row[i] = np.bitwise_xor.reduce(subset, initial=0)
    density = data.draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    ind = (rng.random((len(ks), 1 << n)) < density).astype(np.int8)
    sizes, squares = verify._coset_squares(ind, chars)
    for t in range(len(ks)):
        labels = parity_labels(chars[t], np.arange(1 << n))
        counts = np.bincount(labels[ind[t] != 0], minlength=1 << width)
        assert sizes[t] == ind[t].sum()
        assert squares[t] == int((counts * counts).sum()) << width


def test_batched_residual_edge_cases():
    # n = 2 with every subspace, the empty and the full set; then dim V = 0
    # and dim V = n at n = 5, each row against the per-trial reference.
    from f2wiener.groups import all_subspaces
    from f2wiener.setfuncs import PointSet, physical_lower_bound, residual_l1
    from _reference import full_set, full_subspace
    cases = []
    for n in (2, 5):
        sets = [PointSet(n, 0), full_set(n), PointSet.from_points(n, [1])]
        subs = (list(all_subspaces(n)) if n == 2
                else [DualSubspace.trivial(), full_subspace(n)])
        cases.append([(a, v) for a in sets for v in subs])
    for rows in cases:
        ind, chars = stack_rows([a for a, _ in rows], [v for _, v in rows])
        nums, exps, dims = residual_l1(ind, chars)
        sizes = ind.sum(axis=1)
        n = rows[0][0].dim.n
        floor, floor_exp = physical_lower_bound(sizes, n, dims)
        for t, (a, v) in enumerate(rows):
            assert dims[t] == v.dim
            l1 = _reference.residual_l1(a, v)
            assert (int(nums[t]), int(exps[t])) == (l1.num, l1.exp)
            assert DyadicScalar(int(floor[t]), int(floor_exp[t])) == (
                _reference.physical_lower_bound(a.density(), v.order))


def test_stacked_chang_edge_rows(monkeypatch):
    # n = 2 rows through verify's stacked chang check: an all-zero table
    # (l1 = 0, so it draws no j and its j here is never read), a row at
    # j = 0 (f = |f| chi_1, so only hat f(1) reaches l1), a full-rank row
    # (a point mass: every |hat f| is l1) and a row with no large
    # character (|hat f| = l1 / 2 everywhere, at j = 0).
    from f2wiener.chang import span_dims
    n = 2
    nums = np.array([[0, 0, 0, 0], [3, -1, 2, -5], [8, 0, 0, 0],
                     [1, 1, 1, -1]], dtype=np.int64)
    exps = np.array([0, 1, 2, 0])
    js = np.array([99, 0, 4, 0])
    want = []
    for t in range(1, 4):
        f = (nums[t], int(exps[t]))
        thr = table_l1(*f).as_fraction() / 2 ** int(js[t])
        want.append(brute_chang_span(table_fractions(*table_fwht(*f)),
                                     thr, n))
    assert [len(basis) for basis, _ in want] == [1, 2, 0]
    spec = nums[1:].copy()
    for row in spec:
        row[:] = table_fwht(row, 0)[0]
    l1 = np.abs(nums[1:]).sum(axis=1)
    dims = span_dims(spec, (exps[1:] + n).tolist(), l1.tolist(),
                     (exps[1:] + n + js[1:]).tolist())
    assert dims.tolist() == [1, 2, 0]
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
