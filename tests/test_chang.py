import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from f2wiener.chang import (DependentSet, LevelSet, NoQualifyingLevel,
                            ZeroMass, beckner_verify, chang_cardinality_bound,
                            gain_floor, level_sets, meets_gain_floor,
                            rank_spectrum, riesz_product, select_level,
                            span_dims)
from f2wiener.dyadic import ONE, DyadicScalar
from f2wiener.fourier import fwht
from f2wiener.groups import HARD_EXP_CAP, DualSubspace, subspace_extend
from f2wiener.setfuncs import PointSet

import _reference
from _reference import (annihilator_points, brute_chang_span, brute_level_sets,
                        brute_riesz_product, dyadic_from_fraction,
                        random_independent_chars, random_point_set,
                        random_subspace, random_table, reference_beckner,
                        reference_inverse_fwht, reference_ranking, residual,
                        residual_l1, span_of, subspace_elements,
                        table_fractions, table_fwht, table_l1, table_l2_sq)


def _qualifies(level: LevelSet) -> bool:
    """Whether select_level takes the level when it stands alone: its mass
    reaches gain_floor(s)."""
    try:
        return select_level([level]) is level
    except NoQualifyingLevel:
        return False


def _halfspace(n: int):
    return PointSet.from_points(n, [x for x in range(1 << n) if x & 1 == 0])


NONE = np.zeros(0, dtype=np.int64)


def _spec(nums, exp):
    """A hand-made spectrum nums / 2^exp, as an int64 (nums, exp) pair."""
    return np.array(nums, dtype=np.int64), exp


def _set_spec(a):
    """hat(chi_A) as the pair (S, n)."""
    return fwht(a), a.dim.n


def _cap(f, eps):
    # Chang's cap for the table f = (nums, exp), from its two norms.
    return chang_cardinality_bound(table_l1(*f), table_l2_sq(*f), eps)


def _dim(spec, thr):
    # One spectrum's large-spectrum span dimension through span_dims.
    nums, exp = spec
    return int(span_dims(nums[None, :], [exp], [thr.num], [thr.exp])[0])


def _levels(spec, excluded, base):
    return level_sets(reference_ranking(*spec),
                      np.asarray(excluded, np.int64), base)


def test_level_sets_halfspace():
    a = _halfspace(3)
    base = residual_l1(a, DualSubspace.trivial())
    assert base == DyadicScalar(1, 1)
    levels = level_sets(rank_spectrum(a), np.zeros(1, np.int64), base)
    assert len(levels) == 1
    lv = levels[0]
    assert lv.s == 0
    assert lv.members.tolist() == [1]
    assert lv.mass == DyadicScalar(1, 1)
    assert _qualifies(lv)


def test_level_sets_coset():
    # A = annihilator of a dim-d dual space: all of V \ {0} lands in band 0
    for n, rows in ((3, [0b001, 0b010]), (4, [0b0011, 0b0100])):
        v = span_of(rows)
        d = v.dim
        a = PointSet.from_points(n, annihilator_points(v.basis, n))
        base = residual_l1(a, DualSubspace.trivial())
        levels = _levels(_set_spec(a), [0], base)
        assert len(levels) == 1
        lv = levels[0]
        assert lv.s == 0
        assert sorted(lv.members.tolist()) == sorted(
            set(subspace_elements(v).tolist()) - {0})
        assert lv.mass == DyadicScalar((1 << d) - 1, d)


def test_level_sets_band_convention():
    # coefficients sitting exactly on 2^-s * base belong to band s
    fv = _spec([0, 2, 1, 4], 3)  # 0, 1/4, 1/8, 1/2
    base = DyadicScalar(1, 1)
    levels = _levels(fv, NONE, base)
    assert [(lv.s, lv.members.tolist()) for lv in levels] == [
        (0, [3]), (1, [1]), (2, [2])]
    assert levels[0].mass == DyadicScalar(1, 1)
    assert levels[1].mass == DyadicScalar(1, 2)
    assert levels[2].mass == DyadicScalar(1, 3)


def test_level_sets_errors():
    fv = _spec([0, 3], 2)  # coefficient 3/4
    with pytest.raises(ZeroMass):
        _levels(fv, NONE, DyadicScalar(0))
    with pytest.raises(ArithmeticError):
        _levels(fv, NONE, DyadicScalar(1, 1))  # 3/4 above base 1/2
    with pytest.raises(ArithmeticError):
        _levels(fv, [0], DyadicScalar(1, 1))
    # An excluded coefficient above the base is no error: the residual
    # spectrum is zero there.
    assert _levels(fv, [1], DyadicScalar(1, 1)) == []
    with pytest.raises(ValueError):
        _levels(fv, [2], DyadicScalar(1))  # not a character of F2^1
    with pytest.raises(ValueError):
        _levels(fv, [-1], DyadicScalar(1))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(1, 10), data=st.data())
def test_rank_spectrum_order_and_prefix(n, data):
    # Random sets, the empty set and the full set: S(0) = |A| is the
    # largest |S|, and the packed sort gives the order, ranks and exact
    # prefix sums of a stable argsort of -|S|.
    bits = data.draw(st.one_of(st.just(0), st.just((1 << (1 << n)) - 1),
                               st.integers(0, (1 << (1 << n)) - 1)))
    a = PointSet(n, bits)
    spec = fwht(a)
    assert int(spec[0]) == a.size == int(np.abs(spec).max())
    ranking = rank_spectrum(a)
    want = reference_ranking(spec, n)
    assert ranking.exp == want.exp == n
    for got, ref in ((ranking.order, want.order), (ranking.rank, want.rank),
                     (ranking.neg_mags, want.neg_mags)):
        assert got.dtype == np.int32
        assert got.tolist() == ref.tolist()
    mags = [abs(int(x)) for x in spec]
    sums = [0]
    for g in want.order.tolist():
        sums.append(sums[-1] + mags[g])
    assert ranking.prefix.dtype == np.int64
    assert ranking.prefix.tolist() == sums
    assert ranking.total() == DyadicScalar(sums[-1], n)


def test_level_set_equality_ignores_member_arrays():
    m = DyadicScalar(3, 2)
    a = LevelSet(0, np.array([1, 2, 3]), m)
    assert a == LevelSet(0, np.array([3, 1, 2]), m)
    assert a == LevelSet(0, np.array([5]), m)
    assert a != LevelSet(1, np.array([1, 2, 3]), m)
    assert a != LevelSet(0, np.array([1, 2, 3]), DyadicScalar(1, 2))


def _check_against_reference(spec, excluded, base):
    excluded = np.asarray(excluded, dtype=np.int64)
    levels = _levels(spec, excluded, base)
    got = [(lv.s, sorted(lv.members.tolist()), lv.mass.as_fraction())
           for lv in levels]
    coeffs = table_fractions(*spec)
    residual_coeffs = list(coeffs)
    for g in excluded.tolist():
        residual_coeffs[g] = Fraction(0)
    want = [(s, list(members), mass) for s, members, mass in
            brute_level_sets(residual_coeffs, coeffs, base.as_fraction())]
    assert got == want
    # Members share the ranking's order dtype, int32.
    for lv in levels:
        assert lv.members.dtype == np.int32
        assert not lv.members.flags.writeable


def test_level_sets_match_reference_on_residuals():
    # The excluded set is V; the bands must be those of the residual's own
    # spectrum, transformed from the residual table.
    rng = np.random.default_rng(44)
    done = 0
    while done < 80:
        n = int(rng.integers(1, 11))
        a = random_point_set(rng, n)
        v = random_subspace(rng, n, max_dim=n - 1)
        base = residual_l1(a, v)
        if base.num == 0:
            continue
        done += 1
        levels = level_sets(rank_spectrum(a), subspace_elements(v), base)
        got = [(lv.s, sorted(lv.members.tolist()), lv.mass.as_fraction())
               for lv in levels]
        want = [(s, list(members), mass) for s, members, mass in
                brute_level_sets(
                    table_fractions(*table_fwht(*residual(a, v))),
                    table_fractions(*_set_spec(a)), base.as_fraction())]
        assert got == want


def test_level_sets_match_reference_on_arbitrary_spectra():
    # Many distinct magnitudes, several sharing a band, bands skipped, and
    # random excluded sets, some holding the entries above the base.
    rng = np.random.default_rng(45)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        nums = rng.integers(-(1 << 20), 1 << 20, size=1 << n)
        nums[rng.random(1 << n) < 0.3] = 0
        spec = _spec(nums, int(rng.integers(0, 30)))
        excluded = rng.permutation(1 << n)[:int(rng.integers(0, 1 << n))]
        kept = np.delete(np.abs(spec[0]), excluded)
        top = int(kept.max()) if kept.size else 0
        base = DyadicScalar(top or 1, spec[1])
        _check_against_reference(spec, excluded,
                                 base.mul_pow2(int(rng.integers(0, 3))))
        _check_against_reference(spec, NONE,
                                 DyadicScalar(int(np.abs(spec[0]).max())
                                              or 1, spec[1]))


def test_level_sets_object_dtype_above_int64():
    # Magnitudes at the top of the ranking's int32, 2^31 - 1, and cuts past
    # it, which count_above clamps, band exactly.
    top = (1 << 31) - 1
    fv = _spec([0, top, -top, 3 * (top >> 2), top >> 5, 7, -(top >> 1),
                top - 1], 4)
    _check_against_reference(fv, NONE, DyadicScalar(top, 4))
    _check_against_reference(fv, NONE, DyadicScalar(top, 2))
    with pytest.raises(ArithmeticError):
        _levels(fv, NONE, DyadicScalar(top - 1, 4))
    _check_against_reference(fv, [1, 2], DyadicScalar(top - 1, 4))
    _check_against_reference(fv, [1, 7, 5], DyadicScalar(top, 4))
    ranking = reference_ranking(*fv)
    assert ranking.count_above([1 << 40, top - 1]).tolist() == [0, 2]


def test_level_sets_mass_at_int64_bound():
    # One band of 7 members at the int32 top: the mass, 7 (2^31 - 1), is
    # past int32 and exact in the int64 prefix sums; taking out members
    # takes their mass out of the prefix difference.
    top = (1 << 31) - 1
    spec = _spec([0] + [top] * 3 + [-top] * 4, 0)
    ranking = reference_ranking(*spec)
    assert ranking.prefix.dtype == np.int64
    levels = level_sets(ranking, NONE, DyadicScalar(top))
    assert [sorted(lv.members.tolist()) for lv in levels] == [
        list(range(1, 8))]
    assert levels[0].mass == DyadicScalar(7 * top)
    _check_against_reference(spec, NONE, DyadicScalar(top))
    levels = level_sets(ranking, np.array([2, 6]), DyadicScalar(top))
    assert levels[0].mass == DyadicScalar(5 * top)
    _check_against_reference(spec, [2, 6], DyadicScalar(top))


def test_level_sets_empty_bands_and_wide_bases():
    # Bands 0, 1, 8 and 9 are full and 2..7 empty between them; one entry
    # sits on each of the edges top / 2 and top / 2^9.  Doubling the base
    # 2^k times moves every band down k places, and at k >= 12 the first
    # cuts, top 2^(k - j) for small j, pass int32 and are clamped.
    top = 1 << 20
    fv = _spec([0, top, -(top >> 1), (top >> 1) + 1, top >> 9, 3 << 10,
                (top >> 10) + 1, -top], 4)
    levels = _levels(fv, NONE, DyadicScalar(top, 4))
    assert [(lv.s, sorted(lv.members.tolist())) for lv in levels] == [
        (0, [1, 3, 7]), (1, [2]), (8, [5]), (9, [4, 6])]
    for k in (0, 3, 12, 20):
        _check_against_reference(fv, NONE, DyadicScalar(top << k, 4))
        # V's entries on either side of an edge, in three bands.
        _check_against_reference(fv, [2, 3, 4], DyadicScalar(top << k, 4))
        _check_against_reference(fv, [1, 6, 7], DyadicScalar(top << k, 4))
    assert [lv.s for lv in _levels(fv, [4, 6], DyadicScalar(top << 12, 4))
            ] == [12, 13, 20]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_level_sets_on_band_edges(data):
    # Magnitudes on, just above and just below the edges floor(top / 2^j),
    # which leaves bands empty between full ones; bases up to 2^24 times
    # the top, whose first cuts pass int32; and excluded sets that take
    # entries on either side of an edge.
    n = data.draw(st.integers(1, 6))
    top = data.draw(st.integers(1, (1 << 31) - 1))
    cut = st.builds(lambda j, d: max(0, min(top, (top >> j) + d)),
                    st.integers(0, top.bit_length()), st.integers(-1, 1))
    nums = [c * data.draw(st.sampled_from([1, -1]))
            for c in data.draw(st.lists(cut, min_size=1 << n,
                                        max_size=1 << n))]
    excluded = data.draw(st.lists(st.integers(0, (1 << n) - 1),
                                  unique=True))
    exp = data.draw(st.integers(0, 40))
    base = DyadicScalar(top, exp).mul_pow2(data.draw(st.integers(0, 24)))
    _check_against_reference(_spec(nums, exp), excluded, base)


def test_gain_floor_predicate_is_exact():
    # At floor(4^s 2^e / (6 3^s)) and one above it, over every level index
    # and exponent a certificate may hold, the integer predicate is the
    # Fraction comparison it replaces.
    for s in range(62):
        for e in range(HARD_EXP_CAP + 1):
            edge = (4 ** s << e) // (6 * 3 ** s)
            for num in (edge, edge + 1):
                mass = DyadicScalar(num, e)
                assert meets_gain_floor(mass, s) == (
                    mass.as_fraction() >= gain_floor(s)), (s, e, num)
            assert meets_gain_floor(DyadicScalar(edge + 1, e), s)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(s=st.integers(0, 61), e=st.integers(0, HARD_EXP_CAP),
       num=st.integers(-(1 << 200), 1 << 200))
def test_gain_floor_predicate_on_any_mass(s, e, num):
    mass = DyadicScalar(num, e)
    assert meets_gain_floor(mass, s) == (mass.as_fraction() >= gain_floor(s))


def test_level_mass_averaging_identity():
    # sum_s 2^-s L_s >= 1/2 whenever the residual is nonzero
    rng = np.random.default_rng(40)
    done = 0
    while done < 60:
        n = int(rng.integers(2, 9))
        a = random_point_set(rng, n)
        v = random_subspace(rng, n, max_dim=n - 1)
        base = residual_l1(a, v)
        if base.num == 0:
            continue
        done += 1
        levels = level_sets(rank_spectrum(a), subspace_elements(v), base)
        total = sum((lv.mass.as_fraction() / (1 << lv.s) for lv in levels),
                    Fraction(0))
        assert total >= Fraction(1, 2)
        assert any(_qualifies(lv) for lv in levels)


def test_level_qualifies_boundaries():
    def lv(s, num, exp):
        return LevelSet(s, (1,), DyadicScalar(num, exp))

    assert _qualifies(lv(0, 3, 4))        # 3/16 >= 1/6
    assert not _qualifies(lv(0, 1, 3))    # 1/8 < 1/6
    assert _qualifies(lv(1, 1, 2))        # 1/4 >= 2/9
    assert not _qualifies(lv(1, 7, 5))    # 7/32 < 2/9
    assert _qualifies(lv(2, 5, 4))        # 5/16 >= 8/27
    assert not _qualifies(lv(2, 9, 5))    # 9/32 < 8/27


def test_select_level_strategies():
    l0 = LevelSet(0, (1,), DyadicScalar(3, 4))
    l1 = LevelSet(1, (2,), DyadicScalar(7, 3))
    assert select_level([l1, l0]).s == 0
    assert select_level([l0, l1], "best-ratio").s == 1  # 7/32 > 3/16
    # equal ratios keep the earlier (smaller-s) band; inputs arrive sorted
    t0 = LevelSet(0, (1,), DyadicScalar(1, 2))
    t1 = LevelSet(1, (2,), DyadicScalar(1))
    assert select_level([t0, t1], "best-ratio").s == 0
    with pytest.raises(ValueError):
        select_level([l0], "greedy")
    with pytest.raises(NoQualifyingLevel):
        select_level([LevelSet(0, (1,), DyadicScalar(1, 3)),
                      LevelSet(3, (2,), DyadicScalar(1, 3))])


def test_chang_span_zero_function():
    zero = _spec([0] * 8, 0)
    assert _dim(zero, DyadicScalar(1, 2)) == 0


def test_chang_span_coset():
    v = span_of([0b001, 0b010])
    a = PointSet.from_points(3, annihilator_points(v.basis, 3))
    assert _dim(_set_spec(a), DyadicScalar(1, 2)) == 2
    # eps = (1/4) / ||chi_A||_1 = 1
    bound = _cap((a.bool_mask().astype(np.int64), 0), Fraction(1))
    assert bound == pytest.approx(math.e * 2 * math.log(2), rel=1e-12)
    assert bound >= 2


def test_chang_span_balanced_halfspace():
    fv = residual(_halfspace(1), DualSubspace.trivial())
    spec = table_fwht(*fv)
    assert _dim(spec, DyadicScalar(1, 1)) == 1
    # eps = (1/2) / ||f_V||_1 = 1
    assert _cap(fv, Fraction(1)) == pytest.approx(math.e, rel=1e-12)
    # a threshold above the l1 norm clears nothing
    assert _dim(spec, DyadicScalar(3, 2)) == 0
    with pytest.raises(ValueError):
        _dim(spec, DyadicScalar(0))


def test_chang_span_contains_large_spectrum():
    # The dimension is that of the span of the large characters, found by
    # one scan, and within Chang's cap.
    rng = np.random.default_rng(41)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        a = random_point_set(rng, n)
        if a.size == 0:
            continue
        spec = _set_spec(a)
        j = int(rng.integers(0, 5))
        f = (a.bool_mask().astype(np.int64), 0)
        thr = table_l1(*f).mul_pow2(-j)
        if thr.num == 0:
            continue
        dim = _dim(spec, thr)
        assert dim == span_of([g for g in range(1 << n) if DyadicScalar(
            abs(int(spec[0][g])), n) >= thr]).dim
        assert dim <= _cap(f, Fraction(1, 2 ** j))


def _check_chang_span(spec, thr, with_cap=True):
    basis, cap = brute_chang_span(table_fractions(*spec), thr.as_fraction(),
                                  spec[0].size.bit_length() - 1)
    assert _dim(spec, thr) == len(basis)
    # The reference's cap is 0 when f is zero or eps > 1, which the cap
    # refuses; otherwise it is the cap at eps = threshold / ||f||_1.
    if cap and with_cap:
        f = reference_inverse_fwht(*spec)
        eps = thr.as_fraction() / table_l1(*f).as_fraction()
        assert _cap(f, eps) == pytest.approx(cap, rel=1e-12)


def test_chang_span_matches_reference():
    rng = np.random.default_rng(47)
    top = (1 << 63) - 1
    stacks = {}
    for _ in range(80):
        n = int(rng.integers(1, 7))
        spec = _spec(rng.integers(-40, 41, size=1 << n),
                     int(rng.integers(0, 6)))
        if not spec[0].any():
            continue
        # Thresholds with exp above, at and below the spectrum's.
        for exp in (spec[1] + 3, spec[1], max(spec[1] - 2, 0)):
            thr = DyadicScalar(int(rng.integers(1, 50)), exp)
            _check_chang_span(spec, thr)
            stacks.setdefault(n, []).append((spec, thr))
    # The same spectra stacked by n: each row is counted on its own.
    for n, rows in stacks.items():
        got = span_dims(np.stack([s[0] for s, _ in rows]),
                        [s[1] for s, _ in rows], [t.num for _, t in rows],
                        [t.exp for _, t in rows])
        assert got.dtype == np.int64 and got.shape == (len(rows),)
        assert got.tolist() == [_dim(spec, thr) for spec, thr in rows]
    # Spectra near 2^63, thresholds on both sides of the entries and cuts
    # beyond int64; their norms pass int64, so the cap is not compared.
    big = _spec([(1 << 62) + 1, -(1 << 56), 3, 0, 1 << 57, -5,
                 -(1 << 62) - 1, 7], 4)
    for thr in (DyadicScalar(1, 1), DyadicScalar(1 << 52), DyadicScalar(1 << 58),
                DyadicScalar((1 << 62) + 1, 4), DyadicScalar((1 << 62) + 3, 4)):
        _check_chang_span(big, thr, with_cap=False)
    edge = _spec([1, -top, top - 2, -1], 2)
    for thr in (DyadicScalar(1 << 61), DyadicScalar(top, 2), DyadicScalar(1, 2),
                DyadicScalar(1 << 62, 1), DyadicScalar(1 << 63, 2),
                DyadicScalar(1 << 64)):
        _check_chang_span(edge, thr, with_cap=False)
    assert _dim(edge, DyadicScalar(top, 2)) == 1


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_span_dims_match_subspace_extend(data):
    # A stack of rows at one n, each with its own threshold and large set:
    # empty, {0}, every character or random masks.  Entries of the large
    # set sit at or above the row's cut, every other entry below it.
    n = data.draw(st.integers(1, 10))
    order = 1 << n
    sets = data.draw(st.lists(st.one_of(
        st.just([]), st.just([0]), st.just(list(range(order))),
        st.lists(st.integers(0, order - 1), max_size=12)),
        min_size=1, max_size=6))
    thrs = [data.draw(st.tuples(st.integers(1, 40), st.integers(0, 4),
                                st.integers(0, 4))) for _ in sets]
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    nums = np.zeros((len(sets), order), dtype=np.int64)
    for row, chars, (tn, e, te) in zip(nums, sets, thrs):
        cut = -((-tn << e) >> te)
        row[:] = rng.integers(0, cut, size=order)
        row[chars] = cut + rng.integers(0, 9, size=len(chars))
        row *= rng.choice([-1, 1], size=order)
    got = span_dims(nums, [e for _, e, _ in thrs], [tn for tn, _, _ in thrs],
                    [te for _, _, te in thrs])
    assert got.tolist() == [
        subspace_extend(DualSubspace.trivial(), chars).dim for chars in sets]


def test_chang_cardinality_bound_constant():
    ones = _spec([1] * 8, 0)
    # ||f||_2^2 = ||f||_1^2, so the cap is e * 4^j at eps = 2^-j.
    for j in range(3):
        assert _cap(ones, Fraction(1, 2 ** j)) == pytest.approx(
            4 ** j * math.e)
    with pytest.raises(ValueError):
        _cap(ones, Fraction(0))
    with pytest.raises(ValueError):
        _cap(ones, Fraction(3, 2))
    with pytest.raises(ZeroMass):
        _cap(_spec([0] * 8, 0), Fraction(1, 2))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 2 ** 80), st.integers(0, 300),
       st.integers(1, 2 ** 160), st.integers(0, 600),
       st.fractions(0, 1).filter(lambda q: q > 0))
def test_chang_cap_matches_fraction_formula(a, e, b, f, eps):
    # The ratio in Python ints gives the float the Fraction route gives,
    # bit for bit, also where the ratio is far below 1 or past 2^1024.
    l1, l2sq = DyadicScalar(a, e), DyadicScalar(b, f)
    assert chang_cardinality_bound(l1, l2sq, eps) == (
        _reference.fraction_chang_cap(l1, l2sq, eps))


def test_chang_cap_matches_fraction_formula_at_extremes():
    rng = np.random.default_rng(41)
    nums = [1, 3, (1 << 63) - 1, 1 << 63, (1 << 2000) + 1, 3 ** 1500]
    exps = [0, 1, 63, 64, 2000, 5000]
    epss = [Fraction(1), Fraction(1, 2 ** 40), Fraction(3, 7),
            Fraction(1, 10 ** 30)]
    for a, e, b, f in itertools.product(nums, exps, nums, exps):
        l1, l2sq = DyadicScalar(a, e), DyadicScalar(b, f)
        eps = epss[rng.integers(len(epss))]
        assert chang_cardinality_bound(l1, l2sq, eps) == (
            _reference.fraction_chang_cap(l1, l2sq, eps))
    # A negative l1 squares away; a negative l2sq has no log on either.
    l1, l2sq, half = DyadicScalar(-5, 3), DyadicScalar(7, 2), Fraction(1, 2)
    assert chang_cardinality_bound(l1, l2sq, half) == (
        _reference.fraction_chang_cap(l1, l2sq, half))
    for cap in (chang_cardinality_bound, _reference.fraction_chang_cap):
        with pytest.raises(ValueError):
            cap(DyadicScalar(5, 3), DyadicScalar(-7, 2), half)


def _riesz(n, lams, eta):
    """One Riesz product, as a table (nums, exp)."""
    p = riesz_product(n, [lams], [eta])
    return p.nums[0], int(p.exps[0])


def _beckner(f, lams, eta):
    """beckner_verify on the one-row stack of f = (nums, exp) and p_eta."""
    nums, exp = f
    lhs, rhs = beckner_verify(nums[None], [exp], riesz_product(
        nums.size.bit_length() - 1, [lams], [eta]))
    return lhs[0], rhs[0]


def test_riesz_product_frozen():
    nums, exp = _riesz(2, [1], DyadicScalar(0))
    assert list(nums) == [1, 1, 1, 1] and exp == 0
    p = _riesz(1, [1], DyadicScalar(1))
    assert table_fractions(*p) == [Fraction(2), Fraction(0)]
    assert table_fractions(*table_fwht(*p)) == [Fraction(1), Fraction(1)]


def test_riesz_product_properties():
    rng = np.random.default_rng(42)
    etas = [DyadicScalar(1, 2), DyadicScalar(1, 1), DyadicScalar(3, 2),
            DyadicScalar(1), DyadicScalar(0)]
    for _ in range(40):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(n, 4) + 1))
        lams = random_independent_chars(rng, n, k)
        eta = etas[int(rng.integers(0, len(etas)))]
        p = _riesz(n, lams, eta)
        assert all(int(v) >= 0 for v in p[0])
        assert table_l1(*p) == DyadicScalar(1)
        spec = table_fractions(*table_fwht(*p))
        expected = {0: Fraction(1)}
        for mask in range(1, 1 << k):
            g = 0
            for i in range(k):
                if (mask >> i) & 1:
                    g ^= lams[i]
            expected[g] = eta.as_fraction() ** mask.bit_count()
        for g in range(1 << n):
            assert spec[g] == expected.get(g, Fraction(0))


def test_riesz_product_rows_match_reference():
    # A stack mixing n = 4 rows of 0 to 4 characters (zeros pad them, in
    # any place) and every suite eta, row by row against the fold of
    # factors in tests/_reference.py.
    rng = np.random.default_rng(47)
    etas = [DyadicScalar(k, 2) for k in range(1, 5)] + [DyadicScalar(-3, 3)]
    rows, lams_rows, eta_rows = [], [], []
    for t in range(40):
        lams = random_independent_chars(rng, 4, t % 5)
        padded = lams + [0] * (4 - len(lams))
        rng.shuffle(padded)
        lams_rows.append(lams)
        rows.append(padded)
        eta_rows.append(etas[t % len(etas)])
    p = riesz_product(4, rows, eta_rows)
    for t, (lams, eta) in enumerate(zip(lams_rows, eta_rows)):
        want = table_fractions(*_reference.riesz_product(4, lams, eta))
        assert table_fractions(p.nums[t], int(p.exps[t])) == want, t
        assert want == brute_riesz_product(
            lams, eta.as_fraction(), 4)


@pytest.mark.parametrize("eta", [DyadicScalar(1, 21), DyadicScalar(3, 63),
                                 DyadicScalar(1, 70), DyadicScalar(-5, 200)],
                         ids=str)
def test_riesz_product_refuses_numerators_past_int64(eta):
    # A product of three factor numerators 2^exp +- num passes 2^63 - 1
    # for each of these etas, so the product is refused before it is built;
    # a row of no characters takes no factor and is built.
    with pytest.raises(OverflowError):
        riesz_product(3, [[1, 2, 4]], [eta])
    with pytest.raises(OverflowError):
        riesz_product(3, [[0, 0, 0], [1, 2, 4]], [DyadicScalar(1, 1), eta])
    p = riesz_product(3, [[0, 0, 0]], [eta])
    assert p.nums.tolist() == [[1] * 8] and p.exps.tolist() == [0]


def test_riesz_product_exact_up_to_int64():
    # (2^20 + 1)^3 and (2^31 - 3)^2 stay within int64.
    for eta, lams in ((DyadicScalar(1, 20), [1, 2, 4]),
                      (DyadicScalar(-3, 31), [1, 2])):
        p = _riesz(3, lams, eta)
        assert all(int(v) >= 0 for v in p[0])
        assert table_fractions(*p) == brute_riesz_product(
            lams, eta.as_fraction(), 3)
        assert sum(table_fractions(*p)) == 8


def test_riesz_product_errors():
    for lams in ([1, 2, 3], [1, 1], [3, 5, 3], [5, 3, 6], [1, 2, 4, 7]):
        with pytest.raises(DependentSet):
            _riesz(3, lams, DyadicScalar(1, 1))
    # One dependent row refuses the whole stack.
    with pytest.raises(DependentSet):
        riesz_product(3, [[1, 2, 0], [1, 1, 0]], [DyadicScalar(1, 1)] * 2)
    with pytest.raises(ValueError):
        _riesz(2, [-1], DyadicScalar(1, 1))
    with pytest.raises(ValueError):
        _riesz(2, [4], DyadicScalar(1, 1))
    with pytest.raises(ValueError):
        _riesz(2, [1], DyadicScalar(2))
    with pytest.raises(ValueError):
        riesz_product(2, [[1]], [DyadicScalar(1, 1)] * 2)
    # Zero pads a row: [0] is the product of no factors.
    assert table_fractions(*_riesz(2, [0], DyadicScalar(1, 1))) == (
        table_fractions(*_riesz(2, [], ONE)))


def test_beckner_examples():
    # eta = 0 smooths f to its mean: lhs = |mean(f)| <= ||f||_1
    f = _spec([3, -1, 2, 0], 1)
    lhs, rhs = _beckner(f, [1], DyadicScalar(0))
    assert lhs == pytest.approx(abs(3 - 1 + 2 + 0) / 8)
    assert lhs <= rhs * (1 + 1e-9)


def test_beckner_random():
    rng = np.random.default_rng(43)
    for _ in range(60):
        n = int(rng.integers(2, 8))
        f = random_table(rng, n)
        k = int(rng.integers(1, min(n, 4) + 1))
        lams = random_independent_chars(rng, n, k)
        eta = DyadicScalar(int(rng.choice([1, 2, 3, 4])), 2)
        lhs, rhs = _beckner(f, lams, eta)
        assert lhs <= rhs * (1 + 1e-9)


def test_beckner_square_sum_fits_int64_at_the_suite_edge():
    # The beckner suite's largest case: n = 10, k = 4 characters, eta with
    # exponent 2, and an odd near-constant table, whose transform keeps
    # its full peak of about 7 * 2^10.  The square sum stays in int64 only
    # because the Riesz product's transform sheds a factor 2^n.
    nums = np.full(1 << 10, 7, dtype=np.int64)
    nums[::97] = 5
    f = (nums, 3)
    lams = [1, 2, 4, 8]
    for eta in (0.75, -0.75, 1.0):
        got = _beckner(f, lams, dyadic_from_fraction(Fraction(eta)))
        want = reference_beckner(f, lams, eta)
        assert [x.hex() for x in got] == [x.hex() for x in want], eta
        assert got[0] <= got[1] * (1 + 1e-9)


def test_riesz_product_dependent_sets():
    # A seeded independent set with one subset sum, or one of its own
    # characters, inserted anywhere is dependent; the set itself is not.
    rng = np.random.default_rng(48)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        lams = random_independent_chars(rng, n, int(rng.integers(1, n + 1)))
        p = riesz_product(n, [lams], [DyadicScalar(1, 1)])
        assert p.lambdas.tolist() == [lams]
        pick = rng.integers(0, 2, size=len(lams))
        pick[int(rng.integers(0, len(lams)))] = 1
        extra = 0
        for lam, keep in zip(lams, pick.tolist()):
            extra ^= lam * keep
        at = int(rng.integers(0, len(lams) + 1))
        with pytest.raises(DependentSet):
            _riesz(n, lams[:at] + [extra] + lams[at:], DyadicScalar(1, 1))


def test_beckner_matches_reference():
    # One Riesz product per check gives the old (lhs, rhs) bit for bit, on
    # the suite's etas and on eighths, in stacks of rows that share n; k = 0
    # rows included.  An eta of 53 bits, such as 0.3, makes the Riesz
    # product's transform pass 2^53 and is refused.
    rng = np.random.default_rng(49)
    for n in range(2, 11):
        tables, lams_rows, etas = [], [], []
        for _ in range(12):
            f = random_table(rng, n)
            lams = random_independent_chars(
                rng, n, int(rng.integers(0, min(n, 4) + 1)))
            eta = float(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0, 0.375,
                                    -0.625]))
            tables.append(f)
            lams_rows.append(lams + [0] * (4 - len(lams)))
            etas.append(eta)
            if lams:
                with pytest.raises(OverflowError):
                    _beckner(f, lams, dyadic_from_fraction(Fraction(0.3)))
        got = beckner_verify(
            np.stack([f[0] for f in tables]), [f[1] for f in tables],
            riesz_product(n, lams_rows, [dyadic_from_fraction(Fraction(e))
                                         for e in etas]))
        for t, (f, lams, eta) in enumerate(zip(tables, lams_rows, etas)):
            want = reference_beckner(f, [g for g in lams if g], eta)
            assert [got[0][t].hex(), got[1][t].hex()] == [
                x.hex() for x in want], (n, eta)
    with pytest.raises(ValueError):
        beckner_verify(random_table(rng, 3)[0][None], [0],
                       riesz_product(4, [[1]], [DyadicScalar(1, 1)]))
