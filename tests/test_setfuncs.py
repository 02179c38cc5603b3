import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from f2wiener import setfuncs
from f2wiener.dyadic import DyadicScalar
from f2wiener.groups import DualSubspace, GroupDim, all_subspaces
from f2wiener.setfuncs import (PointSet, frac_quadratic_gap,
                               physical_lower_bound, residual_l1,
                               residual_norms, set_a_norm)

import _reference
from _reference import (brute_coset_average, brute_frac_quadratic_gap,
                        brute_indicator_bits, brute_set_a_norm,
                        coset_index_table, full_set, profile_report,
                        random_invertible, random_point_set, random_subspace,
                        reference_residual, set_complement, set_map_linear,
                        set_points, set_translate, span_of, stack_rows,
                        stacked_l1_and_floor, subspace_elements,
                        table_fractions, table_fwht)
from _reference import frac_quadratic_gap as gap


def _residual(a, v):
    """The residual of one set, as the reference table (nums, exp)."""
    return reference_residual(a, v)


def _l1(a, v):
    return stacked_l1_and_floor(a, v)[0]


def _floor(alpha, order):
    """physical_lower_bound at density alpha = size / 2^n and |V| = order."""
    d = order.bit_length() - 1
    n = max(alpha.exp, d, 1)
    floor, exp = physical_lower_bound([alpha.num << (n - alpha.exp)], n, [d])
    return DyadicScalar(int(floor[0]), int(exp[0]))


def test_point_set_basics():
    a = PointSet.from_points(3, [0, 5, 5, 7])
    assert a.size == 3
    assert set_points(a) == [0, 5, 7]
    ind = a.bool_mask().astype(np.int64)
    assert ind.tolist() == [1, 0, 0, 0, 0, 1, 0, 1]
    assert a.bool_mask().dtype == bool
    assert a.density() == DyadicScalar(3, 3)
    assert PointSet.from_indicator(GroupDim(3), ind) == a
    with pytest.raises(ValueError):
        PointSet.from_points(2, [4])


def test_point_set_hex():
    assert PointSet.from_points(2, [0, 1, 2]).set_hex() == "7"
    assert PointSet.from_points(1, [1]).set_hex() == "2"
    assert PointSet.from_points(4, [0]).set_hex() == "0001"
    full = full_set(3)
    assert full.set_hex() == "ff"
    assert full.size == 8


def test_point_set_maps():
    a = PointSet.from_points(2, [0b00, 0b01, 0b10])
    assert set_points(set_complement(a)) == [0b11]
    assert set_points(set_translate(a, 0b11)) == [0b01, 0b10, 0b11]
    # x -> Mx with rows (01, 11): 00->00, 01->11 (bit0 -> 1, bit1 -> 1), ...
    mapped = set_map_linear(a, [0b01, 0b11])
    assert mapped.size == a.size
    assert set_a_norm(mapped) == set_a_norm(a)


def test_affine_invariance_of_norm():
    rng = np.random.default_rng(20)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        a = random_point_set(rng, n)
        rows = random_invertible(rng, n)
        off = int(rng.integers(0, 1 << n))
        b = set_translate(set_map_linear(a, rows), off)
        assert b.size == a.size
        assert set_a_norm(b) == set_a_norm(a)


def test_set_norm_matches_brute():
    rng = np.random.default_rng(21)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        a = random_point_set(rng, n)
        assert set_a_norm(a).as_fraction() == brute_set_a_norm(
            set_points(a), n)


def _coset_average(a, v):
    # chi_A - f_V is the average of chi_A over each annihilator coset.
    fv = table_fractions(*_residual(a, v))
    return [int(c) - r for c, r in zip(a.bool_mask(), fv)]


def test_coset_average_frozen():
    # n=2, V = span{01}, A = {00}: averages 1/2 on the fiber {00, 01}.
    a = PointSet.from_points(2, [0])
    v = span_of([0b01])
    avg = _coset_average(a, v)
    assert avg == [Fraction(1, 2), Fraction(0), Fraction(1, 2), Fraction(0)]


def test_coset_average_random():
    rng = np.random.default_rng(22)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        a = random_point_set(rng, n)
        v = random_subspace(rng, n)
        avg = _coset_average(a, v)
        assert avg == brute_coset_average(set_points(a), v.basis, n)
        # averaging preserves total mass
        assert sum(avg, Fraction(0)) == a.size


def test_residual_properties():
    rng = np.random.default_rng(23)
    trials = 0
    while trials < 50:
        n = int(rng.integers(1, 8))
        a = random_point_set(rng, n)
        if a.size == 0:
            continue
        trials += 1
        v = random_subspace(rng, n)
        r = _residual(a, v)
        fr = table_fractions(*r)
        # zero mean on every coset of the annihilator, values in [-1, 1]
        assert sum(fr, Fraction(0)) == 0
        assert all(-1 <= x <= 1 for x in fr)
        spec, _ = table_fwht(*r)
        for g in subspace_elements(v).tolist():
            assert spec[g] == 0


def test_residual_l1_identity():
    rng = np.random.default_rng(24)
    for _ in range(80):
        n = int(rng.integers(1, 9))
        a = random_point_set(rng, n)
        if a.size == 0:
            continue
        v = random_subspace(rng, n)
        l1 = _l1(a, v)  # coset counts against the table's values
        assert l1 >= DyadicScalar(0)
        assert l1.as_fraction() == sum(
            (abs(x) for x in table_fractions(*_residual(a, v))),
            Fraction(0)) / (1 << n)


def test_residual_l1_balanced_case():
    # against the trivial subspace the identity reads ||chi - a||_1 = 2a(1-a)
    rng = np.random.default_rng(25)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        a = random_point_set(rng, n)
        if a.size == 0:
            continue
        alpha = a.density().as_fraction()
        l1 = _l1(a, DualSubspace.trivial())
        assert l1.as_fraction() == 2 * alpha * (1 - alpha)


def test_frac_product_frozen():
    # t = {alpha 2^d} and t(1 - t) for alpha = 5/16: the profile's rows.
    rows, _, _ = profile_report(DyadicScalar(5, 4), 4)
    pairs = [(frac, product) for frac, product, _ in rows]
    assert pairs[0] == (DyadicScalar(5, 4), DyadicScalar(55, 8))
    assert pairs[1] == (DyadicScalar(5, 3), DyadicScalar(15, 6))
    assert pairs[3] == (DyadicScalar(1, 1), DyadicScalar(1, 2))
    assert pairs[4] == (DyadicScalar(0), DyadicScalar(0))


def test_physical_lower_bound_frozen():
    assert _floor(DyadicScalar(5, 4), 4) == DyadicScalar(3, 5)
    assert _floor(DyadicScalar(1, 1), 2) == DyadicScalar(0)
    assert _floor(DyadicScalar(1, 1), 1) == DyadicScalar(1, 1)
    assert _floor(DyadicScalar(0), 8) == DyadicScalar(0)
    # One stack: |A| = 5 of 16 against |V| = 1, 2, 4, 8, 16, as canonical
    # (num, exp) pairs.
    nums, exps = physical_lower_bound([5] * 5, 4, range(5))
    assert list(zip(nums.tolist(), exps.tolist())) == [
        (55, 7), (15, 6), (3, 5), (1, 4), (0, 0)]
    for sizes, n, dims in (([17], 4, [0]), ([-1], 4, [0]), ([1], 4, [5]),
                           ([1], 4, [-1])):
        with pytest.raises(ValueError):
            physical_lower_bound(sizes, n, dims)


def test_physical_lower_bound_inequality():
    # 2/|V| * {a|V|} (1 - {a|V|}) never exceeds the true residual l1
    rng = np.random.default_rng(26)
    for _ in range(60):
        n = int(rng.integers(1, 8))
        a = random_point_set(rng, n)
        if a.size == 0:
            continue
        v = random_subspace(rng, n)
        bound = _floor(a.density(), v.order)
        assert bound == _reference.physical_lower_bound(a.density(), v.order)
        assert bound <= _l1(a, v)


def test_frac_quadratic_gap_frozen():
    lhs, rhs = gap([Fraction(1, 2), Fraction(9, 10)])
    assert lhs == Fraction(17, 50)
    assert rhs == Fraction(6, 25)
    assert lhs >= rhs
    # equality when every delta is 0 or 1
    lhs, rhs = gap([Fraction(1), Fraction(0), Fraction(1)])
    assert lhs == rhs == 0
    # singleton: both sides are d - d^2
    lhs, rhs = gap([Fraction(3, 7)])
    assert lhs == rhs == Fraction(3, 7) - Fraction(9, 49)
    with pytest.raises(ValueError):
        gap([Fraction(3, 2)])
    assert gap([]) == (0, 0)
    # rows take deltas unreduced, and the columns after m only pad
    lhs, rhs, squares = frac_quadratic_gap(
        np.array([[2, 9, 5], [1, 0, -3]]), np.array([[4, 10, 0], [2, 7, -1]]),
        np.array([2, 1]))
    assert [Fraction(x, sq) for x, sq in zip(lhs, squares)] == [
        Fraction(17, 50), Fraction(1, 4)]
    assert [Fraction(x, sq) for x, sq in zip(rhs, squares)] == [
        Fraction(6, 25), Fraction(1, 4)]


def test_frac_quadratic_gap_random():
    rng = np.random.default_rng(27)
    for _ in range(200):
        m = int(rng.integers(1, 9))
        deltas = [Fraction(int(rng.integers(0, 65)), 64) for _ in range(m)]
        lhs, rhs = gap(deltas)
        total = sum(deltas, Fraction(0))
        gamma = total - (total.numerator // total.denominator)
        assert rhs == gamma * (1 - gamma)
        assert lhs >= rhs


def test_from_indicator_matches_reference():
    rng = np.random.default_rng(31)
    for n in range(13):
        dim = GroupDim(max(n, 1))
        for density in (0.0, 0.3, 1.0):
            mask = rng.random(1 << n) < density
            ints = np.where(mask, rng.integers(-3, 4, size=1 << n), 0)
            for arr in (mask, mask.tolist(), ints.astype(np.int64),
                        ints.tolist()):
                want = brute_indicator_bits(arr)
                assert PointSet.from_indicator(dim, arr).bits == want
    assert PointSet.from_indicator(GroupDim(2), []).bits == 0
    with pytest.raises(ValueError):
        PointSet.from_indicator(GroupDim(2), [0, 0, 0, 0, 1])


@st.composite
def _dim_and_points(draw):
    n = draw(st.integers(1, 10))
    return n, draw(st.lists(st.integers(0, (1 << n) - 1), max_size=64))


@given(_dim_and_points())
def test_points_bitmap_round_trip(case):
    n, pts = case
    a = PointSet.from_points(n, pts)
    members = set(pts)
    assert set_points(a) == sorted(members)
    assert a.bits == brute_indicator_bits(
        [x in members for x in range(1 << n)])
    assert PointSet.from_points(n, set_points(a)) == a


def test_points_bitmap_every_small_set():
    # At n = 1..3 the whole bitmap fits in one byte, padded for n < 3.
    for n in range(1, 4):
        for bits in range(1 << (1 << n)):
            a = PointSet(n, bits)
            pts = set_points(a)
            assert pts == [x for x in range(1 << n) if (bits >> x) & 1]
            assert PointSet.from_points(n, pts).bits == bits
    with pytest.raises(ValueError, match="point -1 outside"):
        PointSet.from_points(2, [1, -1, 7])
    with pytest.raises(ValueError, match="point 7 outside"):
        PointSet.from_points(2, [1, 7, -1])
    with pytest.raises(ValueError, match="outside"):
        PointSet.from_points(2, [1 << 70])
    assert PointSet.from_points(2, []).bits == 0


def test_frac_quadratic_gap_matches_reference():
    rng = np.random.default_rng(37)
    for _ in range(300):
        m = int(rng.integers(0, 9))
        deltas = []
        for _ in range(m):
            den = int(rng.integers(1, 10 ** 6 + 1))
            deltas.append(Fraction(int(rng.integers(0, den + 1)), den))
        assert gap(deltas) == brute_frac_quadratic_gap(deltas)
    for deltas in ([0, 1, 1], [1], [0], [], [Fraction(1, 3), 1, 0]):
        got = gap(deltas)
        assert got == brute_frac_quadratic_gap(deltas)
        assert all(type(x) is Fraction for x in got)
    for bad in ([Fraction(1, 2), Fraction(-1, 10**6)], [2], [Fraction(3, 2)]):
        with pytest.raises(ValueError, match="outside"):
            gap(bad)
        with pytest.raises(ValueError, match="outside"):
            brute_frac_quadratic_gap(bad)


def test_frac_quadratic_gap_rows_match_reference():
    # Stacks of rows with 0 to 8 deltas, unreduced and padded with junk
    # after m, then a row whose L^2 passes 2^63: every row against the
    # Fraction brute force.
    rng = np.random.default_rng(41)
    for width in (0, 1, 8):
        dens = rng.integers(1, 65, size=(300, width))
        nums = rng.integers(0, 65, size=(300, width)) % (dens + 1)
        m = rng.integers(0, width + 1, size=300)
        pad = np.arange(width) >= m[:, None]
        nums[pad] = -7
        dens[pad] = 0
        lhs, rhs, squares = frac_quadratic_gap(nums, dens, m)
        for t in range(300):
            k = m[t]
            deltas = [Fraction(a, d) for a, d in
                      zip(nums[t, :k].tolist(), dens[t, :k].tolist())]
            assert (Fraction(lhs[t], squares[t]),
                    Fraction(rhs[t], squares[t])) == (
                brute_frac_quadratic_gap(deltas))
    big = np.array([[64, 63, 61, 59, 53, 47, 43, 41]])
    lhs, rhs, squares = frac_quadratic_gap(big - 1, big, [8])
    assert squares[0] > 1 << 63
    assert squares[0] == math.prod(big[0].tolist()) ** 2
    assert (Fraction(lhs[0], squares[0]), Fraction(rhs[0], squares[0])) == (
        brute_frac_quadratic_gap([Fraction(d - 1, d)
                                  for d in big[0].tolist()]))
    for nums, dens in (([[1, 3]], [[2, 2]]), ([[1, -1]], [[2, 2]]),
                       ([[0, 0]], [[5, 0]])):
        with pytest.raises(ValueError, match="outside"):
            frac_quadratic_gap(nums, dens, [2])
    # only the columns before m are read
    assert frac_quadratic_gap([[1, 3]], [[2, 2]], [1])[1] == [1]


def _gap_rows_against_reference(nums, dens, m):
    lhs, rhs, squares = frac_quadratic_gap(nums, dens, m)
    for t, k in enumerate(np.asarray(m).tolist()):
        den_row = np.asarray(dens)[t, :k].tolist()
        deltas = [Fraction(a, d) for a, d in
                  zip(np.asarray(nums)[t, :k].tolist(), den_row)]
        assert squares[t] == math.lcm(*den_row) ** 2
        assert (Fraction(lhs[t], squares[t]),
                Fraction(rhs[t], squares[t])) == gap(deltas)


def test_frac_quadratic_gap_int64_boundary():
    # Eight deltas are summed as int64 rows while L < 2^30 and in Python
    # ints from there: L = 64 * 63 * 61 * 59 * 53 < 2^30, but 47 more
    # passes it, and so do the eight dens up to 41 (L^2 > 2^63).  Then L =
    # 2^30 - 1 and 2^30 exactly, and the single-delta edge, where L^2 <
    # 2^63 allows L up to isqrt(2^63 - 1).
    primes = [64, 63, 61, 59, 53, 47, 43, 41]
    dens = np.ones((9, 8), dtype=np.int64)
    for k in range(1, 9):
        dens[k, :k] = primes[:k]
    nums = dens - 1
    nums[:, ::2] //= 3
    m = np.full(9, 8)
    lcds = [math.lcm(*row) for row in dens.tolist()]
    assert lcds[5] < 1 << 30 < lcds[6]
    _gap_rows_against_reference(nums, dens, m)
    for width in (1, 8):
        # (L - 1) / L and width - 1 ones: L sum a is width L^2 - L, the
        # largest an int64 row meets.
        edge = math.isqrt(((1 << 63) - 1) // width)
        for den in (edge, edge + 1, (1 << 30) - 1, 1 << 30):
            dens = np.ones((1, width), dtype=np.int64)
            dens[0, 0] = den
            nums = dens.copy()
            nums[0, 0] -= 1
            _gap_rows_against_reference(nums, dens, [width])
    # Rows as verify draws them, about 2.5% of them past the boundary.
    rng = np.random.default_rng(43)
    dens = rng.integers(1, 65, size=(20_000, 8))
    nums = rng.integers(0, 1 << 20, size=(20_000, 8)) % (dens + 1)
    m = rng.integers(1, 9, size=20_000)
    wide = [math.lcm(*row[:k]) >= 1 << 30
            for row, k in zip(dens.tolist(), m.tolist())]
    assert 0.01 < np.mean(wide) < 0.05
    _gap_rows_against_reference(nums, dens, m)


def test_residual_matches_reference():
    # The norms from coset counts against the reference table: every
    # subspace for n <= 4 with seeded, empty and full sets, then seeded
    # sets and subspaces up to n = 12; each n is one stack, checked row by
    # row.
    rng = np.random.default_rng(29)
    cases = []
    for n in range(1, 5):
        sets = [random_point_set(rng, n) for _ in range(3)]
        sets += [PointSet(GroupDim(n), 0), full_set(n)]
        cases += [(a, v) for v in all_subspaces(n) for a in sets]
    for n in range(5, 13):
        for _ in range(8):
            cases.append((random_point_set(rng, n), random_subspace(rng, n)))
    assert len(cases) == 5 * (2 + 5 + 16 + 67) + 8 * 8
    for n in range(1, 13):
        group = [(a, v) for a, v in cases if a.dim.n == n]
        nums, exps, dims = residual_l1(*stack_rows(*zip(*group)))
        for t, (a, v) in enumerate(group):
            assert dims[t] == v.dim
            l1 = _reference.residual_l1(a, v)
            assert (int(nums[t]), int(exps[t])) == (l1.num, l1.exp), (a, v)


def test_residual_key_types_agree(monkeypatch):
    # Keys below rows 2^(K + 1) fit int32 here; the int64 route, forced,
    # gives the same norms.  The choice flips exactly past 2^31 - 1, so no
    # stack of 2^31 entries is built.
    assert setfuncs._index_dtype((1 << 31) - 1) == np.int32
    assert setfuncs._index_dtype(1 << 31) == np.int64
    label_types = []
    original = setfuncs.label_table

    def label_table(chars, n, dtype):
        label_types.append(np.dtype(dtype))
        return original(chars, n, dtype)

    monkeypatch.setattr(setfuncs, "label_table", label_table)
    rng = np.random.default_rng(31)
    for n in (1, 4, 9, 12):
        rows = [(random_point_set(rng, n), random_subspace(rng, n))
                for _ in range(5)]
        rows += [(full_set(n), DualSubspace.trivial()),
                 (PointSet(GroupDim(n), 0), random_subspace(rng, n))]
        ind, chars = stack_rows(*zip(*rows))
        narrow = residual_l1(ind, chars)
        with monkeypatch.context() as m:
            m.setattr(setfuncs, "_index_dtype",
                      lambda top: np.dtype(np.int64))
            wide = residual_l1(ind, chars)
        assert label_types[-2:] == [np.int32, np.int64]
        assert all(np.array_equal(x, y) for x, y in zip(narrow, wide))


def test_residual_checks_basis_bound():
    ind, _ = stack_rows([PointSet.from_points(2, [1])], [])
    with pytest.raises(ValueError,
                       match="basis mask exceeds the group dimension"):
        residual_l1(ind, np.array([[0b100]]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_stacked_residual_l1_matches_reference_tables(data):
    # Rows of k = 0..n characters, some zero, repeated or adding up
    # earlier ones (so some coset labels take no point), padded with zeros
    # past the widest row; sets empty, full or at random density.  Each
    # row's l1 and dim V against the reference table of its span.
    n = data.draw(st.integers(1, 12))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    ks = data.draw(st.lists(st.integers(0, n), min_size=1, max_size=4))
    width = max(ks) + data.draw(st.integers(0, 2))
    chars = np.zeros((len(ks), width), dtype=np.int64)
    for row, k in zip(chars, ks):
        for i in range(k):
            kind = rng.integers(4) if i else rng.integers(2)
            if kind == 0:
                row[i] = rng.integers(1, 1 << n)
            elif kind == 2:
                row[i] = row[rng.integers(i)]
            elif kind == 3:
                subset = row[:i][rng.integers(2, size=i) == 1]
                row[i] = np.bitwise_xor.reduce(subset, initial=0)
    density = data.draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    ind = (rng.random((len(ks), 1 << n)) < density).astype(np.int8)
    nums, exps, dims = residual_l1(ind, chars)
    for t, row in enumerate(chars.tolist()):
        a = PointSet.from_indicator(GroupDim(n), ind[t])
        v = span_of(row)
        want = _reference.residual_l1(a, v)
        assert dims[t] == v.dim
        assert (int(nums[t]), int(exps[t])) == (want.num, want.exp)


def test_residual_norms_one_row_matches_the_step_formula():
    # One row of coset counts, as iterate_step passes it, against the
    # formula the step used on its own: ||f_V||_1 = 2(m |A| - sum c^2) /
    # 2^(2n - d) in Python ints.  Then the int64 bound: 2^(2n) fits up to
    # n = 31 and is refused past it.
    rng = np.random.default_rng(32)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        a = random_point_set(rng, n)
        v = random_subspace(rng, n)
        labels = coset_index_table(v, np.flatnonzero(a.bool_mask()))
        counts = np.bincount(labels, minlength=v.order)
        nums, exps = residual_norms(counts[None], n, [v.dim])
        m = 1 << (n - v.dim)
        total = m * a.size - sum(c * c for c in counts.tolist())
        assert DyadicScalar(int(nums[0]), int(exps[0])) == DyadicScalar(
            2 * total, 2 * n - v.dim)
    counts = np.array([[1 << 30, 1 << 29]])
    nums, exps = residual_norms(counts, 31, [1])
    total = (1 << 30) * 3 * (1 << 29) - (1 << 60) - (1 << 58)
    assert DyadicScalar(int(nums[0]), int(exps[0])) == DyadicScalar(
        2 * total, 61)
    with pytest.raises(OverflowError):
        residual_norms(np.zeros((1, 1), dtype=np.int64), 32, [0])
