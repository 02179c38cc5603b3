import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from f2wiener.groups import (HARD_DIM_CAP, SUBSPACE_BATCH, DualSubspace,
                             GroupDim, all_subspaces, annihilator_basis,
                             char_sign, label_table, subspace_batches,
                             subspace_count, subspace_extend)

from _reference import (annihilator_points, coset_index_table, full_subspace,
                        parity as ref_parity, parity_labels,
                        random_invertible, random_subspace,
                        reference_all_subspaces, reference_annihilator_basis,
                        sign, span_of, subspace_elements)


def test_group_dim_validation():
    assert GroupDim(4).order == 16
    with pytest.raises(ValueError):
        GroupDim(0)
    with pytest.raises(ValueError):
        GroupDim(HARD_DIM_CAP + 1)
    with pytest.raises(TypeError):
        GroupDim(2.0)


def test_parity_matches_reference():
    rng = np.random.default_rng(0)
    for _ in range(500):
        a = int(rng.integers(0, 1 << 16))
        b = int(rng.integers(0, 1 << 16))
        assert char_sign(a, b) == sign(a, b)


def _insert(v, gamma):
    return subspace_extend(v, [gamma])


def test_insert_reduces_to_rref():
    v = span_of([0b11])
    w = _insert(v, 0b01)
    assert w.basis == (0b01, 0b10)
    assert w == span_of([0b01, 0b10])
    # inserting a member changes nothing
    assert _insert(w, 0b10) == w
    assert _insert(w, 0) == w
    # a negative mask is refused, in int64 and in int32, also after masks
    # that grow the basis and when the basis clears its low bits
    for masks in ([-1], [0b01, -2], np.array([3, -4, 1], dtype=np.int32),
                  [-(1 << 62) | 0b10]):
        for base in (DualSubspace.trivial(), w):
            with pytest.raises(ValueError,
                               match="character masks are non-negative"):
                subspace_extend(base, masks)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=16))))
def test_insert_chain_stays_rref(case):
    # subspace_extend skips the basis check; the checked constructor must
    # accept every basis it builds, and the basis must span the masks.
    masks = case[1]
    w = DualSubspace.trivial()
    for g in masks:
        w = _insert(w, g)
        assert DualSubspace(w.basis) == w
    span = {0}
    for g in masks:
        span |= {x ^ g for x in span}
    assert set(subspace_elements(w).tolist()) == span


def test_span_order_insensitive():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        masks = [int(rng.integers(1, 1 << n)) for _ in range(4)]
        v = span_of(masks)
        # One insert at a time is the reference for the batched reduction.
        assert v == functools.reduce(_insert, masks, DualSubspace.trivial())
        w = random_subspace(rng, n)
        assert subspace_extend(w, masks) == functools.reduce(
            _insert, masks, w)
        rng.shuffle(masks)
        assert span_of(masks) == v


def test_basis_validation():
    with pytest.raises(ValueError):
        DualSubspace((0b10, 0b01))  # wrong pivot order
    with pytest.raises(ValueError):
        DualSubspace((0b01, 0b11))  # not reduced
    with pytest.raises(ValueError):
        DualSubspace((0,))


def test_elements_and_contains():
    v = span_of([0b011, 0b100])
    elems = subspace_elements(v).tolist()
    assert len(elems) == 4 == v.order
    assert set(elems) == {0, 0b011, 0b100, 0b111}
    for e in elems:
        assert v.contains(e)
    assert not v.contains(0b001)
    assert subspace_elements(DualSubspace.trivial()).tolist() == [0]


def test_element_and_reduce_arrays():
    rng = np.random.default_rng(24)
    for _ in range(40):
        n = int(rng.integers(1, 11))
        v = random_subspace(rng, n)
        elems = subspace_elements(v)
        assert elems.dtype == np.int64
        doubled = [0]
        for r in v.basis:
            doubled += [e ^ r for e in doubled]
        assert elems.tolist() == doubled
        assert sorted(elems.tolist()) == sorted(
            {x for x in range(1 << n) if v.contains(x)})
        gammas = rng.integers(0, 1 << n, size=50)
        assert v.reduce_array(gammas).tolist() == [
            v.reduce(int(g)) for g in gammas]


def test_annihilator_examples():
    v = span_of([0b01])
    assert annihilator_basis(v, 2) == [0b10]
    assert annihilator_basis(DualSubspace.trivial(), 3) == [1, 2, 4]
    assert annihilator_basis(full_subspace(3), 3) == []
    with pytest.raises(ValueError):
        annihilator_basis(span_of([0b100]), 2)
    top = 1 << (HARD_DIM_CAP - 1)
    assert annihilator_basis(span_of([top | 1]),
                             HARD_DIM_CAP)[-1] == top | 1
    with pytest.raises(ValueError):
        annihilator_basis(span_of([1]), HARD_DIM_CAP + 1)


def test_annihilator_duality():
    # every subspace for n <= 5, then random ones up to n = 10
    cases = [(n, v) for n in range(1, 6) for v in all_subspaces(n)]
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(2, 11))
        cases.append((n, random_subspace(rng, n)))
    for n, v in cases:
        ann = annihilator_basis(v, n)
        w = span_of(ann)
        assert w.dim == n - v.dim  # |V| * |ann| = 2^n
        assert set(subspace_elements(w).tolist()) == set(
            annihilator_points(v.basis, n))
        # double annihilator recovers v
        assert span_of(annihilator_basis(w, n)) == v


def test_bound_check_shared():
    v = span_of([0b100])
    for call in (lambda: annihilator_basis(v, 2),
                 lambda: label_table(np.array([v.basis]), 2)):
        with pytest.raises(ValueError,
                           match="basis mask exceeds the group dimension"):
            call()
    assert annihilator_basis(v, 3) == [1, 2]
    labels, dims = label_table(np.array([v.basis]), 3)
    assert labels.tolist() == [[0, 0, 0, 0, 1, 1, 1, 1]]
    assert dims.tolist() == [1]


def test_all_subspaces_match_reference():
    # same bases in the same order, with the bit loop's annihilators
    for n in range(0, 8):
        pairs = itertools.zip_longest(all_subspaces(n),
                                      reference_all_subspaces(n))
        for v, ref in pairs:
            assert v.basis == ref.basis
            assert annihilator_basis(v, n) == reference_annihilator_basis(
                ref, n)


def test_subspace_batches_match_per_subspace():
    for n in range(1, 7):
        rows_seen = []
        for rows, anns in subspace_batches(n):
            assert rows.dtype == anns.dtype == np.int64
            assert rows.shape[1] + anns.shape[1] == n
            assert 1 <= len(rows) == len(anns) <= SUBSPACE_BATCH
            for basis, ann in zip(rows.tolist(), anns.tolist()):
                w = DualSubspace(tuple(basis))
                assert ann == annihilator_basis(w, n)
                assert ann == reference_annihilator_basis(w, n)
                elems = subspace_elements(span_of(ann)).tolist()
                assert sorted(elems) == sorted(annihilator_points(w.basis, n))
                rows_seen.append(w.basis)
        assert rows_seen == [v.basis for v in reference_all_subspaces(n)]
    # the 2^16-subspace pivot pattern at n = 8 comes in bounded batches
    sizes = [len(rows) for rows, _ in subspace_batches(8)]
    assert max(sizes) == SUBSPACE_BATCH
    assert sum(sizes) == subspace_count(8)


def test_stored_annihilator_is_invisible():
    # the annihilator all_subspaces stores is not part of the value and
    # serves only the n it was enumerated in
    for n in range(1, 6):
        for v in all_subspaces(n):
            w = DualSubspace(v.basis)
            assert v == w and hash(v) == hash(w) and repr(v) == repr(w)
            assert annihilator_basis(v, n + 2) == annihilator_basis(
                w, n + 2) == reference_annihilator_basis(w, n + 2)
            if v.basis:
                with pytest.raises(ValueError):
                    annihilator_basis(v, max(v.basis).bit_length() - 1)
            ann = annihilator_basis(v, n)
            ann.append(1)
            ann[:1] = [0]
            assert annihilator_basis(v, n) == reference_annihilator_basis(
                w, n)


def test_coset_index_fibers():
    # label_table on one subspace's basis: bit i of a label is the parity
    # under basis row i, and each coset index labels |ann V| points.
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(2, 10))
        v = random_subspace(rng, n)
        (table,), _ = label_table(np.array(v.basis, np.int64)[None], n)
        counts = np.bincount(table, minlength=v.order)
        assert (counts == (1 << n) // v.order).all()
        for i, r in enumerate(v.basis):
            bits = (table >> i) & 1
            assert bits.tolist() == [ref_parity(r, x) for x in range(1 << n)]
        # index 0 exactly on the annihilator
        ann = set(annihilator_points(v.basis, n))
        assert set(np.flatnonzero(table == 0).tolist()) == ann


def test_all_subspaces_counts():
    expected = {1: 2, 2: 5, 3: 16, 4: 67, 5: 374}
    for n, count in expected.items():
        subs = list(all_subspaces(n))
        assert len(subs) == count == subspace_count(n)
        assert len(set(subs)) == count
        for v in subs:
            DualSubspace(v.basis)  # re-validate the RREF invariants


def test_all_subspaces_small_inventory():
    subs = set(all_subspaces(2))
    lines = {span_of([m]) for m in (1, 2, 3)}
    assert DualSubspace.trivial() in subs
    assert full_subspace(2) in subs
    assert lines <= subs


def test_random_invertible_is_invertible():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        rows = random_invertible(rng, n)
        assert span_of(rows).dim == n


def test_label_table_matches_coset_index_table():
    # Each row's doubled table against per-basis parity over the whole
    # group, and its rank against the span: stacks of spanning sets with
    # dependent and zero characters mixed in, dim V from 0 to n.
    rng = np.random.default_rng(37)
    for n in (1, 2, 5, 9):
        chars = rng.integers(0, 1 << n, size=(24, n + 2))
        chars[:3] = 0
        chars[3, :n] = 1 << np.arange(n)
        chars[4, 1] = chars[4, 0]
        labels, dims = label_table(chars, n)
        pts = np.arange(1 << n, dtype=np.int64)
        assert (labels == parity_labels(chars[:, None, :], pts)).all()
        narrow, narrow_dims = label_table(chars, n, np.int32)
        assert narrow.dtype == np.int32 and (narrow == labels).all()
        assert (narrow_dims == dims).all()
        for row, label_row, d in zip(chars.tolist(), labels, dims.tolist()):
            v = span_of([g for g in row if g])
            assert d == v.dim
            # Labels of one coset agree: the table is constant on the
            # fibres of coset_index_table under v's own basis.
            own = coset_index_table(v, pts)
            assert len(set(zip(own.tolist(), label_row.tolist()))) == v.order
    with pytest.raises(ValueError, match="character masks are non-negative"):
        label_table(np.array([[-1]]), 2)
    with pytest.raises(ValueError, match="character masks are non-negative"):
        label_table(np.array([[1, -4], [7, 0]]), 2)
    with pytest.raises(ValueError,
                       match="basis mask exceeds the group dimension"):
        label_table(np.array([[1, 4]]), 2)
    assert label_table(np.zeros((2, 0), dtype=np.int64), 2)[1].tolist() == [
        0, 0]
