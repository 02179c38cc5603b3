import functools

import numpy as np
import pytest

from f2wiener.groups import (HARD_DIM_CAP, DualSubspace, GroupDim,
                             all_subspaces, annihilator_basis,
                             coset_index_table, parity, random_invertible,
                             random_subspace, subspace_count,
                             subspace_extend, subspace_insert)

from _reference import annihilator_points, parity as ref_parity


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
        assert parity(a, b) == ref_parity(a, b)


def test_insert_reduces_to_rref():
    v = DualSubspace.span([0b11])
    w = subspace_insert(v, 0b01)
    assert w.basis == (0b01, 0b10)
    assert w == DualSubspace.span([0b01, 0b10])
    # inserting a member changes nothing
    assert subspace_insert(w, 0b10) == w
    assert subspace_insert(w, 0) == w


def test_span_order_insensitive():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        masks = [int(rng.integers(1, 1 << n)) for _ in range(4)]
        v = DualSubspace.span(masks)
        # One insert at a time is the reference for the batched reduction.
        assert v == functools.reduce(subspace_insert, masks,
                                     DualSubspace.trivial())
        w = random_subspace(rng, n)
        assert subspace_extend(w, masks) == functools.reduce(
            subspace_insert, masks, w)
        rng.shuffle(masks)
        assert DualSubspace.span(masks) == v


def test_basis_validation():
    with pytest.raises(ValueError):
        DualSubspace((0b10, 0b01))  # wrong pivot order
    with pytest.raises(ValueError):
        DualSubspace((0b01, 0b11))  # not reduced
    with pytest.raises(ValueError):
        DualSubspace((0,))


def test_elements_and_contains():
    v = DualSubspace.span([0b011, 0b100])
    elems = v.elements()
    assert len(elems) == 4 == v.order
    assert set(elems) == {0, 0b011, 0b100, 0b111}
    for e in elems:
        assert v.contains(e)
    assert not v.contains(0b001)
    assert DualSubspace.trivial().elements() == [0]


def test_element_and_reduce_arrays():
    rng = np.random.default_rng(24)
    for _ in range(40):
        n = int(rng.integers(1, 11))
        v = random_subspace(rng, n)
        elems = v.element_array()
        assert elems.dtype == np.int64
        doubled = [0]
        for r in v.basis:
            doubled += [e ^ r for e in doubled]
        assert elems.tolist() == v.elements() == doubled
        assert sorted(elems.tolist()) == sorted(
            {x for x in range(1 << n) if v.contains(x)})
        gammas = rng.integers(0, 1 << n, size=50)
        assert v.reduce_array(gammas).tolist() == [
            v.reduce(int(g)) for g in gammas]


def test_annihilator_examples():
    v = DualSubspace.span([0b01])
    assert annihilator_basis(v, 2) == [0b10]
    assert annihilator_basis(DualSubspace.trivial(), 3) == [1, 2, 4]
    assert annihilator_basis(DualSubspace.full(3), 3) == []
    with pytest.raises(ValueError):
        annihilator_basis(DualSubspace.span([0b100]), 2)


def test_annihilator_duality():
    # every subspace for n <= 5, then random ones up to n = 10
    cases = [(n, v) for n in range(1, 6) for v in all_subspaces(n)]
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(2, 11))
        cases.append((n, random_subspace(rng, n)))
    for n, v in cases:
        ann = annihilator_basis(v, n)
        w = DualSubspace.span(ann)
        assert w.dim == n - v.dim  # |V| * |ann| = 2^n
        assert set(w.elements()) == set(annihilator_points(v.basis, n))
        # double annihilator recovers v
        assert DualSubspace.span(annihilator_basis(w, n)) == v


def test_coset_index_fibers():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(2, 10))
        v = random_subspace(rng, n)
        table = coset_index_table(v, n)
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
    lines = {DualSubspace.span([m]) for m in (1, 2, 3)}
    assert DualSubspace.trivial() in subs
    assert DualSubspace.full(2) in subs
    assert lines <= subs


def test_random_invertible_is_invertible():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        rows = random_invertible(rng, n)
        assert DualSubspace.span(rows).dim == n
