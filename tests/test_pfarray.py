"""Partially filled arrays: diag procedure, diagonals, serialization, direct sums."""

import re

import pytest
from hypothesis import given, strategies as st

import heffter_oracle
import pfarray_oracle
import relheffter.pfarray as pfarray
from heffter_oracle import support, symmetric_rep
from pfarray_oracle import element, from_elements
from relheffter.constructions import FAMILIES
from relheffter.group import GroupError, GroupSpec
from relheffter.heffter import verify_archdeacon
from relheffter.orderings import is_globally_simple
from relheffter.pfarray import (
    ConstructionError,
    DiagSpec,
    PFArray,
    Skeleton,
    classify_diagonals,
    diagonal_cells,
    fill_diagonals,
    skeleton_from_diagonals,
)


def grid(array):
    return {cell: symmetric_rep(e) for cell, e in pfarray_oracle.entries(array).items()}


def test_diag_hand_trace():
    # diag(1, 1, 2, 1, 3, 4) on a 5x5 over Z_31: cells (1,1),(2,2),(3,3),(4,4)
    # get 2, 5, 8, 11
    a = fill_diagonals(5, 31, [DiagSpec(1, 1, 2, 1, 3, 4)])
    assert grid(a) == {(1, 1): 2, (2, 2): 5, (3, 3): 8, (4, 4): 11}


def test_diag_wraps_indices():
    # d1 = 2 from (4,5) on a 5x5: (4,5), (1,2), (3,4) -- 1-based wraparound
    a = fill_diagonals(5, 31, [DiagSpec(4, 5, 1, 2, 1, 3)])
    assert set(a.entry_codes) == {(4, 5), (1, 2), (3, 4)}


def test_diag_refuses_overwrite():
    with pytest.raises(ConstructionError):
        fill_diagonals(5, 31, [DiagSpec(1, 1, 2, 1, 3, 4), DiagSpec(2, 2, 9, 1, 1, 1)])


@given(st.integers(1, 12), st.data())
def test_diag_fills_exactly_length_cells(n, data):
    i = data.draw(st.integers(1, n))
    length = data.draw(st.integers(1, n))
    d1 = data.draw(st.sampled_from([1, 2]))
    try:
        filled = fill_diagonals(n, 100, [DiagSpec(i, 1, 1, d1, 1, length)])
    except ConstructionError:
        return  # self-collision is a legal refusal
    assert len(filled.entry_codes) == length


@given(st.integers(1, 15))
def test_diagonal_cells_partition_the_grid(n):
    seen = set()
    for i in range(1, n + 1):
        cells = diagonal_cells(n, i)
        assert len(cells) == n
        for cell in cells:
            assert pfarray_oracle.diagonal_index(cell, n) == i
        seen.update(cells)
    assert len(seen) == n * n


def test_diagonal_cells_example():
    assert diagonal_cells(4, 3) == [(3, 1), (4, 2), (1, 3), (2, 4)]


def test_classify_diagonals_cyclic():
    skel = skeleton_from_diagonals(7, [6, 7, 1])  # consecutive across the wrap
    rep = classify_diagonals(skel)
    assert rep.filled_diagonal_indices == {6, 7, 1}
    assert rep.is_k_diagonal and rep.is_cyclically_k_diagonal
    assert pfarray_oracle.strip_widths(rep, 7) == (4,)


def test_classify_diagonals_non_cyclic():
    rep = classify_diagonals(skeleton_from_diagonals(9, [1, 2, 3, 5, 8]))
    assert rep.is_k_diagonal and not rep.is_cyclically_k_diagonal
    widths = pfarray_oracle.strip_widths(rep, 9)
    assert widths == (1, 1, 2)
    assert len(set(widths)) > 1  # no uniform width


def test_classify_diagonals_partial_fill_is_not_k_diagonal():
    spec = GroupSpec.cyclic(50)
    a = from_elements(4, 4, spec, {(1, 1): element(spec, 3)})
    rep = classify_diagonals(a)
    assert not rep.is_k_diagonal


@pytest.mark.parametrize("family, n", [("h-n-3", 9), ("h9", 15)])
def test_classify_diagonals_counts_an_arrays_cells_without_its_skeleton(family, n):
    a = FAMILIES[family].builder(n)
    rep = classify_diagonals(a)
    assert "skeleton" not in vars(a) and "_row_major" not in vars(a)
    assert rep == classify_diagonals(a.skeleton) == pfarray_oracle.classify_diagonals(a)


def test_cyclic_row_shift_moves_diagonals():
    skel = skeleton_from_diagonals(6, [3, 4, 5])
    spec = GroupSpec.cyclic(99)
    a = from_elements(6, 6, spec, {c: element(spec, 1 + i)
                                   for i, c in enumerate(sorted(skel.cells))})
    shifted = pfarray_oracle.cyclic_row_shift(a, 1 - 3)
    assert classify_diagonals(shifted).filled_diagonal_indices == {1, 2, 3}
    assert sorted(grid(a).values()) == sorted(grid(shifted).values())


def test_direct_sum_zero_pads():
    s1, s2 = GroupSpec.cyclic(10), GroupSpec.cyclic(3)
    a = from_elements(2, 2, s1, {(1, 1): element(s1, 4)})
    b = from_elements(2, 2, s2, {(1, 1): element(s2, 1), (2, 2): element(s2, 2)})
    c = pfarray_oracle.direct_sum(a, b)
    assert c.spec.orders == (10, 3)
    assert c.entry_codes == {(1, 1): 4 * 3 + 1, (2, 2): 2}
    assert pfarray_oracle.entries(c)[(1, 1)].coords == (4, 1)
    assert pfarray_oracle.entries(c)[(2, 2)].coords == (0, 2)


def test_support():
    spec = GroupSpec.cyclic(21)
    a = from_elements(1, 3, spec, {(1, j): element(spec, x)
                                   for j, x in [(1, 2), (2, -9), (3, 7)]})
    assert support(a) == {2, 9, 7}


def test_json_round_trip():
    spec = GroupSpec((51, 3))
    a = from_elements(2, 3, spec, {(1, 2): element(spec, -9, 1), (2, 3): element(spec, 5, 0)})
    again = PFArray.from_json(a.to_json())
    assert again == a
    data = a.to_json()
    assert data["group"] == {"orders": [51, 3]}
    assert {"r": 1, "c": 2, "v": [42, 1]} in data["cells"]


def test_csv_round_trip():
    spec = GroupSpec.cyclic(21)
    a = from_elements(2, 3, spec, {(1, 1): element(spec, -3), (2, 3): element(spec, 10)})
    text = a.to_csv()
    assert text == "-3,,\n,,10\n"
    assert PFArray.from_csv(text, 21) == a


def test_skeleton_json_round_trip():
    skel = skeleton_from_diagonals(5, [2, 3])
    assert Skeleton.from_json(skel.to_json()) == skel


def test_entry_order_conventions():
    spec = GroupSpec.cyclic(100)
    a = from_elements(3, 3, spec, {
        (1, 2): element(spec, 1), (2, 1): element(spec, 2),
        (2, 2): element(spec, 3), (3, 2): element(spec, 4),
    })
    assert a.row(2) == [2, 3]  # codes of Z_100: the residues
    assert a.col(2) == [1, 3, 4]
    assert [symmetric_rep(e) for e in heffter_oracle.entry_list(a)] == [1, 2, 3, 4]


def test_from_json_is_strict():
    def load(cells, orders=(5,)):
        return PFArray.from_json({"m": 2, "n": 2, "group": {"orders": list(orders)},
                                  "cells": cells})

    assert load([{"r": 1, "c": 1, "v": [4]}]).entry_codes == {(1, 1): 4}
    for v in ([1, 2], [], [7], [-1], [1.0], ["1"], 1):
        with pytest.raises(GroupError):
            load([{"r": 1, "c": 1, "v": v}])
    with pytest.raises(GroupError):
        load([{"r": 1, "c": 1, "v": [3]}], orders=(5, 3))
    with pytest.raises(ValueError, match="listed twice"):
        load([{"r": 1, "c": 1, "v": [1]}, {"r": 1, "c": 1, "v": [2]}])


def test_from_csv_is_strict():
    assert PFArray.from_csv("-3, 12\n,\n", 21).entry_codes == {(1, 1): 18, (1, 2): 12}
    for text in ("1,-1\n-1,1,0\n", "1,2,x\n", "1,2.0\n", "1,0x3\n", ""):
        with pytest.raises(ValueError):
            PFArray.from_csv(text, 21)


def test_index_does_not_go_stale():
    spec = GroupSpec.cyclic(23)
    rows = [[1, 2, 20], [4, 9, 10], [18, 12, 16]]
    entries = {(i, j): element(spec, x)
               for i, row in enumerate(rows, 1) for j, x in enumerate(row, 1)}
    a = from_elements(3, 3, spec, entries)
    before = ([a.row(i) for i in (1, 2, 3)], [a.col(j) for j in (1, 2, 3)],
              verify_archdeacon(a).to_json(), is_globally_simple(a))
    assert before[2]["valid"] and before[3]

    entries[(1, 1)] = element(spec, 5)
    del entries[(2, 2)]
    a.row(1).append(7)
    a.col(1).clear()
    with pytest.raises(TypeError):
        a.entries[(1, 1)] = 5
    after = ([a.row(i) for i in (1, 2, 3)], [a.col(j) for j in (1, 2, 3)],
             verify_archdeacon(a).to_json(), is_globally_simple(a))
    assert after == before
    assert a == from_elements(3, 3, spec, pfarray_oracle.entries(a))


def test_one_index_per_array_and_skeleton():
    # one row-major split, rows 1..m then columns 1..n, empty lines included:
    # cell numbers in the skeleton's lines, entry codes in the array's
    spec = GroupSpec.cyclic(100)
    a = from_elements(3, 4, spec, {(1, 2): element(spec, 1), (3, 2): element(spec, 4),
                                   (3, 1): element(spec, 2)})
    assert a.skeleton is a.skeleton
    cells, lines = a.skeleton.index
    assert cells == [(1, 2), (3, 1), (3, 2)] == a.index[0]
    assert lines == [[0], [], [1, 2], [1], [0, 2], [], []]
    assert a.index[1] == [(1,), (), (2, 4), (2,), (1, 4), (), ()]


@pytest.mark.parametrize("family, n", [("h-n-3", 9), ("h9", 15)])
def test_array_skeleton_is_split_from_the_array_index(monkeypatch, family, n):
    a = FAMILIES[family].builder(n)
    fresh = Skeleton(a.m, a.n, frozenset(a.entry_codes))
    cells = a.index[0]

    def fail(*args, **kwargs):
        raise AssertionError("sorted or range-checked again")

    monkeypatch.setattr(pfarray, "sorted", fail, raising=False)
    monkeypatch.setattr(Skeleton, "__new__", fail)
    skel = a.skeleton
    monkeypatch.undo()
    assert skel == fresh and skel.index[0] is cells
    assert skel.index == fresh.index and skel.steps == fresh.steps


@pytest.mark.parametrize("text", [
    "5,  ,,,\n,,,,7\n", ",,,,\n,,,,\n", "\t,3\n 4 ,\n", " , \n", "1,,\r\n,,2\r,,\n",
    ",,-1,,\n,x,,,\n", ",,,\n,,\n", "1\n\n",
])
def test_csv_fields_found_by_their_comma_runs(text):
    try:
        expected = pfarray_oracle.from_csv(text, 7)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            PFArray.from_csv(text, 7)
    else:
        assert PFArray.from_csv(text, 7) == expected


@pytest.mark.parametrize("m, n", [(0, 2), (2, -1)])
def test_dimensions_must_be_positive(m, n):
    with pytest.raises(ValueError, match=f"dimensions {m}x{n} are not positive"):
        Skeleton(m, n, frozenset())
    with pytest.raises(ValueError, match=f"dimensions {m}x{n} are not positive"):
        PFArray(m, n, GroupSpec.cyclic(5), {})
