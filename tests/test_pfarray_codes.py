"""The int-code store of PFArray against GroupElement-level references: the
parsers and writers that work on codes, the code views, global simplicity and
the Archdeacon witnesses, over cyclic and product groups, factors of order 1
included. (The filler is compared with the chained object-level diag in
test_pfarray_kernels, and the composite with the chained object-level
builders in test_constructions.)"""

import json

from hypothesis import given, settings, strategies as st

import heffter_oracle
import pfarray_oracle as oracle
from group_oracle import GroupElement, encode, total, zero
from heffter_oracle import symmetric_rep
from relheffter.group import GroupSpec
from relheffter.heffter import verify_archdeacon
from relheffter.orderings import _simple_lines, is_globally_simple
from relheffter.pfarray import PFArray

ORDERS = st.lists(st.integers(1, 9), min_size=1, max_size=3).map(tuple)


def elements(spec: GroupSpec):
    return st.tuples(*(st.integers(0, o - 1) for o in spec.orders)).map(
        lambda coords: GroupElement(spec, coords))


@st.composite
def entry_dicts(draw, orders=ORDERS, m=None, n=None):
    """(m, n, spec, entries): a GroupElement dict over a random filling."""
    spec = GroupSpec(draw(orders))
    m = m or draw(st.integers(1, 5))
    n = n or draw(st.integers(1, 5))
    cells = draw(st.lists(st.tuples(st.integers(1, m), st.integers(1, n)), unique=True))
    return m, n, spec, {cell: draw(elements(spec)) for cell in cells}


def arrays(orders=ORDERS):
    return entry_dicts(orders).map(lambda case: oracle.from_elements(*case))


@settings(max_examples=200, deadline=None)
@given(entry_dicts())
def test_decoded_views_equal_the_given_elements(case):
    m, n, spec, entries = case
    array = oracle.from_elements(m, n, spec, entries)
    assert oracle.entries(array) == entries
    assert array.entries == {cell: encode(spec, e) for cell, e in entries.items()}
    assert array == oracle.from_elements(m, n, spec, dict(entries))
    for i in range(m + 2):
        assert array.row(i) == [encode(spec, e) for e in heffter_oracle.row(array, i)]
    for j in range(n + 2):
        assert array.col(j) == [encode(spec, e) for e in heffter_oracle.col(array, j)]
    assert array.skeleton.cells == frozenset(entries)


@settings(max_examples=200, deadline=None)
@given(arrays())
def test_json_round_trips(array):
    data = array.to_json()
    entries = oracle.entries(array)
    assert data["cells"] == [{"r": r, "c": c, "v": list(entries[(r, c)].coords)}
                             for r, c in sorted(entries)]
    assert PFArray.from_json(data) == array
    assert PFArray.from_json(json.loads(array.to_json_text())) == array


@settings(max_examples=200, deadline=None)
@given(arrays(st.integers(1, 40).map(lambda v: (v,))))
def test_csv_round_trips(array):
    text = array.to_csv()
    assert text == oracle.to_csv(array)
    grid = [line.split(",") for line in text.splitlines()]
    assert {(i, j): int(f) for i, row in enumerate(grid, 1) for j, f in enumerate(row, 1) if f} \
        == {cell: symmetric_rep(e) for cell, e in oracle.entries(array).items()}
    assert PFArray.from_csv(text, array.spec.orders[0]) == array


@settings(max_examples=300, deadline=None)
@given(arrays())
def test_globally_simple_is_every_decoded_line_simple(array):
    lines = [heffter_oracle.row(array, i) for i in range(1, array.m + 1)]
    lines += [heffter_oracle.col(array, j) for j in range(1, array.n + 1)]
    spec = array.spec
    expected = _simple_lines(spec.codes, [[encode(spec, e) for e in line] for line in lines])
    assert expected == all(heffter_oracle.is_simple(line) for line in lines if line)
    assert is_globally_simple(array) == expected


@st.composite
def planted_product_arrays(draw):
    """A product-group array whose rows sum to 0 (the last cell of each row
    cancels the others), with one planted defect."""
    spec = GroupSpec(draw(st.lists(st.integers(1, 7), min_size=2, max_size=3).map(tuple)))
    m, n = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    entries = {}
    for i in range(1, m + 1):
        cols = sorted(draw(st.sets(st.integers(1, n), min_size=2)))
        values = [draw(elements(spec)) for _ in cols[1:]]
        values.append(-total(spec, values))
        entries.update(zip([(i, j) for j in cols], values))
    cells = sorted(entries)
    a, b = draw(st.sampled_from(cells)), draw(st.sampled_from(cells))
    kind = draw(st.sampled_from(["duplicate", "zero", "antisymmetric", "row-sum"]))
    if kind == "duplicate":
        entries[a] = entries[b]
    elif kind == "zero":
        entries[a] = zero(spec)
    elif kind == "antisymmetric":
        entries[a] = -entries[b]
    else:
        entries[a] = entries[a] + draw(elements(spec))
    return oracle.from_elements(m, n, spec, entries)


@settings(max_examples=300, deadline=None)
@given(planted_product_arrays())
def test_archdeacon_witnesses_match_object_level(array):
    assert verify_archdeacon(array).to_json() == heffter_oracle.verify_archdeacon(array).to_json()
