"""The int-code store of PFArray against GroupElement-level references: the
parsers, writers and builders that work on codes, the decoded views, global
simplicity and the Archdeacon witnesses, over cyclic and product groups,
factors of order 1 included. (The filler is compared with the chained
object-level diag in test_pfarray_kernels.)"""

import json

from hypothesis import given, settings, strategies as st

import heffter_oracle
import pfarray_oracle as oracle
from heffter_oracle import symmetric_rep
from relheffter.group import GroupElement, GroupSpec
from relheffter.heffter import verify_archdeacon
from relheffter.orderings import _simple_lines, is_globally_simple
from relheffter.pfarray import PFArray, cyclic_row_shift, direct_sum

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
    return entry_dicts(orders).map(lambda case: PFArray(*case))


@settings(max_examples=200, deadline=None)
@given(entry_dicts())
def test_decoded_views_equal_the_given_elements(case):
    m, n, spec, entries = case
    array = PFArray(m, n, spec, entries)
    assert array.entries == entries
    assert array == PFArray(m, n, spec, dict(entries))
    for i in range(m + 2):
        assert array.row(i) == heffter_oracle.row(array, i)
    for j in range(n + 2):
        assert array.col(j) == heffter_oracle.col(array, j)
    assert array.skeleton.cells == frozenset(entries)


@settings(max_examples=200, deadline=None)
@given(arrays())
def test_json_round_trips(array):
    data = array.to_json()
    assert data["cells"] == [{"r": r, "c": c, "v": list(array.entries[(r, c)].coords)}
                             for r, c in sorted(array.entries)]
    assert PFArray.from_json(data) == array
    assert PFArray.from_json(json.loads(array.to_json_text())) == array


@settings(max_examples=200, deadline=None)
@given(arrays(st.integers(1, 40).map(lambda v: (v,))))
def test_csv_round_trips(array):
    text = array.to_csv()
    assert text == oracle.to_csv(array)
    grid = [line.split(",") for line in text.splitlines()]
    assert {(i, j): int(f) for i, row in enumerate(grid, 1) for j, f in enumerate(row, 1) if f} \
        == {cell: symmetric_rep(e) for cell, e in array.entries.items()}
    assert PFArray.from_csv(text, array.spec.orders[0]) == array


@st.composite
def summands(draw):
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return draw(entry_dicts(m=m, n=n)), draw(entry_dicts(m=m, n=n))


@settings(max_examples=200, deadline=None)
@given(summands())
def test_direct_sum_matches_object_level(case):
    a, b = (PFArray(*c) for c in case)
    assert direct_sum(a, b) == oracle.direct_sum(a, b)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: entry_dicts(m=n, n=n)), st.integers(-7, 7))
def test_cyclic_row_shift_matches_object_level(case, shift):
    array = PFArray(*case)
    assert cyclic_row_shift(array, shift) == oracle.cyclic_row_shift(array, shift)


@settings(max_examples=300, deadline=None)
@given(arrays())
def test_globally_simple_is_every_decoded_line_simple(array):
    lines = [array.row(i) for i in range(1, array.m + 1)]
    lines += [array.col(j) for j in range(1, array.n + 1)]
    codes = array.spec.codes
    expected = _simple_lines(codes, [list(map(codes.encode, line)) for line in lines])
    assert expected == all(heffter_oracle.is_simple(line) for line in lines if line)
    assert is_globally_simple(array) == expected


@st.composite
def planted_product_arrays(draw):
    """A product-group array whose rows sum to 0 (the last cell of each row
    cancels the others), with one planted defect."""
    spec = GroupSpec(draw(st.lists(st.integers(1, 7), min_size=2, max_size=3).map(tuple)))
    codes = spec.codes
    m, n = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    entries = {}
    for i in range(1, m + 1):
        cols = sorted(draw(st.sets(st.integers(1, n), min_size=2)))
        values = [codes.encode(draw(elements(spec))) for _ in cols[1:]]
        values.append(codes.neg(codes.total(values)))
        entries.update({(i, j): codes.decode(x) for j, x in zip(cols, values)})
    cells = sorted(entries)
    a, b = draw(st.sampled_from(cells)), draw(st.sampled_from(cells))
    kind = draw(st.sampled_from(["duplicate", "zero", "antisymmetric", "row-sum"]))
    if kind == "duplicate":
        entries[a] = entries[b]
    elif kind == "zero":
        entries[a] = spec.codes.decode(0)
    elif kind == "antisymmetric":
        entries[a] = -entries[b]
    else:
        entries[a] = entries[a] + draw(elements(spec))
    return PFArray(m, n, spec, entries)


@settings(max_examples=300, deadline=None)
@given(planted_product_arrays())
def test_archdeacon_witnesses_match_object_level(array):
    assert verify_archdeacon(array).to_json() == heffter_oracle.verify_archdeacon(array).to_json()
