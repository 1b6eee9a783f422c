"""The one-pass filler, linear diagonal classification and direct JSON writer
against the references in pfarray_oracle."""

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import pfarray_oracle as oracle
from relheffter import constructions
from relheffter.constructions import FAMILIES, build_archdeacon_composite
from relheffter.group import GroupElement, GroupSpec
from relheffter.pfarray import (
    ConstructionError,
    DiagSpec,
    PFArray,
    Skeleton,
    classify_diagonals,
    fill_diagonals,
    skeleton_from_diagonals,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
MEMBERS = [(f.name, n) for f in FAMILIES.values() for n in range(3, 100) if f.admissible(n)]


def outcome(f, *args):
    """f(*args), or the type and message of the ConstructionError it raised."""
    try:
        return f(*args)
    except ConstructionError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("family", FAMILIES)
def test_writer_matches_json_dumps_on_every_family_member(family):
    for name, n in MEMBERS:
        if name == family:
            array = FAMILIES[family].builder(n)
            assert array.to_json_text() == oracle.json_text(array), n


@pytest.mark.parametrize("d", [3, 4])
def test_writer_matches_json_dumps_on_composites(d):
    # h9 is not cyclically 9-diagonal, so it has no composite
    for family, n in [("h-n-3", 5), ("h-n-3", 99), ("h-2n-3", 13), ("h-2n-3", 97),
                      ("h7", 11), ("h7", 99)]:
        composite = build_archdeacon_composite(FAMILIES[family].builder(n), d)
        assert composite.spec.orders[1] == d
        assert composite.to_json_text() == oracle.json_text(composite)


@pytest.mark.parametrize("name", ["archdeacon_7x7_z60xz3.json", "archdeacon_8x8_z51xz3.json"])
def test_writer_matches_json_dumps_on_fixtures(name):
    text = (FIXTURES / name).read_text()
    array = PFArray.from_json(json.loads(text))
    assert array.to_json_text() == oracle.json_text(array) == text


def test_writer_matches_json_dumps_on_an_empty_array():
    for spec in (GroupSpec.cyclic(7), GroupSpec((5, 3))):
        array = PFArray(2, 3, spec)
        assert array.to_json_text() == oracle.json_text(array)


@st.composite
def product_arrays(draw):
    orders = tuple(draw(st.lists(st.integers(1, 60), min_size=1, max_size=3)))
    spec = GroupSpec(orders)
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = draw(st.sets(st.tuples(st.integers(1, m), st.integers(1, n))))
    entries = {cell: GroupElement(spec, tuple(draw(st.integers(0, o - 1)) for o in orders))
               for cell in sorted(cells)}
    return PFArray(m, n, spec, entries)


@settings(max_examples=200, deadline=None)
@given(product_arrays())
def test_writer_matches_json_dumps_on_random_arrays(array):
    assert array.to_json_text() == oracle.json_text(array)


@st.composite
def diag_inputs(draw):
    """A square array over Z_v, maybe with some cells already filled, and diag
    procedures that may collide with themselves, each other or those cells;
    now and then a non-square array or a product group."""
    n = draw(st.integers(1, 7))
    m = n if draw(st.integers(0, 9)) else n + 1
    spec = GroupSpec((draw(st.integers(1, 40)),) if draw(st.integers(0, 9)) else (5, 3))
    cells = draw(st.sets(st.tuples(st.integers(1, m), st.integers(1, n)), max_size=3))
    array = PFArray(m, n, spec, {cell: spec.identity for cell in cells})
    procedures = draw(st.lists(st.builds(
        DiagSpec, st.integers(-3, n + 3), st.integers(-3, n + 3), st.integers(-50, 50),
        st.integers(-3, 3), st.integers(-9, 9), st.integers(1, n + 2),
    ), min_size=1, max_size=6))
    return array, procedures


@settings(max_examples=400, deadline=None)
@given(diag_inputs())
# the second procedure meets a filled cell, then repeats a cell of its own:
# the self-collision is what the chain reports
@example((PFArray(3, 3, GroupSpec.cyclic(9)),
          [DiagSpec(1, 1, 0, 1, 1, 1), DiagSpec(2, 2, 0, 1, 1, 4)]))
@example((PFArray(3, 3, GroupSpec.cyclic(9)),
          [DiagSpec(1, 1, 0, 1, 1, 3), DiagSpec(2, 2, 0, 0, 1, 2)]))
def test_filler_matches_chained_diag(case):
    array, procedures = case
    expected = outcome(oracle.fill_chain, array, procedures)
    assert outcome(fill_diagonals, array, procedures) == expected


def test_builders_match_chained_diag(monkeypatch):
    expected = {}
    with monkeypatch.context() as patch:
        patch.setattr(constructions, "fill_diagonals", oracle.fill_chain)
        for name, n in MEMBERS[::3]:
            expected[name, n] = FAMILIES[name].builder(n)
    for (name, n), array in expected.items():
        assert FAMILIES[name].builder(n) == array


@st.composite
def square_skeletons(draw):
    """Unions of whole diagonals with a few cells added or taken away."""
    n = draw(st.integers(1, 9))
    skel = skeleton_from_diagonals(n, draw(st.sets(st.integers(1, n))))
    flips = draw(st.sets(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=2))
    return Skeleton(n, n, skel.cells ^ frozenset(flips))


@settings(max_examples=400, deadline=None)
@given(square_skeletons())
@example(Skeleton(5, 5, frozenset()))
@example(Skeleton(1, 1, frozenset({(1, 1)})))
def test_classify_diagonals_matches_reference(skel):
    assert classify_diagonals(skel) == oracle.classify_diagonals(skel)
    spec = GroupSpec.cyclic(11)
    array = PFArray(skel.m, skel.n, spec, {cell: spec.element(1) for cell in skel.cells})
    assert classify_diagonals(array) == oracle.classify_diagonals(array)
