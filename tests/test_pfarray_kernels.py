"""The one-pass filler, linear diagonal classification, direct JSON writers
and bulk parsers against json.dumps and the references in pfarray_oracle."""

import json
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings, strategies as st

import pfarray_oracle as oracle
from group_oracle import GroupElement
from relheffter import constructions
from relheffter.constructions import FAMILIES, build_archdeacon_composite
from relheffter.group import GroupSpec
from relheffter.pfarray import (
    ConstructionError,
    DiagSpec,
    PFArray,
    Skeleton,
    classify_diagonals,
    fill_diagonals,
    json_text,
    skeleton_from_diagonals,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
MEMBERS = [(f.name, n) for f in FAMILIES.values() for n in range(3, 100) if f.admissible(n)]


def outcome(f, *args, errors=ConstructionError):
    """f(*args), or the type and message of the error it raised."""
    try:
        return f(*args)
    except errors as exc:
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
        array = PFArray(2, 3, spec, {})
        assert array.to_json_text() == oracle.json_text(array)


@st.composite
def product_arrays(draw):
    orders = tuple(draw(st.lists(st.integers(1, 60), min_size=1, max_size=3)))
    spec = GroupSpec(orders)
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = draw(st.sets(st.tuples(st.integers(1, m), st.integers(1, n))))
    entries = {cell: GroupElement(spec, tuple(draw(st.integers(0, o - 1)) for o in orders))
               for cell in sorted(cells)}
    return oracle.from_elements(m, n, spec, entries)


@settings(max_examples=200, deadline=None)
@given(product_arrays())
def test_writer_matches_json_dumps_on_random_arrays(array):
    assert array.to_json_text() == oracle.json_text(array)


@st.composite
def diag_inputs(draw):
    """The size n and order v of a square array over Z_v, and diag procedures
    that may collide with themselves or each other."""
    n = draw(st.integers(1, 7))
    v = draw(st.integers(1, 40))
    procedures = draw(st.lists(st.builds(
        DiagSpec, st.integers(-3, n + 3), st.integers(-3, n + 3), st.integers(-50, 50),
        st.integers(-3, 3), st.integers(-9, 9), st.integers(1, n + 2),
    ), min_size=1, max_size=6))
    return n, v, procedures


@settings(max_examples=400, deadline=None)
@given(diag_inputs())
# the second procedure meets a filled cell, then repeats a cell of its own:
# the self-collision is what the chain reports
@example((3, 9, [DiagSpec(1, 1, 0, 1, 1, 1), DiagSpec(2, 2, 0, 1, 1, 4)]))
@example((3, 9, [DiagSpec(1, 1, 0, 1, 1, 3), DiagSpec(2, 2, 0, 0, 1, 2)]))
def test_filler_matches_chained_diag(case):
    expected = outcome(oracle.fill_chain, *case)
    assert outcome(fill_diagonals, *case) == expected


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
    array = PFArray(skel.m, skel.n, spec, dict.fromkeys(skel.cells, 1))
    assert classify_diagonals(array) == oracle.classify_diagonals(array)


# values that are no JSON integer: what a strict parser must reject
NOT_INTS = st.sampled_from([True, False, 1.0, 2.5, "1", None, [1]])
MUTATIONS = ["bad-r", "bad-c", "bad-coordinate", "v-not-list", "coordinate-count",
             "non-canonical", "duplicate", "outside", "missing-key", "not-a-dict"]


@st.composite
def json_inputs(draw):
    """Array JSON over 1 to 3 factors, valid or with a few faults planted in
    random cells (so that the first bad cell in file order must win), now and
    then with bad dimensions or a cells field that is no list."""
    orders = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3))
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    coords = st.tuples(*(st.integers(0, o - 1) for o in orders)).map(list)
    positions = draw(st.lists(st.tuples(st.integers(1, m), st.integers(1, n)),
                              unique=True, min_size=1, max_size=8))
    cells = [{"r": r, "c": c, "v": draw(coords)} for r, c in positions]
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        i = draw(st.integers(0, len(cells) - 1))
        if not isinstance(cells[i], dict) or not isinstance(cells[i].get("v"), list):
            continue  # already broken beyond what this fault needs
        cell = cells[i] = dict(cells[i])
        if kind in ("bad-r", "bad-c"):
            cell[kind[-1]] = draw(NOT_INTS)
        elif kind == "bad-coordinate":
            cell["v"] = [*cell["v"][:-1], draw(NOT_INTS)]
        elif kind == "v-not-list":
            cell["v"] = draw(st.sampled_from([3, "1", None, (1,), {"0": 1}]))
        elif kind == "coordinate-count":
            cell["v"] = cell["v"][:-1] if draw(st.booleans()) else [*cell["v"], 0]
        elif kind == "non-canonical" and cell["v"]:
            j = draw(st.integers(0, min(len(orders), len(cell["v"])) - 1))
            cell["v"] = list(cell["v"])
            cell["v"][j] = draw(st.sampled_from([-1, orders[j], orders[j] + 7]))
        elif kind == "duplicate":
            cells.insert(draw(st.integers(i + 1, len(cells))), {**cell, "v": draw(coords)})
        elif kind == "outside":
            cell[draw(st.sampled_from("rc"))] = draw(st.sampled_from([0, -1, m + 1, n + 1]))
        elif kind == "missing-key":
            cell.pop(draw(st.sampled_from("rcv")), None)
        elif kind == "not-a-dict":
            cells[i] = draw(st.sampled_from([[1, 1, [0]], "r", 7, None]))
    data = {"m": m, "n": n, "group": {"orders": orders}, "cells": cells}
    bad = draw(st.sampled_from([None] * 6 + ["m", "n", "cells"]))
    if bad in ("m", "n"):
        data[bad] = draw(NOT_INTS)
    elif bad == "cells":
        data["cells"] = draw(st.sampled_from([{"r": 1}, "cells", 3, None]))
    return data


PARSE_ERRORS = (KeyError, TypeError, ValueError)  # GroupError is a ValueError


@settings(max_examples=400, deadline=None)
@given(json_inputs())
@example({"m": 2, "n": 2, "group": {"orders": [5]}, "cells": []})
@example({"m": 2, "n": 2, "group": {"orders": [5, 1]},
          "cells": [{"r": 1, "c": 1, "v": [1, 0]}, {"r": 2, "c": 1},
                    {"r": True, "c": 1, "v": [1]}]})
# the order of the faults that the bulk pass folds into one check: the cells
# first, then the dimensions as read, then the cells against them
@example({"n": 2, "group": {"orders": [5]}, "cells": [{"r": 1, "c": 1, "v": [7]}]})
@example({"n": 2, "group": {"orders": [5]}, "cells": [{"r": 1, "c": 1, "v": [1]}]})
@example({"m": 0, "n": 2, "group": {"orders": [5]}, "cells": [{"r": 3, "c": 1, "v": [1]}]})
@example({"m": 2, "n": True, "group": {"orders": [5]}, "cells": [{"r": 1, "c": 1, "v": [1]}]})
def test_json_parser_matches_cell_by_cell_reference(data):
    expected = outcome(oracle.from_json, data, errors=PARSE_ERRORS)
    assert outcome(PFArray.from_json, data, errors=PARSE_ERRORS) == expected


FIELDS = st.one_of(st.integers(-60, 60).map(str), st.sampled_from(
    ["", "", " ", " 7 ", "x", "1.5", "0x3", "+4", "1_0", "--2"]))


@st.composite
def csv_inputs(draw):
    """Grid CSV text, mostly rows of one length, and a group order."""
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(FIELDS, min_size=n, max_size=n), max_size=5))
    if rows and draw(st.integers(0, 4)) == 0:
        rows[draw(st.integers(0, len(rows) - 1))].append(draw(FIELDS))
    return "".join(",".join(fields) + "\n" for fields in rows), draw(st.integers(1, 50))


@settings(max_examples=300, deadline=None)
@given(csv_inputs())
@example(("1,,-1\n,x,\n1,2\n", 7))
@example(("1,2\n3\n,x\n", 7))
def test_csv_parser_matches_cell_by_cell_reference(case):
    text, v = case
    assert outcome(PFArray.from_csv, text, v, errors=ValueError) == outcome(
        oracle.from_csv, text, v, errors=ValueError)


# -- the makers that skip the constructor's second check ----------------


def assert_constructed(array: PFArray) -> None:
    """The array is the one the validating constructor makes from its fields,
    and its codes are kept read-only."""
    assert type(array) is PFArray and type(array.entry_codes) is MappingProxyType
    assert array == PFArray(array.m, array.n, array.spec, dict(array.entry_codes))


def test_family_members_are_what_the_constructor_makes():
    for name, n in MEMBERS:
        assert_constructed(FAMILIES[name].builder(n))
    for name in sorted(FIXTURES.glob("*.json")):
        data = json.loads(name.read_text())
        if "group" in data:
            assert_constructed(PFArray.from_json(data))
    for name in sorted(FIXTURES.glob("*.csv")):  # any v: every field is reduced mod v
        assert_constructed(PFArray.from_csv(name.read_text(), 97))


@pytest.mark.parametrize("n, procedures", [
    (0, []), (-2, [DiagSpec(1, 1, 1, 0, 0, 1)]), (-3, [DiagSpec(1, 1, 1, 1, 1, 3)]),
    (0, [DiagSpec(1, 1, 1, 1, 1, 1)]),  # checked before a cell is reduced mod n
])
def test_filler_refuses_dimensions_below_1(n, procedures):
    with pytest.raises(ValueError, match=f"^dimensions {n}x{n} are not positive$"):
        fill_diagonals(n, 7, procedures)


@st.composite
def placed_json(draw):
    """Well-formed array JSON whose dimensions may be below 1 and whose cells
    may lie outside, anywhere in file order."""
    orders = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3))
    m, n = draw(st.integers(-1, 4)), draw(st.integers(-1, 4))
    coords = st.tuples(*(st.integers(0, o - 1) for o in orders)).map(list)
    positions = draw(st.lists(st.tuples(st.integers(-1, max(m, 1) + 2),
                                        st.integers(-1, max(n, 1) + 2)),
                              unique=True, max_size=10))
    cells = [{"r": r, "c": c, "v": draw(coords)} for r, c in positions]
    return {"m": m, "n": n, "group": {"orders": orders}, "cells": cells}


@settings(max_examples=400, deadline=None)
@given(placed_json(), json_inputs(), csv_inputs(), diag_inputs())
@example({"m": 0, "n": 2, "group": {"orders": [5]}, "cells": [{"r": 1, "c": 1, "v": [1]}]},
         {"m": 2, "n": 2, "group": {"orders": [5]}, "cells": []}, ("", 3),
         (1, 1, [DiagSpec(1, 1, 0, 0, 0, 1)]))
@example({"m": 2, "n": 2, "group": {"orders": [5, 3]},
          "cells": [{"r": 1, "c": 1, "v": [1, 0]}, {"r": 2, "c": 3, "v": [4, 2]},
                    {"r": 0, "c": 1, "v": [0, 0]}]},
         {"m": 1, "n": 1, "group": {"orders": [1]}, "cells": [{"r": 1, "c": 1, "v": [0]}]},
         ("\n,\n", 1), (3, 9, [DiagSpec(-3, 5, -50, -3, 9, 5)]))
def test_fast_makers_make_what_the_constructor_makes(placed, data, csv_case, diag_case):
    """from_json, from_csv and fill_diagonals make their arrays without the
    constructor's second pass over the cells: each array is the one the
    constructor makes of its fields, and a cell outside or a dimension below 1
    raises the constructor's error, with its text, as the cell-by-cell
    reference does."""
    got = outcome(PFArray.from_json, placed, errors=PARSE_ERRORS)
    assert got == outcome(oracle.from_json, placed, errors=PARSE_ERRORS)
    for got in (got, outcome(PFArray.from_json, data, errors=PARSE_ERRORS),
                outcome(PFArray.from_csv, *csv_case, errors=ValueError),
                outcome(fill_diagonals, *diag_case)):
        if isinstance(got, PFArray):
            assert_constructed(got)


# -- the payload writer -------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(), inner) | st.dictionaries(st.integers(), inner)),
    max_leaves=25)


def dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@settings(max_examples=100, deadline=None)
@given(JSON_VALUES)
@example({"\u00e9\n\x00\x1f\u2028": [[], {}, ()], "a": {10: "\x7f\ufffd", 2: [True, None, -3]}})
@example({1: {}, "1": []})  # keys of both types: sorted() raises
def test_json_text_is_the_text_of_json_dumps(obj):
    assert outcome(json_text, obj, errors=TypeError) == outcome(dumps, obj, errors=TypeError)


def test_json_text_writes_other_leaves_as_json_dumps():
    obj = {"a": 1.5, "b": {}, "c": [0.1, None]}
    assert json_text(obj) == dumps(obj)


# -- the skeleton parser ------------------------------------------------


def skeleton_outcome(parse, data):
    got = outcome(parse, data, errors=PARSE_ERRORS)
    return (got.m, got.n, got.cells) if isinstance(got, Skeleton) else got


SKELETONS = {
    "float-m": {"m": 2.0, "n": 2, "cells": [[1, 1], [2, 2]]},
    "string-n": {"m": 2, "n": "2", "cells": [[1, 1], [2, 2]]},
    "float-r": {"m": 2, "n": 2, "cells": [[1.5, 1], [2, 2]]},
    "bool-c": {"m": 2, "n": 2, "cells": [[1, 1], [2, True]]},
    "repeated-cell": {"m": 2, "n": 2, "cells": [[1, 1], [1, 1], [2, 2], [1, 2], [2, 1]]},
    "negative-m": {"m": -1, "n": 2, "cells": []},
    "zero-n": {"m": 2, "n": 0, "cells": []},
    "outside": {"m": 2, "n": 2, "cells": [[1, 1], [2, 3]]},
    "two-outside": {"m": 2, "n": 2, "cells": [[1, 5], [5, 1]]},
    "one-coordinate": {"m": 2, "n": 2, "cells": [[1, 1], [1]]},
    "three-coordinates": {"m": 2, "n": 2, "cells": [[1, 1], [1, 2, 3]]},
    "string-cell": {"m": 2, "n": 2, "cells": [[1, 1], "ab"]},
    "valid": {"m": 2, "n": 3, "cells": [[2, 3], [1, 1]]},
    "empty": {"m": 2, "n": 3, "cells": []},
}


@pytest.mark.parametrize("case", sorted(SKELETONS))
def test_skeleton_parser_matches_cell_by_cell_reference(case):
    data = SKELETONS[case]
    expected = skeleton_outcome(oracle.skeleton_from_json, data)
    assert skeleton_outcome(Skeleton.from_json, data) == expected
    assert (type(expected[0]) is int) == (case in ("valid", "empty"))
