"""Orderings, partial sums, and the Crazy Knight's Tour machinery."""

import pytest
from hypothesis import given, settings, strategies as st

import heffter_oracle
from heffter_oracle import symmetric_rep
from knight_oracle import (
    compose_orderings,
    cycle_of,
    knight_step,
    nine_diagonal_skeleton,
    partial_sums,
    validate,
)

from relheffter import orderings
from relheffter.constructions import build_h7, build_h9, build_h_n_3, build_skeleton_cor39
from relheffter.group import GroupSpec
from relheffter.orderings import (
    LiftSpec,
    Orientation,
    _simple_lines,
    is_globally_simple,
    knight_search,
    knight_tour,
    nine_diagonal_orientation,
    lift_solution,
    orientation_to_orderings,
    search_lift_shape,
)
from relheffter.pfarray import Skeleton


def test_partial_sums_frozen_values():
    # first row of the 11x11 7-per-row construction, natural order
    sums = partial_sums(heffter_oracle.row(build_h7(11), 1))
    # integer running sums are 11, -54, -34, 43, 83, 52, 0; 83 = -78 mod 161
    assert [symmetric_rep(s) for s in sums] == [11, -54, -34, 43, -78, 52, 0]


def test_is_simple():
    z21, z10 = GroupSpec.cyclic(21).codes, GroupSpec.cyclic(10).codes  # codes are residues
    assert _simple_lines(z21, [[1, 2, 3]])
    assert not _simple_lines(z21, [[1, 2, 19]])   # 1, 2, -2: s1 = s3
    assert not _simple_lines(z10, [[1, 4, 6]])    # sums 1, 5, 1 mod 10
    with pytest.raises(ValueError):
        partial_sums([])


def test_is_globally_simple_constructions():
    assert is_globally_simple(build_h7(7))
    assert is_globally_simple(build_h9(11))


def test_natural_ordering_and_validate():
    a = build_h_n_3(3)
    ordering = orientation_to_orderings(a, Orientation((1,) * a.m, (1,) * a.n))
    validate(ordering, a)
    assert ordering.row_orders[1] == tuple(sorted(c for c in a.entry_codes if c[0] == 1))


def test_orientation_strings_round_trip():
    o = Orientation((1, -1, 1), (1, 1, -1, -1))
    assert o.to_strings() == ("+-+", "++--")
    assert Orientation.from_strings("+-+", "++--") == o
    assert Orientation(tuple(-x for x in o.r), tuple(-x for x in o.c)).to_strings() == ("-+-", "--++")
    with pytest.raises(ValueError):
        Orientation((1, 0), (1,))


def test_orbit_walks_a_mapping_or_a_list():
    assert orderings.orbit({0: 1, 1: 2, 2: 0}, 1) == [1, 2, 0]
    assert orderings.orbit([1, 0, 3, 2], 2) == [2, 3]
    assert orderings.orbit([0], 0) == [0]


def test_orbit_refuses_a_map_that_is_no_permutation_without_hanging():
    # 0 leads into the cycle (1 2), which never returns to 0
    with pytest.raises(ValueError) as exc:
        orderings.orbit({0: 1, 1: 2, 2: 1}, 0)
    assert str(exc.value) == "0 lies on no cycle: the map is not a permutation"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 7), min_size=1, max_size=8), st.data())
def test_orbit_matches_the_seen_set_walk_on_any_map(images, data):
    # any map of 0..len-1 into itself, a permutation or not
    succ = [x % len(images) for x in images]
    start = data.draw(st.integers(0, len(succ) - 1))
    try:
        expected = cycle_of(succ.__getitem__, start)
    except ValueError as exc:
        expected = str(exc)
    try:
        assert orderings.orbit(succ, start) == expected
    except ValueError as exc:
        assert str(exc) == expected


def test_compose_orderings_compatibility():
    a = build_h_n_3(3)
    good = orientation_to_orderings(a, Orientation((1, 1, 1), (1, 1, -1)))
    perm, compatible = compose_orderings(a, good)
    assert compatible and len(perm) == 9
    bad = orientation_to_orderings(a, Orientation((1,) * a.m, (1,) * a.n))
    _, compatible = compose_orderings(a, bad)
    assert not compatible


def test_knight_step_example():
    # full 3x3, all-plus orientation: from (1,1) along row 1 to (1,2), then down
    # column 2 to (2,2)
    skel = Skeleton(3, 3, frozenset((r, c) for r in range(1, 4) for c in range(1, 4)))
    o = Orientation((1, 1, 1), (1, 1, 1))
    assert knight_step(skel, o, (1, 1)) == (2, 2)
    assert knight_step(skel, o, (3, 3)) == (1, 1)
    with pytest.raises(ValueError):
        knight_step(Skeleton(3, 3, frozenset({(1, 1)})), o, (2, 2))


def test_knight_tour_rejects_an_empty_start_cell():
    skel = Skeleton(2, 2, frozenset({(1, 1), (2, 2)}))
    with pytest.raises(ValueError, match=r"cell \(1, 2\) is empty"):
        knight_tour(skel, Orientation((1, 1), (1, 1)), (1, 2))
    with pytest.raises(ValueError, match="empty array"):
        knight_tour(Skeleton(2, 2, frozenset()), Orientation((1, 1), (1, 1)), (1, 1))


def test_full_2x2_has_no_solution():
    skel = Skeleton(2, 2, frozenset({(1, 1), (1, 2), (2, 1), (2, 2)}))
    assert knight_search(skel) is None


def test_nine_diagonal_closed_form():
    skel = nine_diagonal_skeleton(21)
    assert len(skel.cells) == 9 * 21
    orbit, ok = knight_tour(skel, nine_diagonal_orientation(21), min(skel.cells))
    assert ok and len(orbit) == 189
    with pytest.raises(ValueError):
        nine_diagonal_skeleton(22)


def test_lift_spec_window():
    assert LiftSpec((2, 3, 4)).M == 2
    assert LiftSpec((1, 2, 3, 4, 6, 7, 8)).M == 14
    with pytest.raises(ValueError):
        LiftSpec((3, 2))
    with pytest.raises(ValueError):
        LiftSpec((2,))


def test_lift_shape_recognition():
    spec = LiftSpec((2, 3, 4))
    assert spec.lift(5, Orientation((1,) * 5, (1, -1, 1, 1, 1))) == Orientation(
        (1,) * 7, (1, -1, 1, 1, 1, 1, 1))
    for o in (Orientation((1,) * 5, (1, 1, 1, -1, 1)), Orientation((1, -1, 1, 1, 1), (1,) * 5)):
        with pytest.raises(ValueError) as exc:
            spec.lift(5, o)
        assert str(exc.value) == "orientation does not have the liftable shape"


def test_search_and_lift_k3():
    spec = LiftSpec((2, 3, 4))
    sol = search_lift_shape(spec, 5)
    assert sol is not None
    lifted = lift_solution(spec, 5, sol)
    skel7 = spec.skeleton(7)
    _, ok = knight_tour(skel7, lifted, min(skel7.cells))
    assert ok
    with pytest.raises(ValueError):
        lift_solution(spec, 5, Orientation((1,) * 5, (-1,) * 5))


def test_lift_solution_refuses_a_lift_that_is_no_solution(monkeypatch):
    spec = LiftSpec((2, 3, 4))
    sol = search_lift_shape(spec, 5)

    def failing(spec, n, o):  # a lift whose walk is no solution
        return Orientation((1,) * (n + spec.M), (-1,) * (n + spec.M))

    monkeypatch.setattr(LiftSpec, "lift", failing)
    with pytest.raises(ValueError) as exc:
        lift_solution(spec, 5, sol)
    assert str(exc.value) == "lifted orientation failed verification"


def test_leading_diagonal_family_search_k3_n5():
    skel = build_skeleton_cor39(5, 3)
    sol = knight_search(skel)
    assert sol is not None
    assert sol.to_strings() == ("+++++", "++++-")  # lexicographically least


# -- property tests ------------------------------------------------------


@st.composite
def small_skeletons(draw, max_side=5):
    m = draw(st.integers(2, max_side))
    n = draw(st.integers(2, max_side))
    cells = draw(st.sets(
        st.tuples(st.integers(1, m), st.integers(1, n)), min_size=1, max_size=16,
    ))
    return Skeleton(m, n, frozenset(cells))


@st.composite
def skeleton_and_orientation(draw):
    skel = draw(small_skeletons())
    r = tuple(draw(st.sampled_from([1, -1])) for _ in range(skel.m))
    c = tuple(draw(st.sampled_from([1, -1])) for _ in range(skel.n))
    return skel, Orientation(r, c)


@given(skeleton_and_orientation())
def test_knight_step_is_a_bijection(data):
    skel, o = data
    images = {knight_step(skel, o, cell) for cell in skel.cells}
    assert images == set(skel.cells)


@given(skeleton_and_orientation())
def test_knight_tour_start_independent(data):
    skel, o = data
    results = {knight_tour(skel, o, cell)[1] for cell in skel.cells}
    assert len(results) == 1


@given(skeleton_and_orientation())
@settings(max_examples=60)
def test_orientation_reversal_symmetry(data):
    skel, o = data
    start = min(skel.cells)
    _, ok = knight_tour(skel, o, start)
    _, ok_rev = knight_tour(skel, Orientation(tuple(-x for x in o.r), tuple(-x for x in o.c)), start)
    assert ok == ok_rev


@given(st.lists(st.integers(-40, 40).filter(bool), min_size=1, max_size=8))
def test_simplicity_invariant_under_reversal_when_sum_zero(xs):
    spec = GroupSpec.cyclic(83)
    closed = xs + [-sum(xs)]
    forward = [x % 83 for x in closed]  # the codes of Z_83 are the residues
    assert _simple_lines(spec.codes, [forward]) == _simple_lines(spec.codes, [forward[::-1]])


@given(skeleton_and_orientation())
def test_orientation_orderings_permute_cells(data):
    skel, o = data
    ordering = orientation_to_orderings(skel, o)
    validate(ordering, skel)
