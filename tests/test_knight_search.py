"""The pruned Knight searches and the tour walker against the references in
knight_oracle and the cell-level knight_tour."""

from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

import knight_oracle as oracle
from relheffter.orderings import (
    LiftSpec,
    Orientation,
    knight_search,
    knight_tour,
    knight_walk,
    lift_solution,
    search_lift_shape,
)
from relheffter.pfarray import Skeleton

# A connected 9x9 skeleton (23 cells, parity met) with no solution: the
# exhaustive search walks all 2^17 orientations.
UNSOLVABLE_9X9 = Skeleton(9, 9, frozenset({
    (1, 7), (1, 8), (1, 9), (2, 6), (3, 3), (3, 5), (3, 6), (3, 9), (4, 1), (4, 2),
    (4, 7), (4, 8), (5, 3), (5, 9), (6, 3), (6, 4), (6, 7), (7, 3), (7, 5), (7, 6),
    (8, 1), (9, 3), (9, 7),
}))


def strings(o):
    return None if o is None else o.to_strings()


@st.composite
def skeletons(draw):
    """m + n <= 16; rows and columns may be empty."""
    m = draw(st.integers(1, 15))
    n = draw(st.integers(1, 16 - m))
    cells = draw(st.sets(st.tuples(st.integers(1, m), st.integers(1, n)),
                         min_size=1, max_size=m * n))
    return Skeleton(m, n, frozenset(cells))


@given(skeletons())
@example(Skeleton(3, 3, frozenset({(1, 1), (1, 2), (2, 1), (2, 2), (3, 3)})))
@example(Skeleton(4, 3, frozenset({(1, 1), (1, 3), (3, 1), (3, 3), (3, 2)})))
@settings(max_examples=100, deadline=None)
def test_knight_search_matches_exhaustive(skel):
    # the exhaustive search gives the same answer with and without the parity
    # filter, so a skeleton the filter rejects has no solution
    answer = strings(knight_search(skel))
    assert answer == strings(oracle.knight_search(skel, parity_prefilter=True))
    assert answer == strings(oracle.knight_search(skel, parity_prefilter=False))
    # the oracle's tour test against the cell-level walk
    if answer is not None:
        assert knight_tour(skel, Orientation.from_strings(*answer), min(skel.cells))[1]


def test_unsolvable_9x9_matches_exhaustive():
    assert knight_search(UNSOLVABLE_9X9) is None
    assert oracle.knight_search(UNSOLVABLE_9X9) is None


@pytest.mark.parametrize("indices, sizes, solvable", [
    ((2, 3, 4), range(5, 8), True),
    # the window n = 9..23; the oracle takes seconds to exhaust n = 20 and 22
    ((1, 2, 3, 4, 6, 7, 8), [*range(9, 20), 21, 23], True),
    # 4n cells against 2n - 1: no size of the window has a solution
    ((1, 2, 3, 4), range(5, 9), False),
])
def test_search_lift_shape_matches_exhaustive(indices, sizes, solvable):
    spec = LiftSpec(indices)
    answers = {n: strings(search_lift_shape(spec, n)) for n in sizes}
    assert answers == {n: strings(oracle.search_lift_shape(spec, n)) for n in sizes}
    assert any(answers.values()) == solvable


def test_search_lift_shape_skips_sizes_that_fail_parity(monkeypatch):
    spec = LiftSpec((2, 3, 4))  # 3n cells against 2n - 1: every even size fails parity
    odd = [5, 7, 9]
    assert {n: strings(search_lift_shape(spec, n)) for n in odd} == {
        n: strings(oracle.search_lift_shape(spec, n)) for n in odd}

    def refuse(*args):
        raise AssertionError("searched a size that fails parity")

    # the search reads the skeleton's step tables first, after the parity check
    monkeypatch.setattr(Skeleton, "steps", property(refuse))
    for n in (6, 8, 10):
        assert search_lift_shape(spec, n) is None
        assert oracle.search_lift_shape(spec, n) is None


def orientations(m, n):
    return [Orientation(signs[:m], signs[m:]) for signs in product((1, -1), repeat=m + n)]


@given(skeletons(), st.data())
@example(Skeleton(3, 4, frozenset({(1, 1), (1, 4), (3, 1), (3, 2), (3, 4)})), None)
@settings(max_examples=100, deadline=None)
def test_knight_walk_matches_knight_tour(skel, data):
    # every orientation of the small skeletons, a sample of the larger ones
    if skel.m + skel.n <= 8:
        cases = orientations(skel.m, skel.n)
    else:
        signs = st.tuples(*[st.sampled_from((1, -1))] * (skel.m + skel.n))
        cases = [Orientation(s[:skel.m], s[skel.m:])
                 for s in data.draw(st.lists(signs, min_size=1, max_size=20))]
    start = min(skel.cells)
    for o in cases:
        assert knight_walk(skel, o) == knight_tour(skel, o, start)


def test_knight_walk_rejects_an_empty_skeleton():
    with pytest.raises(ValueError, match="empty array"):
        knight_walk(Skeleton(2, 2, frozenset()), Orientation((1, 1), (1, 1)))


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("indices, sizes", [
    ((2, 3, 4), range(5, 10)),
    ((1, 2, 3, 4, 6, 7, 8), range(9, 15)),
])
def test_lift_solution_matches_the_tour_reference(indices, sizes):
    # every liftable orientation of each window size, solutions or not, and
    # orientations of the wrong shape: the same lift or the same ValueError
    spec = LiftSpec(indices)
    lifted, errors = 0, set()
    for n in sizes:
        free = n - indices[-1] + 1
        cases = [Orientation((1,) * n, prefix + (1,) * (n - free))
                 for prefix in product((1, -1), repeat=free)]
        cases += [Orientation((-1,) + (1,) * (n - 1), (1,) * n),
                  Orientation((1,) * n, (1,) * (n - 1) + (-1,))]
        big = spec.skeleton(n + spec.M)
        for o in cases:
            answer = outcome(lift_solution, spec, n, o)
            assert answer == outcome(oracle.lift_solution, spec, n, o)
            if isinstance(answer, Orientation):
                lifted += 1
                assert knight_tour(big, answer, min(big.cells))[1]
            else:
                errors.add(answer[1])
    assert lifted  # the windows have solutions to lift
    assert errors == {"orientation does not have the liftable shape",
                      "input orientation is not a solution"}
