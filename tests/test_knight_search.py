"""The pruned Knight searches against the exhaustive reference in knight_oracle."""

import pytest
from hypothesis import example, given, settings, strategies as st

import knight_oracle as oracle
from relheffter import orderings
from relheffter.orderings import LiftSpec, knight_search, search_lift_shape
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

    monkeypatch.setattr(orderings, "_least_orientation", refuse)
    for n in (6, 8, 10):
        assert search_lift_shape(spec, n) is None
        assert oracle.search_lift_shape(spec, n) is None
