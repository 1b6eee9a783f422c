"""The certificate's faces and two-colouring read off the oriented lines,
against the validating stages that trace rho0 and match rotation keys, and
its decompositions and orthogonality against the stages that develop them.

The arrays are seeded random fillings of Knight-solvable k-diagonal skeletons
(k >= 3, so every line has at least 3 cells) over Z_v and Z_a x Z_b, with
distinct entries, none 0 and none the negative of another. Their lines sum to
0 in the columns only, in the rows only, in both or in neither, so both
verdicts occur, and a rule that looks at one kind of line only is wrong on
some of them."""

import random
from functools import lru_cache

import pytest

from topology_oracle import certified, outcome, stage_by_stage
from relheffter import topology
from relheffter.group import GroupSpec
from relheffter.orderings import (
    Orientation,
    knight_search,
    orientation_to_orderings,
    oriented_lines,
)
from relheffter.pfarray import PFArray, Skeleton, skeleton_from_diagonals
from relheffter.topology import CayleyGraph, build_rho0, trace_faces, two_color_check

GROUPS = (GroupSpec.cyclic(10007), GroupSpec((1009, 9)))
MODES = ("none", "cols", "rows", "both")
SEEDS = range(32)


def solvable_skeleton(rng: random.Random) -> tuple[Skeleton, Orientation]:
    """A random k-diagonal n x n skeleton with k >= 3 that has a Knight
    solution, and its least solution."""
    while True:
        n = rng.randrange(5, 10)
        skel = skeleton_from_diagonals(n, rng.sample(range(1, n + 1), rng.randrange(3, 6)))
        solution = knight_search(skel)
        if solution is not None:
            return skel, solution


def zero_lines(skel: Skeleton, mode: str) -> list[list[int]]:
    """The lines of cell numbers (Skeleton.index) whose sums the filling sets
    to 0, in the order it sets them, each by its last cell; the other cells
    are drawn. For both kinds, the last cell of each line but the first row is
    its edge towards row 1 in a spanning tree of the row-column graph, set
    leaves first; the first row then sums to 0 as the whole array does."""
    lines = skel.index[1]
    rows, cols = lines[:skel.m], lines[skel.m:]
    if mode == "none":
        return []
    if mode in ("cols", "rows"):
        return [list(line) for line in (cols if mode == "cols" else rows)]
    line_of = [[] for _ in skel.index[0]]  # each cell's row and column
    for v, line in enumerate(lines):
        for x in line:
            line_of[x].append(v)
    parent_cell, order, seen = {}, [0], {0}
    for v in order:  # breadth first from row 1
        for x in lines[v]:
            w = next(u for u in line_of[x] if u != v)
            if w not in seen:
                seen.add(w)
                order.append(w)
                parent_cell[w] = x
    return [[*(x for x in lines[v] if x != parent_cell[v]), parent_cell[v]]
            for v in reversed(order[1:])]


def fill(rng: random.Random, skel: Skeleton, spec: GroupSpec, mode: str) -> PFArray | None:
    """The skeleton filled at random with the mode's lines summing to 0, or
    None when the draw repeats an entry up to sign or makes one 0."""
    codes = spec.codes
    cells = skel.index[0]
    value = [rng.randrange(1, spec.size) for _ in cells]
    for line in zero_lines(skel, mode):
        value[line[-1]] = codes.neg(codes.totals([[value[x] for x in line[:-1]]])[0])
    signed = set(value) | set(map(codes.neg, value))
    if 0 in signed or len(signed) != 2 * len(value):
        return None
    return PFArray(skel.m, skel.n, spec, dict(zip(cells, value)))


@lru_cache(maxsize=None)
def case(seed: int) -> tuple[PFArray, Orientation, str]:
    rng = random.Random(seed)
    mode, spec = MODES[seed % 4], GROUPS[seed // 4 % 2]
    skel, solution = solvable_skeleton(rng)
    while (array := fill(rng, skel, spec, mode)) is None:
        pass
    return array, solution, mode


def line_faces(array: PFArray, o: Orientation) -> topology.EmbeddingReport:
    """The report that certify_biembedding builds, before its developments."""
    m, lines = array.m, array.index[1]
    rows, cols = oriented_lines(lines[:m], o.r), oriented_lines(lines[m:], o.c)
    _, negs = topology._rho0(array.spec.codes, rows, cols)
    return topology._line_faces(CayleyGraph.from_entries(array), rows, cols, negs)


@lru_cache(maxsize=None)
def traced(seed: int) -> tuple[topology.EmbeddingReport, bool]:
    """The faces traced from rho0 and two_color_check's verdict on them."""
    array, solution, _ = case(seed)
    ordering = orientation_to_orderings(array, solution)
    report = trace_faces(CayleyGraph.from_entries(array), build_rho0(array, ordering))
    return report, two_color_check(report, array, ordering)


@pytest.mark.parametrize("seed", SEEDS)
def test_line_faces_match_the_traced_faces_and_the_key_matcher(seed):
    array, solution, mode = case(seed)
    expected, colorable = traced(seed)
    report = line_faces(array, solution)
    assert report.pi_cycles == expected.pi_cycles
    assert report.orders == expected.orders
    assert (report.V, report.S, report.F, report.genus) == (
        expected.V, expected.S, expected.F, expected.genus)
    assert (report.pi_colors is not None) == colorable
    assert report.pi_colors == expected.pi_colors
    assert report.to_json() == expected.to_json()
    assert colorable == (mode == "both")


def test_the_arrays_tell_one_kind_of_line_from_both():
    """The positive control: a rule that checks the column totals only, or
    the row totals only, gets some verdict wrong on these arrays."""
    def one_kind(seed: int, kind: str) -> bool:
        array = case(seed)[0]
        m, lines = array.m, array.index[1]
        lines = lines[m:] if kind == "cols" else lines[:m]
        return all(x == 0 for x in array.spec.codes.totals(lines))

    verdicts = [traced(seed)[1] for seed in SEEDS]
    assert True in verdicts and False in verdicts
    for kind in ("cols", "rows"):
        assert any(one_kind(seed, kind) != verdict for seed, verdict in zip(SEEDS, verdicts))
    assert {case(seed)[0].spec for seed in SEEDS} == set(GROUPS)


def test_zero_sum_lines_develop_exactly_and_orthogonally():
    """The theorem behind the certificate's zero-sum path, on arrays that no
    construction made: when rho0 is one cycle (a Knight solution), the lines
    are simple and every line sums to 0, develop_and_verify certifies both
    decompositions and verify_orthogonal holds. In every class, the
    certificate equals the stage chain, refusals included."""
    zero_sum = []
    for seed in SEEDS:
        array, solution, mode = case(seed)
        expected = outcome(stage_by_stage, array, solution)
        assert outcome(certified, array, solution) == expected, seed
        if all(x == 0 for x in array.spec.codes.totals(array.index[1])):
            # every line of these draws is simple, so the theorem applies
            assert not isinstance(expected, tuple), (seed, expected)
            assert expected["orthogonal"] is True
            zero_sum.append(seed)
    assert zero_sum == [seed for seed in SEEDS if MODES[seed % 4] == "both"]
