"""Reference versions of the Knight's Tour machinery.

``knight_search`` and ``search_lift_shape`` enumerate orientations in
lexicographic order (+1 before -1) with ``itertools.product`` and test each one
by walking its orbit on cell successor maps. Each line's forward and backward
successor maps are read off the sorted cells once per skeleton, and each
orientation's move is composed from them. The library runs a pruned
depth-first search over the same order on its int index; the tests compare the
two on the same inputs.

``lift_solution`` checks both orientations with ``knight_tour``,
``compose_orderings`` reads the compatibility condition straight off cell
orderings, and ``validate`` checks that an ordering permutes the filled cells
of each line. ``knight_step`` is one move of the map on cell successor maps,
``partial_sums`` the running sums of a line of elements, and
``nine_diagonal_skeleton`` the skeleton that the library's closed-form
``nine_diagonal_orientation`` solves. ``cycle_of`` is the seen-set walk of a
map's cycle, independent of the library's counted ``orbit``.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Sequence

from group_oracle import GroupElement, zero
from relheffter.orderings import (
    ArrayLike,
    LiftSpec,
    Ordering,
    Orientation,
    knight_tour,
    orientation_to_orderings,
    skeleton_parity_ok,
)
from relheffter.pfarray import Cell, PFArray, Skeleton, skeleton_from_diagonals, skeleton_of


def cycle_of(step: Callable, start) -> list:
    """The cycle of the permutation step through start, beginning at start;
    ValueError when the walk from start runs into a cycle without start."""
    out = [start]
    seen = {start}
    cur = step(start)
    while cur != start:
        if cur in seen:
            raise ValueError(f"{start!r} lies on no cycle: the map is not a permutation")
        out.append(cur)
        seen.add(cur)
        cur = step(cur)
    return out


def lines(skel: Skeleton) -> tuple[dict[int, list[Cell]], dict[int, list[Cell]]]:
    """The cells of each nonempty row (left to right) and column (top to bottom)."""
    rows: dict[int, list[Cell]] = {}
    cols: dict[int, list[Cell]] = {}
    for cell in sorted(skel.cells):
        rows.setdefault(cell[0], []).append(cell)
        cols.setdefault(cell[1], []).append(cell)
    return rows, cols


def tour_test(skel: Skeleton) -> Callable[[Orientation], bool]:
    """Whether an orientation solves the skeleton: its orbit from the least cell
    covers every cell. The successor maps of each line for sign +1 and -1 are
    built here once; a call composes, at each cell, the maps its row's and
    column's signs pick."""
    def successors(line: list[Cell]) -> dict[int, dict[Cell, Cell]]:
        return {1: dict(zip(line, line[1:] + line[:1])), -1: dict(zip(line, line[-1:] + line[:-1]))}

    rows, cols = ({i: successors(line) for i, line in part.items()} for part in lines(skel))
    start, size = min(skel.cells), len(skel.cells)

    def solves(o: Orientation) -> bool:
        cell, length = start, 0
        while True:
            cell = rows[cell[0]][o.r[cell[0] - 1]][cell]
            cell = cols[cell[1]][o.c[cell[1] - 1]][cell]
            length += 1
            if cell == start:
                return length == size

    return solves


def knight_search(skel: Skeleton, parity_prefilter: bool = True) -> Orientation | None:
    """The first solution with r_1 = +1 over r_2..r_m, c_1..c_n, or None."""
    if not skel.cells:
        raise ValueError("empty array")
    if parity_prefilter and not skeleton_parity_ok(skel):
        return None
    m, n = skel.m, skel.n
    solves = tour_test(skel)
    for rest in product((1, -1), repeat=m + n - 1):
        o = Orientation((1,) + rest[: m - 1], rest[m - 1:])
        if solves(o):
            return o
    return None


def search_lift_shape(spec: LiftSpec, n: int) -> Orientation | None:
    """The first solution with all rows +1, a free column prefix of length
    n - l_k + 1 and +1 after it, or None."""
    free = n - spec.diagonal_indices[-1] + 1
    solves = tour_test(spec.skeleton(n))
    for prefix in product((1, -1), repeat=free):
        o = Orientation((1,) * n, prefix + (1,) * (n - free))
        if solves(o):
            return o
    return None


def lift_solution(spec: LiftSpec, n: int, o: Orientation) -> Orientation:
    """The lifted orientation, each of the two orientations walked with knight_tour."""
    skel = spec.skeleton(n)
    keep = n - spec.diagonal_indices[-1] + 1
    if o.r != (1,) * n or len(o.c) != n or any(x != 1 for x in o.c[keep:]):
        raise ValueError("orientation does not have the liftable shape")
    if not knight_tour(skel, o, min(skel.cells))[1]:
        raise ValueError("input orientation is not a solution")
    big = n + spec.M
    lifted = Orientation((1,) * big, o.c[:keep] + (1,) * (big - keep))
    big_skel = spec.skeleton(big)
    if not knight_tour(big_skel, lifted, min(big_skel.cells))[1]:
        raise ValueError("lifted orientation failed verification")
    return lifted


def compose_orderings(
    array: PFArray | Skeleton, ordering: Ordering
) -> tuple[dict[Cell, Cell], bool]:
    """The cell permutation 'row successor then column successor', and whether it
    is a single cycle through every filled cell (the compatibility condition)."""
    validate(ordering, array)  # so the rows' successor map has every filled cell as a key
    row_next, col_next = ordering.successors()
    perm = {cell: col_next[nxt] for cell, nxt in row_next.items()}
    return perm, bool(perm) and len(cycle_of(perm.__getitem__, min(perm))) == len(perm)


def validate(ordering: Ordering, array: PFArray | Skeleton) -> None:
    """Raise ValueError unless the ordering lists each nonempty row's and
    column's filled cells, each once, and no other line."""
    rows, cols = lines(skeleton_of(array))
    for name, orders, cells in (("row", ordering.row_orders, rows),
                                ("column", ordering.col_orders, cols)):
        for i, line in orders.items():
            if sorted(line) != cells.get(i, []):
                raise ValueError(f"{name} {i} ordering is not a permutation of its filled cells")
        if orders.keys() != cells.keys():
            raise ValueError("ordering does not cover exactly the nonempty rows/columns")


def partial_sums(seq: Sequence[GroupElement]) -> list[GroupElement]:
    """The running sums (s_1, ..., s_k) of a nonempty sequence."""
    if not seq:
        raise ValueError("partial sums of an empty sequence")
    sums = []
    total = zero(seq[0].spec)
    for e in seq:
        total = total + e
        sums.append(total)
    return sums


def knight_step(array: ArrayLike, o: Orientation, cell: Cell) -> Cell:
    """One move: along the row to the next filled cell per r_i, then along that
    column to the next filled cell per c_j (both cyclic on the torus)."""
    skel = skeleton_of(array)
    if cell not in skel.cells:
        raise ValueError(f"cell {cell} is empty")
    row_next, col_next = orientation_to_orderings(skel, o).successors()
    return col_next[row_next[cell]]


def nine_diagonal_skeleton(n: int) -> Skeleton:
    """The 9-diagonal skeleton D_1..D_7, D_{r+7}, D_{r+8} with r = (n - 7)/2."""
    if n < 21 or n % 14 != 7:
        raise ValueError(f"n must be 7 (mod 14) and >= 21, got {n}")
    r = (n - 7) // 2
    return skeleton_from_diagonals(n, list(range(1, 8)) + [r + 7, r + 8])
