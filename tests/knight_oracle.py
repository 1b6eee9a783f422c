"""Reference versions of the Knight's Tour machinery.

``knight_search`` and ``search_lift_shape`` enumerate orientations in
lexicographic order (+1 before -1) with ``itertools.product`` and test each one
by walking its orbit with the slow ``knight_tour``. The library runs a pruned
depth-first search over the same order; the tests compare the two on the same
inputs.

``lift_solution`` checks both orientations with ``knight_tour``, and
``compose_orderings`` reads the compatibility condition straight off cell
orderings.
"""

from __future__ import annotations

from itertools import product

from relheffter.heffter import skeleton_parity_ok
from relheffter.orderings import (
    LiftSpec,
    Ordering,
    Orientation,
    has_lift_shape,
    knight_tour,
    orbit,
)
from relheffter.pfarray import Cell, PFArray, Skeleton


def knight_search(skel: Skeleton, parity_prefilter: bool = True) -> Orientation | None:
    """The first solution with r_1 = +1 over r_2..r_m, c_1..c_n, or None."""
    if not skel.cells:
        raise ValueError("empty array")
    if parity_prefilter and not skeleton_parity_ok(skel):
        return None
    m, n = skel.m, skel.n
    start = min(skel.cells)
    for rest in product((1, -1), repeat=m + n - 1):
        o = Orientation((1,) + rest[: m - 1], rest[m - 1:])
        if knight_tour(skel, o, start)[1]:
            return o
    return None


def search_lift_shape(spec: LiftSpec, n: int) -> Orientation | None:
    """The first solution with all rows +1, a free column prefix of length
    n - l_k + 1 and +1 after it, or None."""
    skel = spec.skeleton(n)
    free = n - spec.diagonal_indices[-1] + 1
    start = min(skel.cells)
    for prefix in product((1, -1), repeat=free):
        o = Orientation((1,) * n, prefix + (1,) * (n - free))
        if knight_tour(skel, o, start)[1]:
            return o
    return None


def lift_solution(spec: LiftSpec, n: int, o: Orientation) -> Orientation:
    """The lifted orientation, each of the two orientations walked with knight_tour."""
    if not has_lift_shape(spec, n, o):
        raise ValueError("orientation does not have the liftable shape")
    skel = spec.skeleton(n)
    if not knight_tour(skel, o, min(skel.cells))[1]:
        raise ValueError("input orientation is not a solution")
    big = n + spec.M
    keep = n - spec.diagonal_indices[-1] + 1
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
    ordering.validate(array)  # so the rows' successor map has every filled cell as a key
    row_next, col_next = ordering.successors()
    perm = {cell: col_next[nxt] for cell, nxt in row_next.items()}
    return perm, bool(perm) and len(orbit(perm.__getitem__, min(perm))) == len(perm)
