"""Exhaustive reference versions of the Knight's Tour searches.

``knight_search`` and ``search_lift_shape`` enumerate orientations in
lexicographic order (+1 before -1) with ``itertools.product`` and test each one
by walking its orbit with the slow ``knight_tour``. The library runs a pruned
depth-first search over the same order; the tests compare the two on the same
inputs.
"""

from __future__ import annotations

from itertools import product

from relheffter.heffter import skeleton_parity_ok
from relheffter.orderings import LiftSpec, Orientation, knight_tour
from relheffter.pfarray import Skeleton


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
