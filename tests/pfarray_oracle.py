"""Reference implementations of the pfarray fast paths.

``diag`` is the diag procedure as a step that copies the whole array and
validates it again, and ``fill_chain`` applies it once per procedure, as the
family builders once did. ``classify_diagonals`` tests every cell of every
diagonal, O(n^2). ``json_text`` is the stdlib encoder's text, which
``PFArray.to_json_text`` writes directly. ``direct_sum`` and
``cyclic_row_shift`` work on ``GroupElement`` entries, where the library
works on int codes. The library's one-pass filler, linear classification,
writer and code-level builders are compared with these on the same inputs.
"""

from __future__ import annotations

import json

from relheffter.group import GroupElement, GroupSpec
from relheffter.pfarray import (
    ConstructionError,
    DiagonalReport,
    DiagSpec,
    PFArray,
    Skeleton,
    cyclic_runs,
    diagonal_cells,
)


def diag(array: PFArray, d: DiagSpec) -> PFArray:
    if array.m != array.n:
        raise ConstructionError("diag requires a square array")
    if not array.spec.is_cyclic_single:
        raise ConstructionError("diag requires a single-factor group")
    n = array.n
    new = {}
    for i in range(d.length):
        cell = ((d.r + i * d.d1 - 1) % n + 1, (d.c + i * d.d1 - 1) % n + 1)
        if cell in new:
            raise ConstructionError(f"diag self-collision at {cell}")
        new[cell] = array.spec.element(d.s + i * d.d2)
    merged = dict(array.entries)
    for cell, e in new.items():
        if cell in merged:
            raise ConstructionError(f"cell {cell} already filled")
        merged[cell] = e
    return PFArray(array.m, array.n, array.spec, merged)


def fill_chain(array: PFArray, procedures: list[DiagSpec]) -> PFArray:
    for d in procedures:
        array = diag(array, d)
    return array


def classify_diagonals(array: PFArray | Skeleton) -> DiagonalReport:
    if array.m != array.n:
        raise ValueError("diagonal classification requires a square array")
    n = array.n
    skel = array.cells if isinstance(array, Skeleton) else frozenset(array.entries)
    filled = frozenset(
        i for i in range(1, n + 1) if all(c in skel for c in diagonal_cells(n, i))
    )
    union = set()
    for i in filled:
        union.update(diagonal_cells(n, i))
    is_k_diagonal = bool(filled) and union == set(skel)
    strips = cyclic_runs(set(range(1, n + 1)) - filled, n) if filled else []
    cyclic = is_k_diagonal and len(strips) <= 1
    widths = tuple(sorted(len(r) for r in strips))
    uniform = widths[0] if widths and len(set(widths)) == 1 else None
    return DiagonalReport(filled, is_k_diagonal, cyclic, widths, uniform)


def json_text(array: PFArray) -> str:
    return json.dumps(array.to_json(), indent=2, sort_keys=True) + "\n"


def direct_sum(a: PFArray, b: PFArray) -> PFArray:
    spec = GroupSpec(a.spec.orders + b.spec.orders)
    zero_a, zero_b = a.spec.identity, b.spec.identity
    return PFArray(a.m, a.n, spec, {
        cell: GroupElement(spec, a.entries.get(cell, zero_a).coords
                           + b.entries.get(cell, zero_b).coords)
        for cell in set(a.entries) | set(b.entries)
    })


def cyclic_row_shift(array: PFArray, shift: int) -> PFArray:
    n = array.n
    return PFArray(array.m, n, array.spec, {
        ((r + shift - 1) % n + 1, c): e for (r, c), e in array.entries.items()
    })
