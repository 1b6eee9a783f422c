"""Reference implementations of the pfarray fast paths.

``diag`` is the diag procedure as a step that copies the whole array and
validates it again, and ``fill_chain`` applies it once per procedure, as the
family builders once did. ``classify_diagonals`` tests every cell of every
diagonal, O(n^2). ``json_text`` is the stdlib encoder's text, which
``PFArray.to_json_text`` writes directly, and ``to_csv`` fills an m x n
grid of empty fields, where ``PFArray.to_csv`` writes only the runs of
commas between the filled ones. ``direct_sum`` and
``cyclic_row_shift`` work on ``GroupElement`` entries, where the library
works on int codes. ``from_json`` and ``from_csv`` parse one cell at a time,
where the library checks all cells at once and scans them only to name the
first bad one; ``checked`` is the constructor's range check they end with.
``skeleton_from_json`` parses skeleton cells one at a time and checks their
range one at a time, as ``Skeleton.from_json`` does; it pins the errors that
a bulk skeleton parser would have to keep. The library's one-pass filler,
linear classification, writer, code-level builders and bulk parsers are
compared with these on the same inputs. ``diagonal_index`` is the inverse of
``diagonal_cells``, which the library needs only one way, and
``strip_widths`` the widths of the strips of empty diagonals.
"""

from __future__ import annotations

import json
from typing import Mapping

from relheffter.group import GroupElement, GroupError, GroupSpec
from relheffter.pfarray import (
    Cell,
    ConstructionError,
    DiagonalReport,
    DiagSpec,
    PFArray,
    Skeleton,
    _reduce_index,
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


def diagonal_index(cell: Cell, n: int) -> int:
    """The i such that cell lies on D_i."""
    r, c = cell
    return _reduce_index(r - c + 1, n)


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
    # the filled diagonals are consecutive mod n iff the empty ones form at
    # most one strip
    cyclic = is_k_diagonal and len(cyclic_runs(set(range(1, n + 1)) - filled, n)) <= 1
    return DiagonalReport(filled, is_k_diagonal, cyclic)


def strip_widths(report: DiagonalReport, n: int) -> tuple[int, ...]:
    """The sorted widths of the maximal cyclic runs of empty diagonals."""
    empty = set(range(1, n + 1)) - report.filled_diagonal_indices
    return tuple(sorted(map(len, cyclic_runs(empty, n))))


def json_text(array: PFArray) -> str:
    return json.dumps(array.to_json(), indent=2, sort_keys=True) + "\n"


def to_csv(array: PFArray) -> str:
    v = array.spec.orders[0]
    rows = [[""] * array.n for _ in range(array.m)]
    for (r, c), x in array.entry_codes.items():
        rows[r - 1][c - 1] = str(x - v if x > v // 2 else x)
    return "".join(",".join(fields) + "\n" for fields in rows)


def direct_sum(a: PFArray, b: PFArray) -> PFArray:
    spec = GroupSpec(a.spec.orders + b.spec.orders)
    zero_a, zero_b = a.spec.codes.decode(0), b.spec.codes.decode(0)
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


def relabel_to_leading_diagonals(array: PFArray) -> PFArray:
    """Cyclically shift rows so the k consecutive filled diagonals become D_1..D_k."""
    report = classify_diagonals(array)
    if not report.is_cyclically_k_diagonal:
        raise ValueError("array is not cyclically k-diagonal")
    (run,) = cyclic_runs(report.filled_diagonal_indices, array.n)
    return cyclic_row_shift(array, 1 - run[0])


def _int(value: object, name: str) -> int:
    if type(value) is not int:
        raise ValueError(f"{name} {value!r} is not an integer")
    return value


def checked(m: int, n: int, spec: GroupSpec, codes: Mapping) -> PFArray:
    """The array with these entry codes, after the cell and code range checks."""
    size = spec.size
    for (r, c), x in codes.items():
        if not (1 <= r <= m and 1 <= c <= n):
            raise ValueError(f"cell {(r, c)} outside {m}x{n}")
        if not 0 <= x < size:
            raise GroupError(f"entry code {x} at {(r, c)} is not an element of {spec.orders}")
    return PFArray._from_codes(m, n, spec, codes)


def from_json(data: dict) -> PFArray:
    spec = GroupSpec.from_json(data["group"])
    code = spec.codes.code
    codes: dict = {}
    for cell in data["cells"]:
        key = (_int(cell["r"], "r"), _int(cell["c"], "c"))
        coords = cell["v"]
        if not isinstance(coords, list) or not all(type(x) is int for x in coords):
            raise GroupError(f"cell {key}: coordinates {coords!r} are not a list of integers")
        if key in codes:
            raise ValueError(f"cell {key} listed twice")
        codes[key] = code(coords)
    return checked(_int(data["m"], "m"), _int(data["n"], "n"), spec, codes)


def from_csv(text: str, v: int) -> PFArray:
    spec = GroupSpec.cyclic(v)
    codes: dict = {}
    rows = [line.split(",") for line in text.splitlines()]
    if not rows:
        raise ValueError("empty CSV")
    n = len(rows[0])
    for i, fields in enumerate(rows, start=1):
        if len(fields) != n:
            raise ValueError(f"CSV row {i} has {len(fields)} fields, row 1 has {n}")
        for j, f in enumerate(fields, start=1):
            if not f or f.isspace():
                continue
            try:
                x = int(f)
            except ValueError:
                raise ValueError(f"CSV row {i}, field {j}: {f!r} is not an integer") from None
            codes[(i, j)] = x % v
    return checked(len(rows), n, spec, codes)


def skeleton_from_json(data: dict) -> tuple[int, int, frozenset]:
    """The skeleton's m, n and cells; the first cell outside is named in file order."""
    cells: list = []
    for r, c in data["cells"]:
        cell = (_int(r, "r"), _int(c, "c"))
        if cell in cells:
            raise ValueError(f"cell {cell} listed twice")
        cells.append(cell)
    m, n = _int(data["m"], "m"), _int(data["n"], "n")
    if m < 1 or n < 1:
        raise ValueError(f"dimensions {m}x{n} are not positive")
    for r, c in cells:
        if not (1 <= r <= m and 1 <= c <= n):
            raise ValueError(f"cell {(r, c)} outside {m}x{n}")
    return m, n, frozenset(cells)
