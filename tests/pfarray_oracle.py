"""Reference implementations of the pfarray fast paths.

``element`` is the GroupElement with given coordinates, each reduced mod its
order, ``from_elements`` the array with given GroupElement entries and
``entries`` an array's entries as GroupElements: the library builds and
stores arrays as int codes only, so tests that write or read entries as
objects convert them here. ``diag`` is the diag procedure as a step that
copies the whole array and validates it again, and ``fill_chain`` applies it
once per procedure to an empty n x n array over Z_v, as the family builders
once did. ``classify_diagonals`` tests every cell of every diagonal, O(n^2).
``json_text`` is the stdlib encoder's text, which ``PFArray.to_json_text``
writes directly, and ``to_csv`` fills an m x n grid of empty fields, where
``PFArray.to_csv`` writes only the runs of commas between the filled ones.
``direct_sum``, ``cyclic_row_shift`` and ``build_B`` (the four-cell gadget
B_{m,n,d}(i1, i2; j1, j2)) work on ``GroupElement`` entries; chained by
``archdeacon_composite``, they are the reference for the library's one-pass
``build_archdeacon_composite``. ``from_json`` and ``from_csv`` parse one cell
at a time, where the library checks all cells at once and scans them only to
name the first bad one; ``checked`` is the constructor's range check they end
with. ``skeleton_from_json`` parses skeleton cells one at a time and checks
their range one at a time, as ``Skeleton.from_json`` does; it pins the errors
that a bulk skeleton parser would have to keep. The library's one-pass filler,
linear classification, writer, code-level builders and bulk parsers are
compared with these on the same inputs. ``diagonal_index`` is the inverse of
``diagonal_cells``, which the library needs only one way, and
``strip_widths`` the widths of the strips of empty diagonals.
"""

from __future__ import annotations

import json
from typing import Mapping

from group_oracle import GroupElement, decode, encode, zero
from relheffter.group import GroupError, GroupSpec
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


def element(spec: GroupSpec, *coords: int) -> GroupElement:
    return GroupElement(spec, tuple(c % o for c, o in zip(coords, spec.orders)))


def from_elements(m: int, n: int, spec: GroupSpec,
                  entries: Mapping[Cell, GroupElement]) -> PFArray:
    """The array with these entries, each encoded once; GroupError for an entry
    of another group."""
    return PFArray(m, n, spec, {cell: encode(spec, e) for cell, e in entries.items()})


_decoded: list = [None, {}]  # the last array decoded and its entries


def entries(array: PFArray) -> dict[Cell, GroupElement]:
    """Each filled cell's entry as a GroupElement, in a new dict. The verifier
    oracles read every line of one array in turn, so the last array's entries
    are decoded once and copied."""
    if _decoded[0] is not array:
        _decoded[:] = array, {cell: decode(array.spec, x) for cell, x in array.entry_codes.items()}
    return dict(_decoded[1])


def diag(array: PFArray, d: DiagSpec) -> PFArray:
    n = array.n
    new = {}
    for i in range(d.length):
        cell = ((d.r + i * d.d1 - 1) % n + 1, (d.c + i * d.d1 - 1) % n + 1)
        if cell in new:
            raise ConstructionError(f"diag self-collision at {cell}")
        new[cell] = element(array.spec, d.s + i * d.d2)
    merged = entries(array)
    for cell, e in new.items():
        if cell in merged:
            raise ConstructionError(f"cell {cell} already filled")
        merged[cell] = e
    return from_elements(array.m, array.n, array.spec, merged)


def fill_chain(n: int, v: int, procedures: list[DiagSpec]) -> PFArray:
    array = PFArray(n, n, GroupSpec.cyclic(v), {})
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
    skel = array.cells if isinstance(array, Skeleton) else frozenset(array.entry_codes)
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
    """The direct sum over G1 + G2: union skeleton, zero-padded coordinates."""
    if (a.m, a.n) != (b.m, b.n):
        raise ValueError(f"dimension mismatch: {a.m}x{a.n} vs {b.m}x{b.n}")
    spec = GroupSpec(a.spec.orders + b.spec.orders)
    ea, eb = entries(a), entries(b)
    return from_elements(a.m, a.n, spec, {
        cell: GroupElement(spec, ea.get(cell, zero(a.spec)).coords
                           + eb.get(cell, zero(b.spec)).coords)
        for cell in ea.keys() | eb.keys()
    })


def cyclic_row_shift(array: PFArray, shift: int) -> PFArray:
    """Move row r to row r+shift (mod n); maps diagonal D_i to D_{i+shift}."""
    if array.m != array.n:
        raise ValueError("cyclic row shift requires a square array")
    n = array.n
    return from_elements(array.m, n, array.spec, {
        ((r + shift - 1) % n + 1, c): e for (r, c), e in entries(array).items()
    })


def build_B(m: int, n: int, d: int, i1: int, i2: int, j1: int, j2: int) -> PFArray:
    """The four-cell gadget B_{m,n,d}(i1, i2; j1, j2) over Z_d with entries +-1."""
    if d <= 2:
        raise ValueError(f"d must be > 2, got {d}")
    if i1 == i2 or not (1 <= i1 <= m and 1 <= i2 <= m):
        raise ValueError(f"need distinct row indices in [1, {m}], got {i1}, {i2}")
    if j1 == j2 or not (1 <= j1 <= n and 1 <= j2 <= n):
        raise ValueError(f"need distinct column indices in [1, {n}], got {j1}, {j2}")
    spec = GroupSpec.cyclic(d)
    one, minus_one = element(spec, 1), element(spec, -1)
    return from_elements(m, n, spec, {(i1, j1): one, (i2, j2): one,
                                      (i2, j1): minus_one, (i1, j2): minus_one})


def relabel_to_leading_diagonals(array: PFArray) -> PFArray:
    """Cyclically shift rows so the k consecutive filled diagonals become D_1..D_k."""
    report = classify_diagonals(array)
    if not report.is_cyclically_k_diagonal:
        raise ValueError("input is not cyclically k-diagonal")
    (run,) = cyclic_runs(report.filled_diagonal_indices, array.n)
    return cyclic_row_shift(array, 1 - run[0])


def archdeacon_composite(array: PFArray, d: int) -> PFArray:
    """A (+) B_{n,n,d}(1,2;1,2) by the chain: the rows shifted so that the
    filled diagonals are D_1..D_k, the gadget, and the direct sum; k < n."""
    relabeled = relabel_to_leading_diagonals(array)
    if len(classify_diagonals(array).filled_diagonal_indices) >= array.n:
        raise ValueError("need k < n")
    return direct_sum(relabeled, build_B(array.n, array.n, d, 1, 2, 1, 2))


def _int(value: object, name: str) -> int:
    if type(value) is not int:
        raise ValueError(f"{name} {value!r} is not an integer")
    return value


def _list(value: object, name: str) -> list:
    if type(value) is not list:
        raise ValueError(f"{name} {value!r} is not a list")
    return value


def checked(m: int, n: int, spec: GroupSpec, codes: Mapping) -> PFArray:
    """The array with these entry codes, after the dimension check and the
    cell and code range checks, in the constructor's order."""
    if m < 1 or n < 1:
        raise ValueError(f"dimensions {m}x{n} are not positive")
    size = spec.size
    for (r, c), x in codes.items():
        if not (1 <= r <= m and 1 <= c <= n):
            raise ValueError(f"cell {(r, c)} outside {m}x{n}")
        if not 0 <= x < size:
            raise GroupError(f"entry code {x} at {(r, c)} is not an element of {spec.orders}")
    return PFArray(m, n, spec, codes)


def from_json(data: dict) -> PFArray:
    spec = GroupSpec.from_json(data["group"])
    code = spec.codes.code
    codes: dict = {}
    for cell in _list(data["cells"], "cells"):
        if type(cell) is not dict:
            raise ValueError(f"cell {cell!r} is not an object")
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
    for cell in _list(data["cells"], "cells"):
        if type(cell) is not list or len(cell) != 2:
            raise ValueError(f"cell {cell!r} is not an [r, c] pair")
        cell = (_int(cell[0], "r"), _int(cell[1], "c"))
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
