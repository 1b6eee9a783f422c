"""Partially filled arrays: skeletons, diagonals, the diag filling procedure, direct sums."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

from .group import GroupElement, GroupError, GroupSpec, symmetric_rep, symmetric_residue

Cell = tuple[int, int]  # 1-based (row, col)


class ConstructionError(ValueError):
    """A diag procedure tried to overwrite a filled cell, or targeted cells out of range."""


def _reduce_index(x: int, n: int) -> int:
    """Reduce to the residues {1, ..., n}."""
    return (x - 1) % n + 1


def _int(value: object, name: str) -> int:
    """A JSON integer field, taken as is: floats, strings and booleans are rejected."""
    if type(value) is not int:
        raise ValueError(f"{name} {value!r} is not an integer")
    return value


@dataclass(frozen=True)
class Skeleton:
    """The set of filled positions of an m x n partially filled array."""

    m: int
    n: int
    cells: frozenset[Cell]

    def __post_init__(self) -> None:
        for r, c in self.cells:
            if not (1 <= r <= self.m and 1 <= c <= self.n):
                raise ValueError(f"cell {(r, c)} outside {self.m}x{self.n}")

    @cached_property
    def lines(self) -> tuple[Mapping[int, tuple[Cell, ...]], Mapping[int, tuple[Cell, ...]]]:
        """The cells of each nonempty row (left to right) and of each nonempty
        column (top to bottom), keyed in increasing order."""
        rows: dict[int, list[Cell]] = {}
        cols: dict[int, list[Cell]] = {}
        for cell in sorted(self.cells):
            rows.setdefault(cell[0], []).append(cell)
            cols.setdefault(cell[1], []).append(cell)
        return (MappingProxyType({i: tuple(v) for i, v in rows.items()}),
                MappingProxyType({j: tuple(cols[j]) for j in sorted(cols)}))

    def to_json(self) -> dict:
        return {"m": self.m, "n": self.n, "cells": [[r, c] for r, c in sorted(self.cells)]}

    @classmethod
    def from_json(cls, data: dict) -> "Skeleton":
        """Parse the JSON skeleton format; no cell may be listed twice."""
        cells: set[Cell] = set()
        for r, c in data["cells"]:
            cell = (_int(r, "r"), _int(c, "c"))
            if cell in cells:
                raise ValueError(f"cell {cell} listed twice")
            cells.add(cell)
        return cls(_int(data["m"], "m"), _int(data["n"], "n"), frozenset(cells))


@dataclass(frozen=True)
class PFArray:
    """An m x n partially filled array over a GroupSpec; empty cells are absent keys.

    The array keeps a read-only copy of the entries it is given, so the row and
    column index it builds on first use cannot go stale."""

    m: int
    n: int
    spec: GroupSpec
    entries: Mapping[Cell, GroupElement] = field(default_factory=dict)
    _cells: dict[Cell, GroupElement] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cells = dict(self.entries)
        m, n, spec = self.m, self.n, self.spec
        for (r, c), e in cells.items():
            if not (1 <= r <= m and 1 <= c <= n):
                raise ValueError(f"cell {(r, c)} outside {m}x{n}")
            if e.spec is not spec and e.spec != spec:
                raise GroupError(f"entry at {(r, c)} belongs to a different group")
        object.__setattr__(self, "_cells", cells)
        object.__setattr__(self, "entries", MappingProxyType(cells))

    @property
    def skeleton(self) -> Skeleton:
        return Skeleton(self.m, self.n, frozenset(self.entries))

    @property
    def entry_list(self) -> list[GroupElement]:
        """E(A): the entries in row-major cell order."""
        return [self._cells[c] for c in sorted(self._cells)]

    @cached_property
    def entry_codes(self) -> dict[Cell, int]:
        """Each filled cell's entry as its int code (GroupSpec.codes), encoded once."""
        encode = self.spec.codes.encode
        return {cell: encode(e) for cell, e in self._cells.items()}

    @cached_property
    def _lines(self) -> tuple[dict[int, list[GroupElement]], dict[int, list[GroupElement]]]:
        """Entries of each nonempty row and column in natural order, from one
        pass over the cells in row-major order."""
        rows: dict[int, list[GroupElement]] = {}
        cols: dict[int, list[GroupElement]] = {}
        for cell in sorted(self._cells):
            e = self._cells[cell]
            rows.setdefault(cell[0], []).append(e)
            cols.setdefault(cell[1], []).append(e)
        return rows, cols

    def row(self, i: int) -> list[GroupElement]:
        """Entries of row i in the natural (left to right) order."""
        return list(self._lines[0].get(i, ()))

    def col(self, j: int) -> list[GroupElement]:
        """Entries of column j in the natural (top to bottom) order."""
        return list(self._lines[1].get(j, ()))

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "group": self.spec.to_json(),
            "cells": [
                {"r": r, "c": c, "v": list(self._cells[(r, c)].coords)}
                for r, c in sorted(self._cells)
            ],
        }

    def to_json_text(self) -> str:
        """The text of json.dumps(self.to_json(), indent=2, sort_keys=True) and a
        newline, written directly: the stdlib encoder falls back to pure Python
        whenever indent is set."""
        cell = '    {\n      "c": %d,\n      "r": %d,\n      "v": [\n        %s\n      ]\n    }'
        cells = ",\n".join(
            cell % (c, r, ",\n        ".join(map(str, self._cells[(r, c)].coords)))
            for r, c in sorted(self._cells)
        )
        orders = ",\n      ".join(map(str, self.spec.orders))
        return ('{\n  "cells": %s,\n  "group": {\n    "orders": [\n      %s\n    ]\n  },\n'
                '  "m": %d,\n  "n": %d\n}\n'
                % (f"[\n{cells}\n  ]" if cells else "[]", orders, self.m, self.n))

    @classmethod
    def from_json(cls, data: dict) -> "PFArray":
        """Parse the JSON array format; coordinates must be canonical residues,
        one per factor, and no cell may be listed twice."""
        spec = GroupSpec.from_json(data["group"])
        entries: dict[Cell, GroupElement] = {}
        for cell in data["cells"]:
            key = (_int(cell["r"], "r"), _int(cell["c"], "c"))
            coords = cell["v"]
            if not isinstance(coords, list) or not all(type(x) is int for x in coords):
                raise GroupError(f"cell {key}: coordinates {coords!r} are not a list of integers")
            if key in entries:
                raise ValueError(f"cell {key} listed twice")
            entries[key] = GroupElement(spec, tuple(coords))
        return cls(_int(data["m"], "m"), _int(data["n"], "n"), spec, entries)

    def to_csv(self) -> str:
        """Grid CSV with symmetric representatives; empty string for empty cells."""
        if not self.spec.is_cyclic_single:
            raise GroupError("CSV export requires a single-factor group")
        v = self.spec.orders[0]
        rows = [[""] * self.n for _ in range(self.m)]
        for (r, c), e in self._cells.items():
            rows[r - 1][c - 1] = str(symmetric_residue(e.coords[0], v))
        return "".join(",".join(fields) + "\n" for fields in rows)

    @classmethod
    def from_csv(cls, text: str, v: int) -> "PFArray":
        """Parse the grid CSV format: every row has the same number of fields,
        each empty or an integer, which is reduced mod v."""
        spec = GroupSpec.cyclic(v)
        entries: dict[Cell, GroupElement] = {}
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
                entries[(i, j)] = GroupElement(spec, (x % v,))
        return cls(len(rows), n, spec, entries)


@dataclass(frozen=True)
class DiagSpec:
    """Parameters of the diagonal filling procedure diag(r, c, s, d1, d2, length)."""

    r: int
    c: int
    s: int
    d1: int
    d2: int
    length: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("length must be >= 1")


def diag(array: PFArray, d: DiagSpec) -> PFArray:
    """Install entries s + i*d2 at cells (r + i*d1, c + i*d1), indices wrapping in 1..n."""
    return fill_diagonals(array, [d])


def fill_diagonals(array: PFArray, procedures: Iterable[DiagSpec]) -> PFArray:
    """The array after diag(array, d) for each d in turn, built as one PFArray.

    Each procedure's cells are placed, and checked against each other, before
    they are checked against the cells already filled, so a failure raises the
    ConstructionError the chain of diag calls would raise first."""
    if array.m != array.n:
        raise ConstructionError("diag requires a square array")
    if not array.spec.is_cyclic_single:
        raise ConstructionError("diag requires a single-factor group")
    n, spec = array.n, array.spec
    v = spec.orders[0]
    cells = dict(array.entries)
    for d in procedures:
        r, c, s, d1, d2 = d.r - 1, d.c - 1, d.s, d.d1, d.d2
        new: dict[Cell, GroupElement] = {}
        for i in range(d.length):
            cell = ((r + i * d1) % n + 1, (c + i * d1) % n + 1)
            if cell in new:
                raise ConstructionError(f"diag self-collision at {cell}")
            new[cell] = GroupElement(spec, ((s + i * d2) % v,))
        if not cells.keys().isdisjoint(new):
            cell = next(cell for cell in new if cell in cells)
            raise ConstructionError(f"cell {cell} already filled")
        cells.update(new)
    return PFArray(n, n, spec, cells)


def diagonal_cells(n: int, i: int) -> list[Cell]:
    """The cells of D_i = {(i,1), (i+1,2), ..., (i-1,n)} in column order."""
    if not 1 <= i <= n:
        raise ValueError(f"diagonal index {i} out of range 1..{n}")
    return [(_reduce_index(i + j, n), j + 1) for j in range(n)]


def diagonal_index(cell: Cell, n: int) -> int:
    """The i such that cell lies on D_i."""
    r, c = cell
    return _reduce_index(r - c + 1, n)


@dataclass(frozen=True)
class DiagonalReport:
    filled_diagonal_indices: frozenset[int]
    is_k_diagonal: bool
    is_cyclically_k_diagonal: bool
    strip_widths: tuple[int, ...]
    uniform_width: int | None


def classify_diagonals(array: PFArray | Skeleton) -> DiagonalReport:
    """Diagonal structure of a square array: which D_i are full, strips of empty ones.

    One pass counts the cells on each diagonal: D_i is full iff it holds n
    cells, and the filled diagonals cover the skeleton iff it has n cells for
    each of them."""
    if array.m != array.n:
        raise ValueError("diagonal classification requires a square array")
    n = array.n
    cells = array.cells if isinstance(array, Skeleton) else array.entries
    on_diagonal = Counter((r - c) % n + 1 for r, c in cells)
    filled = frozenset(i for i, count in on_diagonal.items() if count == n)
    is_k_diagonal = bool(filled) and len(cells) == n * len(filled)

    # consecutive mod n: the filled indices form one cyclic run, so the empty
    # ones form at most one
    strips = cyclic_runs(set(range(1, n + 1)) - filled, n) if filled else []
    cyclic = is_k_diagonal and len(strips) <= 1
    widths = tuple(sorted(len(r) for r in strips))
    uniform = widths[0] if widths and len(set(widths)) == 1 else None
    return DiagonalReport(filled, is_k_diagonal, cyclic, widths, uniform)


def cyclic_runs(indices: Iterable[int], n: int) -> list[list[int]]:
    """Maximal runs of consecutive indices in 1..n, where n is followed by 1; a
    run through n and 1 is one run, listed first."""
    runs: list[list[int]] = []
    for i in sorted(indices):
        if runs and runs[-1][-1] == i - 1:
            runs[-1].append(i)
        else:
            runs.append([i])
    if len(runs) >= 2 and runs[0][0] == 1 and runs[-1][-1] == n:
        runs[0] = runs.pop() + runs[0]
    return runs


def direct_sum(a: PFArray, b: PFArray) -> PFArray:
    """The direct sum over G1 + G2: union skeleton, zero-padded coordinates."""
    if (a.m, a.n) != (b.m, b.n):
        raise ValueError(f"dimension mismatch: {a.m}x{a.n} vs {b.m}x{b.n}")
    spec = GroupSpec(a.spec.orders + b.spec.orders)
    zero_a = (0,) * len(a.spec.orders)
    zero_b = (0,) * len(b.spec.orders)
    entries: dict[Cell, GroupElement] = {}
    for cell in set(a.entries) | set(b.entries):
        ca = a.entries[cell].coords if cell in a.entries else zero_a
        cb = b.entries[cell].coords if cell in b.entries else zero_b
        entries[cell] = GroupElement(spec, ca + cb)
    return PFArray(a.m, a.n, spec, entries)


def support(array: PFArray) -> frozenset[int]:
    """Absolute values of the symmetric representatives of the entries."""
    if not array.spec.is_cyclic_single:
        raise GroupError("support is defined for single-factor groups only")
    return frozenset(abs(symmetric_rep(e)) for e in array.entries.values())


def cyclic_row_shift(array: PFArray, shift: int) -> PFArray:
    """Move row r to row r+shift (mod n); maps diagonal D_i to D_{i+shift}."""
    if array.m != array.n:
        raise ValueError("cyclic row shift requires a square array")
    n = array.n
    entries = {
        (_reduce_index(r + shift, n), c): e for (r, c), e in array.entries.items()
    }
    return PFArray(array.m, array.n, array.spec, entries)


def skeleton_from_diagonals(n: int, indices: Iterable[int]) -> Skeleton:
    cells: set[Cell] = set()
    for i in indices:
        cells.update(diagonal_cells(n, i))
    return Skeleton(n, n, frozenset(cells))
