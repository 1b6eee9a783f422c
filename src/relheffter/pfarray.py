"""Partially filled arrays: skeletons, diagonals, the diag filling procedure, direct sums."""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

from .group import GroupElement, GroupError, GroupSpec, symmetric_rep

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

    def row_cells(self, i: int) -> list[Cell]:
        return sorted(c for c in self.cells if c[0] == i)

    def col_cells(self, j: int) -> list[Cell]:
        return sorted(c for c in self.cells if c[1] == j)

    def to_json(self) -> dict:
        return {"m": self.m, "n": self.n, "cells": [[r, c] for r, c in sorted(self.cells)]}

    @classmethod
    def from_json(cls, data: dict) -> "Skeleton":
        return cls(_int(data["m"], "m"), _int(data["n"], "n"),
                   frozenset((_int(r, "r"), _int(c, "c")) for r, c in data["cells"]))


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
        for (r, c), e in cells.items():
            if not (1 <= r <= self.m and 1 <= c <= self.n):
                raise ValueError(f"cell {(r, c)} outside {self.m}x{self.n}")
            if e.spec != self.spec:
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

    def with_entries(self, extra: Mapping[Cell, GroupElement]) -> "PFArray":
        merged = dict(self._cells)
        for cell, e in extra.items():
            if cell in merged:
                raise ConstructionError(f"cell {cell} already filled")
            merged[cell] = e
        return PFArray(self.m, self.n, self.spec, merged)

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
        out = io.StringIO()
        for r in range(1, self.m + 1):
            fields = []
            for c in range(1, self.n + 1):
                e = self._cells.get((r, c))
                fields.append("" if e is None else str(symmetric_rep(e)))
            out.write(",".join(fields))
            out.write("\n")
        return out.getvalue()

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
                if not f.strip():
                    continue
                try:
                    x = int(f)
                except ValueError:
                    raise ValueError(f"CSV row {i}, field {j}: {f!r} is not an integer") from None
                entries[(i, j)] = spec.element(x)
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
    if array.m != array.n:
        raise ConstructionError("diag requires a square array")
    if not array.spec.is_cyclic_single:
        raise ConstructionError("diag requires a single-factor group")
    n = array.n
    new: dict[Cell, GroupElement] = {}
    for i in range(d.length):
        cell = (_reduce_index(d.r + i * d.d1, n), _reduce_index(d.c + i * d.d1, n))
        if cell in new:
            raise ConstructionError(f"diag self-collision at {cell}")
        new[cell] = array.spec.element(d.s + i * d.d2)
    return array.with_entries(new)


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
    """Diagonal structure of a square array: which D_i are full, strips of empty ones."""
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
