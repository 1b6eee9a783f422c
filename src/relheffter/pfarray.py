"""Partially filled arrays: skeletons, diagonals, the diag filling procedure."""

from __future__ import annotations

import json
import re
from collections import Counter, namedtuple
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .group import GroupError, GroupSpec

Cell = tuple[int, int]  # 1-based (row, col)
_CSV_FIELDS = re.compile(r"(,*)([^,]+)")  # a nonempty CSV field and the commas before it
_encode_str = json.encoder.encode_basestring_ascii  # the str encoder of json.dumps


class ConstructionError(ValueError):
    """A diag procedure tried to overwrite a filled cell or repeated one of its own."""


def _reduce_index(x: int, n: int) -> int:
    """Reduce to the residues {1, ..., n}."""
    return (x - 1) % n + 1


def _int(value: object, name: str) -> int:
    """A JSON integer field, taken as is: floats, strings and booleans are rejected."""
    if type(value) is not int:
        raise ValueError(f"{name} {value!r} is not an integer")
    return value


def _list(value: object, name: str) -> list:
    """A JSON array field, taken as is: objects and strings are rejected."""
    if type(value) is not list:
        raise ValueError(f"{name} {value!r} is not a list")
    return value


def _check_dimensions(m: int, n: int) -> None:
    if m < 1 or n < 1:
        raise ValueError(f"dimensions {m}x{n} are not positive")


def json_text(obj: object) -> str:
    """The text of json.dumps(obj, indent=2, sort_keys=True) and a newline,
    written directly: the stdlib encoder falls back to pure Python whenever
    indent is set. Leaves other than str, int, bool and None are written by
    json.dumps."""
    out: list[str] = []
    _json_parts(obj, "\n", out)
    return "".join(out) + "\n"


def _json_parts(obj: object, newline: str, out: list[str]) -> None:
    """Append the text of obj to out; newline opens the line obj starts on."""
    kind = type(obj)
    if kind is str:
        out.append(_encode_str(obj))
    elif kind is int:
        out.append(int.__repr__(obj))
    elif kind is bool or obj is None:
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, (dict, list, tuple)):
        is_dict, inner = isinstance(obj, dict), newline + "  "
        if not obj:
            out.append("{}" if is_dict else "[]")
            return
        sep = ("{" if is_dict else "[") + inner
        for item in sorted(obj.items()) if is_dict else obj:
            out.append(sep)
            if is_dict:  # a key that is no str or int: json's text, errors included
                key, item = item
                out += (_encode_str(key) if type(key) is str else f'"{key}"' if type(key) is int
                        else json.dumps({key: 0})[1:-4]), ": "
            _json_parts(item, inner, out)
            sep = "," + inner
        out.append(newline + ("}" if is_dict else "]"))
    else:
        out.append(json.dumps(obj))


def _lines(m: int, n: int, cells: list[Cell], values: Iterable[int]) -> list[list[int]]:
    """The one row/column split: one list per line of cells in row-major order,
    rows 1..m (left to right) and then columns 1..n (top to bottom), empty
    lines included, of the values of its cells in that order."""
    lines: list[list[int]] = [[] for _ in range(m + n)]
    rows, cols = lines[:m], lines[m:]
    for (r, c), x in zip(cells, values):
        rows[r - 1].append(x)
        cols[c - 1].append(x)
    return lines


# A record whose constructor checks its fields is a namedtuple with a
# validating __new__; one with a cached_property keeps an instance dict for it
# (no __slots__).
class Skeleton(namedtuple("Skeleton", "m n cells")):
    """The set of filled positions of an m x n partially filled array."""

    def __new__(cls, m: int, n: int, cells: Iterable[Cell]) -> "Skeleton":
        """Check the cells, an iterable, in the order given, then freeze them."""
        _check_dimensions(m, n)
        for r, c in cells:
            if not (1 <= r <= m and 1 <= c <= n):
                raise ValueError(f"cell {(r, c)} outside {m}x{n}")
        return tuple.__new__(cls, (m, n, frozenset(cells)))

    @cached_property
    def index(self) -> tuple[list[Cell], list[list[int]]]:
        """The cells in row-major order and their _lines, built on first use:
        each line holds the numbers of its cells, from 0 in that order."""
        cells = sorted(self.cells)
        return cells, _lines(self.m, self.n, cells, range(len(cells)))

    @cached_property
    def steps(self) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
        """The step tables of the Knight search and walk, built on first use
        and apart from the index, which other readers use without them: the
        next cell number along its row and along its column, cyclically, for
        sign +1 and for sign -1."""
        cells, lines = self.index
        row_step = {1: [0] * len(cells), -1: [0] * len(cells)}
        col_step = {1: [0] * len(cells), -1: [0] * len(cells)}
        for v, line in enumerate(lines):
            step = row_step if v < self.m else col_step
            forward, backward = step[1], step[-1]
            x = line[-1] if line else 0  # cyclically: the last cell steps to the first
            for y in line:
                forward[x], backward[y] = y, x
                x = y
        return row_step, col_step

    def to_json(self) -> dict:
        return {"m": self.m, "n": self.n, "cells": [[r, c] for r, c in self.index[0]]}

    def to_json_text(self) -> str:
        return json_text(self.to_json())

    @classmethod
    def from_json(cls, data: dict) -> "Skeleton":
        """Parse the JSON skeleton format; no cell may be listed twice, and a
        cell outside is named in file order. One loop over the cells: at the
        size of a Knight skeleton (tens of cells) it measured faster than set
        and min/max passes, cold and warm."""
        cells: dict[Cell, None] = {}
        for r, c in _list(data["cells"], "cells"):
            cell = (_int(r, "r"), _int(c, "c"))
            if cell in cells:
                raise ValueError(f"cell {cell} listed twice")
            cells[cell] = None
        return cls(_int(data["m"], "m"), _int(data["n"], "n"), cells.keys())


def skeleton_of(array: PFArray | Skeleton) -> Skeleton:
    """The skeleton of an array, or the skeleton itself."""
    return array if isinstance(array, Skeleton) else array.skeleton


class PFArray(namedtuple("PFArray", "m n spec entry_codes")):
    """An m x n partially filled array over a GroupSpec; empty cells are absent keys.

    The one store is ``entry_codes``, a read-only map from each filled cell to
    its entry's int code (GroupSpec.codes); equality compares it. ``entries``
    (the same map), ``row`` and ``col`` are views of the codes that the
    benchmark's probes read."""

    def __new__(cls, m: int, n: int, spec: GroupSpec,
                entry_codes: Mapping[Cell, int]) -> "PFArray":
        """Check the dimensions, the cells and the codes, and keep a read-only
        copy of the codes: the index built on first use cannot go stale."""
        _check_dimensions(m, n)
        codes, size = dict(entry_codes), spec.size
        for (r, c), x in codes.items():  # min/max passes over the cells measured slower
            if not (1 <= r <= m and 1 <= c <= n):
                raise ValueError(f"cell {(r, c)} outside {m}x{n}")
            if not 0 <= x < size:
                raise GroupError(f"entry code {x} at {(r, c)} is not an element of {spec.orders}")
        return tuple.__new__(cls, (m, n, spec, MappingProxyType(codes)))

    @cached_property
    def _row_major(self) -> list[Cell]:
        """The filled cells in row-major order: one sort, which the index and
        the skeleton share."""
        return sorted(self.entry_codes)

    @cached_property
    def skeleton(self) -> Skeleton:
        """The skeleton of the filled cells, without a second range check (the
        constructor made one) and with its index split from this array's
        row-major cells, without a second sort."""
        cells = self._row_major
        skel = tuple.__new__(Skeleton, (self.m, self.n, frozenset(cells)))
        skel.__dict__["index"] = cells, _lines(self.m, self.n, cells, range(len(cells)))
        return skel

    @property
    def entries(self) -> Mapping[Cell, int]:
        """The entry codes, as ``entry_codes``."""
        return self.entry_codes

    @cached_property
    def index(self) -> tuple[list[Cell], list[tuple[int, ...]]]:
        """The cells in row-major order and their _lines, built on first use:
        each line holds the entry codes of its cells, rows 1..m, then columns 1..n."""
        cells = self._row_major
        return cells, list(map(tuple, _lines(self.m, self.n, cells,
                                             map(self.entry_codes.__getitem__, cells))))

    def row(self, i: int) -> list[int]:
        """The entry codes of row i, left to right; none outside 1..m."""
        return list(self.index[1][i - 1]) if 1 <= i <= self.m else []

    def col(self, j: int) -> list[int]:
        """The entry codes of column j, top to bottom; none outside 1..n."""
        return list(self.index[1][self.m + j - 1]) if 1 <= j <= self.n else []

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        cells, lines = self.index  # rows 1..m in turn: the codes in row-major order
        columns = self.spec.codes.columns(chain.from_iterable(lines[:self.m]))
        return {
            "m": self.m,
            "n": self.n,
            "group": self.spec.to_json(),
            "cells": [{"r": r, "c": c, "v": list(v)} for (r, c), v in zip(cells, zip(*columns))],
        }

    def to_json_text(self) -> str:
        """The text of json.dumps(self.to_json(), indent=2, sort_keys=True) and a
        newline, written directly: the stdlib encoder falls back to pure Python
        whenever indent is set. Each cell is one % format of its column, row
        and coordinates."""
        cells, lines = self.index
        columns = self.spec.codes.columns(chain.from_iterable(lines[:self.m]))
        cell = ('    {\n      "c": %d,\n      "r": %d,\n      "v": [\n        '
                + ",\n        ".join(["%d"] * len(columns)) + "\n      ]\n    }")
        cells = ",\n".join(map(cell.__mod__, zip(
            map(itemgetter(1), cells), map(itemgetter(0), cells), *columns)))
        orders = ",\n      ".join(map(str, self.spec.orders))
        return ('{\n  "cells": %s,\n  "group": {\n    "orders": [\n      %s\n    ]\n  },\n'
                '  "m": %d,\n  "n": %d\n}\n'
                % (f"[\n{cells}\n  ]" if cells else "[]", orders, self.m, self.n))

    @classmethod
    def from_json(cls, data: dict) -> "PFArray":
        """Parse the JSON array format; coordinates must be canonical residues,
        one per factor, and no cell may be listed twice. The cells are checked
        in bulk; they are scanned in file order only to name the first bad one."""
        spec = GroupSpec.from_json(data["group"])
        cells = data["cells"]
        codes = _json_cells(cells, spec)
        if codes is None:
            codes = _scan_json_cells(cells, spec)
        return cls(_int(data["m"], "m"), _int(data["n"], "n"), spec, codes)

    def to_csv(self) -> str:
        """Grid CSV with symmetric representatives; empty string for empty cells.
        One pass over the index writes each filled field after the run of
        commas before it, the model that from_csv reads (_CSV_FIELDS), and each
        row's end after its last field: no empty field is built."""
        if not self.spec.is_cyclic_single:
            raise GroupError("CSV export requires a single-factor group")
        v = self.spec.orders[0]
        half = v // 2  # the symmetric residue of x is x - v above v/2
        cells, lines = self.index
        fields = [str(x - v if x > half else x) for x in chain.from_iterable(lines[:self.m])]
        n, empty = self.n, "," * (self.n - 1) + "\n"
        out: list[str] = []
        row, last = 1, 1  # the row being written and its last field's column (1 at its start)
        for (r, c), field in zip(cells, fields):
            if r != row:
                out.append("," * (n - last) + "\n" + empty * (r - row - 1))
                row, last = r, 1
            out.append("," * (c - last) + field)
            last = c
        out.append("," * (n - last) + "\n" + empty * (self.m - row))
        return "".join(out)

    @classmethod
    def from_csv(cls, text: str, v: int) -> "PFArray":
        """Parse the grid CSV format: every row has the same number of fields,
        each empty or an integer, which is reduced mod v. The fields are checked
        in bulk; they are scanned in order only to name the first bad one."""
        spec = GroupSpec.cyclic(v)
        lines = text.splitlines()
        if not lines:
            raise ValueError("empty CSV")
        n = lines[0].count(",") + 1
        codes = _csv_cells(lines, n, v)
        if codes is None:
            codes = _scan_csv_cells([line.split(",") for line in lines], n, v)
        return cls(len(lines), n, spec, codes)


def _json_cells(cells: object, spec: GroupSpec) -> dict[Cell, int] | None:
    """The codes of a list of well-formed JSON cells, checked field by field over
    all cells at once; None when a check fails, which _scan_json_cells names."""
    if type(cells) is not list:
        return None
    if not cells:
        return {}
    try:
        keys, vs = list(map(itemgetter("r", "c"), cells)), list(map(itemgetter("v"), cells))
    except (LookupError, TypeError):
        return None
    if set(map(type, chain.from_iterable(keys))) != {int} or set(map(type, vs)) != {list}:
        return None
    orders = spec.orders
    if set(map(len, vs)) != {len(orders)}:
        return None
    columns = [list(map(itemgetter(i), vs)) for i in range(len(orders))]
    if (set(map(type, chain.from_iterable(columns))) != {int}
            or not all(0 <= min(col) and max(col) < o for col, o in zip(columns, orders))):
        return None
    codes = dict(zip(keys, spec.codes.from_columns(columns)))
    return codes if len(codes) == len(cells) else None


def _scan_json_cells(cells: Iterable, spec: GroupSpec) -> dict[Cell, int]:
    """The codes of the JSON cells, checked one cell at a time in file order:
    raises the error of the first bad cell."""
    code = spec.codes.code
    codes: dict[Cell, int] = {}
    for cell in _list(cells, "cells"):
        key = (_int(cell["r"], "r"), _int(cell["c"], "c"))
        coords = cell["v"]
        if not isinstance(coords, list) or not all(type(x) is int for x in coords):
            raise GroupError(f"cell {key}: coordinates {coords!r} are not a list of integers")
        if key in codes:
            raise ValueError(f"cell {key} listed twice")
        codes[key] = code(coords)
    return codes


def _csv_cells(lines: list[str], n: int, v: int) -> dict[Cell, int] | None:
    """The codes of the nonempty fields of CSV lines of n fields each, reduced
    mod v. Each line is searched for its runs of non-commas, each with the run
    of commas before it, which gives its column, so empty fields are never
    visited; None when a line has another length or a nonempty field (a
    whitespace-only one included) is no integer."""
    if {line.count(",") for line in lines} != {n - 1}:
        return None
    cells: list[Cell] = []
    texts: list[str] = []
    for i, line in enumerate(lines, start=1):
        # stripped: a trailing run of commas would be searched again from each comma
        fields = _CSV_FIELDS.findall(line.rstrip(","))
        if fields:
            commas, found = zip(*fields)
            texts += found
            cells += zip(repeat(i), map((1).__add__, accumulate(map(len, commas))))
    try:
        return dict(zip(cells, map(v.__rmod__, map(int, texts))))
    except ValueError:
        return None


def _scan_csv_cells(rows: list[list[str]], n: int, v: int) -> dict[Cell, int]:
    """The codes of the CSV fields, checked one field at a time, row by row:
    raises the error of the first bad row or field."""
    codes: dict[Cell, int] = {}
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
    return codes


class DiagSpec(namedtuple("DiagSpec", "r c s d1 d2 length")):
    """Parameters of the diagonal filling procedure diag(r, c, s, d1, d2, length)."""

    __slots__ = ()

    def __new__(cls, r: int, c: int, s: int, d1: int, d2: int, length: int) -> "DiagSpec":
        if length < 1:
            raise ValueError("length must be >= 1")
        return tuple.__new__(cls, (r, c, s, d1, d2, length))


def fill_diagonals(n: int, v: int, procedures: Iterable[DiagSpec]) -> PFArray:
    """The n x n array over Z_v filled by the diag procedure d for each d in
    turn: d puts the entries s + i*d2 at the cells (r + i*d1, c + i*d1), for
    i < length, indices wrapping in 1..n.

    Each procedure's cells are placed, and checked against each other, before
    they are checked against the cells already filled, so a failure raises the
    ConstructionError that applying the procedures one at a time would raise
    first."""
    spec = GroupSpec.cyclic(v)
    cells: dict[Cell, int] = {}
    for d in procedures:
        r, c, s, d1, d2 = d.r - 1, d.c - 1, d.s, d.d1, d.d2
        new: dict[Cell, int] = {}
        for i in range(d.length):
            cell = ((r + i * d1) % n + 1, (c + i * d1) % n + 1)
            if cell in new:
                raise ConstructionError(f"diag self-collision at {cell}")
            new[cell] = (s + i * d2) % v
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


class DiagonalReport(NamedTuple):
    filled_diagonal_indices: frozenset[int]
    is_k_diagonal: bool
    is_cyclically_k_diagonal: bool


def classify_diagonals(array: PFArray | Skeleton) -> DiagonalReport:
    """Diagonal structure of a square array: which D_i are full, and whether
    they are all the filled cells and consecutive mod n.

    One pass over the filled cells counts the cells on each diagonal: D_i is
    full iff it holds n cells, and the filled diagonals cover the filled cells
    iff there are n for each of them. An array's skeleton is not built."""
    if array.m != array.n:
        raise ValueError("diagonal classification requires a square array")
    n = array.n
    cells = array.cells if isinstance(array, Skeleton) else array.entry_codes
    on_diagonal = Counter((r - c) % n + 1 for r, c in cells)
    filled = frozenset(i for i, count in on_diagonal.items() if count == n)
    is_k_diagonal = bool(filled) and len(cells) == n * len(filled)
    cyclic = is_k_diagonal and len(cyclic_runs(filled, n)) == 1  # consecutive mod n
    return DiagonalReport(filled, is_k_diagonal, cyclic)


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


def skeleton_from_diagonals(n: int, indices: Iterable[int]) -> Skeleton:
    cells: set[Cell] = set()
    for i in indices:
        cells.update(diagonal_cells(n, i))
    return Skeleton(n, n, frozenset(cells))
