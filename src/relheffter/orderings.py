"""Row/column orderings, partial sums, simplicity, and the Crazy Knight's Tour machinery."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import lcm
from typing import Sequence

from .group import GroupElement, GroupError
from .pfarray import Cell, PFArray, Skeleton, skeleton_from_diagonals

ArrayLike = PFArray | Skeleton


def _skel(array: ArrayLike) -> Skeleton:
    return array if isinstance(array, Skeleton) else array.skeleton


# -- partial sums and simplicity ----------------------------------------


def partial_sums(seq: Sequence[GroupElement]) -> list[GroupElement]:
    """The running sums (s_1, ..., s_k) of a nonempty sequence."""
    if not seq:
        raise ValueError("partial sums of an empty sequence")
    sums = []
    total = seq[0].spec.identity
    for e in seq:
        total = total + e
        sums.append(total)
    return sums


def is_simple(seq: Sequence[GroupElement]) -> bool:
    """True iff all partial sums are pairwise distinct, i.e. no proper nonempty
    run of consecutive elements sums to zero."""
    if not seq:
        raise ValueError("partial sums of an empty sequence")
    spec = seq[0].spec
    for e in seq:
        if e.spec != spec:
            raise GroupError(f"group mismatch: {spec} vs {e.spec}")
    return _simple_coords(spec.orders, [e.coords for e in seq])


def _simple_coords(orders: tuple[int, ...], line: Sequence[tuple[int, ...]]) -> bool:
    """is_simple on coordinate tuples: running sums kept as residues (tuples of
    residues for product groups) until the first repeat."""
    seen: set = set()
    if len(orders) == 1:
        v, total = orders[0], 0
        for x, in line:
            total = (total + x) % v
            if total in seen:
                return False
            seen.add(total)
        return True
    totals = (0,) * len(orders)
    for c in line:
        totals = tuple((a + x) % o for a, x, o in zip(totals, c, orders))
        if totals in seen:
            return False
        seen.add(totals)
    return True


def is_globally_simple(array: PFArray) -> bool:
    """True iff every row (left to right) and column (top to bottom) is simple."""
    orders = array.spec.orders
    lines = [array.row(i) for i in range(1, array.m + 1)]
    lines += [array.col(j) for j in range(1, array.n + 1)]
    return all(_simple_coords(orders, [e.coords for e in line]) for line in lines)


# -- orderings ----------------------------------------------------------


@dataclass(frozen=True)
class Ordering:
    """A chosen ordering of the filled cells of each nonempty row and column."""

    row_orders: dict[int, tuple[Cell, ...]]
    col_orders: dict[int, tuple[Cell, ...]]

    def validate(self, array: ArrayLike) -> None:
        skel = _skel(array)
        for i, cells in self.row_orders.items():
            if sorted(cells) != skel.row_cells(i):
                raise ValueError(f"row {i} ordering is not a permutation of its filled cells")
        for j, cells in self.col_orders.items():
            if sorted(cells) != skel.col_cells(j):
                raise ValueError(f"column {j} ordering is not a permutation of its filled cells")
        rows_with = {r for r, _ in skel.cells}
        cols_with = {c for _, c in skel.cells}
        if set(self.row_orders) != rows_with or set(self.col_orders) != cols_with:
            raise ValueError("ordering does not cover exactly the nonempty rows/columns")

    def row_entries(self, array: PFArray, i: int) -> list[GroupElement]:
        return [array.entries[c] for c in self.row_orders[i]]

    def col_entries(self, array: PFArray, j: int) -> list[GroupElement]:
        return [array.entries[c] for c in self.col_orders[j]]


def natural_ordering(array: ArrayLike) -> Ordering:
    skel = _skel(array)
    rows = {r for r, _ in skel.cells}
    cols = {c for _, c in skel.cells}
    return Ordering(
        {i: tuple(skel.row_cells(i)) for i in rows},
        {j: tuple(sorted(skel.col_cells(j), key=lambda cell: cell[0])) for j in cols},
    )


@dataclass(frozen=True)
class Orientation:
    """Direction of travel per row (+1 left-to-right) and per column (+1 top-to-bottom)."""

    r: tuple[int, ...]
    c: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(x not in (1, -1) for x in self.r + self.c):
            raise ValueError("orientation entries must be +-1")

    def reversed(self) -> "Orientation":
        return Orientation(tuple(-x for x in self.r), tuple(-x for x in self.c))

    def to_strings(self) -> tuple[str, str]:
        return (
            "".join("+" if x == 1 else "-" for x in self.r),
            "".join("+" if x == 1 else "-" for x in self.c),
        )

    @classmethod
    def from_strings(cls, rows: str, cols: str) -> "Orientation":
        sign = {"+": 1, "-": -1}
        return cls(tuple(sign[ch] for ch in rows), tuple(sign[ch] for ch in cols))


def orientation_to_orderings(array: ArrayLike, o: Orientation) -> Ordering:
    """Row i ordered left to right iff r_i = +1; column j top to bottom iff c_j = +1."""
    skel = _skel(array)
    rows = {r for r, _ in skel.cells}
    cols = {c for _, c in skel.cells}
    row_orders = {}
    for i in rows:
        cells = skel.row_cells(i)
        row_orders[i] = tuple(cells if o.r[i - 1] == 1 else reversed(cells))
    col_orders = {}
    for j in cols:
        cells = sorted(skel.col_cells(j), key=lambda cell: cell[0])
        col_orders[j] = tuple(cells if o.c[j - 1] == 1 else reversed(cells))
    return Ordering(row_orders, col_orders)


def compose_orderings(array: ArrayLike, ordering: Ordering) -> tuple[dict[Cell, Cell], bool]:
    """The cell permutation 'row successor then column successor', and whether it
    is a single cycle through every filled cell (the compatibility condition)."""
    skel = _skel(array)
    ordering.validate(array)
    row_next: dict[Cell, Cell] = {}
    for cells in ordering.row_orders.values():
        for p, cell in enumerate(cells):
            row_next[cell] = cells[(p + 1) % len(cells)]
    col_next: dict[Cell, Cell] = {}
    for cells in ordering.col_orders.values():
        for p, cell in enumerate(cells):
            col_next[cell] = cells[(p + 1) % len(cells)]
    perm = {cell: col_next[row_next[cell]] for cell in skel.cells}
    if not perm:
        return perm, False
    start = min(perm)
    length = 1
    cur = perm[start]
    while cur != start:
        cur = perm[cur]
        length += 1
    return perm, length == len(skel.cells)


# -- the Crazy Knight's Tour map ----------------------------------------


def _cyclic_next(values: list[int], x: int, direction: int) -> int:
    """The element of values strictly after x, cyclically, in the given direction."""
    if direction == 1:
        for v in values:
            if v > x:
                return v
        return values[0]
    for v in reversed(values):
        if v < x:
            return v
    return values[-1]


def knight_step(array: ArrayLike, o: Orientation, cell: Cell) -> Cell:
    """One move: along the row to the next filled cell per r_i, then along that
    column to the next filled cell per c_j (both cyclic on the torus)."""
    skel = _skel(array)
    if cell not in skel.cells:
        raise ValueError(f"cell {cell} is empty")
    i, j = cell
    row_cols = [c for _, c in skel.row_cells(i)]
    j2 = _cyclic_next(row_cols, j, o.r[i - 1])
    col_rows = [r for r, _ in skel.col_cells(j2)]
    i2 = _cyclic_next(col_rows, i, o.c[j2 - 1])
    return (i2, j2)


def knight_tour(array: ArrayLike, o: Orientation, start: Cell) -> tuple[list[Cell], bool]:
    """The orbit of the composed move starting at start; a solution iff it covers
    every filled cell."""
    skel = _skel(array)
    if not skel.cells:
        raise ValueError("empty array")
    orbit = [start]
    cur = knight_step(skel, o, start)
    while cur != start:
        orbit.append(cur)
        cur = knight_step(skel, o, cur)
    return orbit, len(orbit) == len(skel.cells)


class _FastTour:
    """Precomputed successor tables for repeated orbit walks over one skeleton."""

    def __init__(self, skel: Skeleton):
        self.skel = skel
        cells = sorted(skel.cells)
        self.cells = cells
        index = {cell: i for i, cell in enumerate(cells)}
        self.size = len(cells)
        row_cols: dict[int, list[int]] = {}
        col_rows: dict[int, list[int]] = {}
        for r, c in cells:
            row_cols.setdefault(r, []).append(c)
            col_rows.setdefault(c, []).append(r)
        for v in row_cols.values():
            v.sort()
        for v in col_rows.values():
            v.sort()
        # row landing cell for each direction, then its column; column steps
        self.row_p = [index[(r, _cyclic_next(row_cols[r], c, 1))] for r, c in cells]
        self.row_m = [index[(r, _cyclic_next(row_cols[r], c, -1))] for r, c in cells]
        self.col_p = [index[(_cyclic_next(col_rows[c], r, 1), c)] for r, c in cells]
        self.col_m = [index[(_cyclic_next(col_rows[c], r, -1), c)] for r, c in cells]
        self.col_of = [c - 1 for _, c in cells]

    def is_solution(self, r_signs: Sequence[int], c_signs: Sequence[int]) -> bool:
        """Walk the orbit of cell 0; True iff it has full length."""
        row_step = [self.row_p[x] if r_signs[self.cells[x][0] - 1] == 1 else self.row_m[x]
                    for x in range(self.size)]
        col_p, col_m, col_of = self.col_p, self.col_m, self.col_of
        count = 0
        x = 0
        size = self.size
        while True:
            y = row_step[x]
            x = col_p[y] if c_signs[col_of[y]] == 1 else col_m[y]
            count += 1
            if x == 0:
                return count == size
            if count >= size:
                return False


def knight_search(array: ArrayLike, parity_prefilter: bool = True) -> Orientation | None:
    """Exhaustive search over orientations with r_1 = +1 fixed; returns the
    lexicographically least solution (with +1 before -1), or None."""
    skel = _skel(array)
    if not skel.cells:
        raise ValueError("empty array")
    if parity_prefilter and _parity_infeasible(skel):
        return None
    tour = _FastTour(skel)
    m, n = skel.m, skel.n
    for rest in product((1, -1), repeat=m + n - 1):
        r = (1,) + rest[: m - 1]
        c = rest[m - 1:]
        if tour.is_solution(r, c):
            return Orientation(r, c)
    return None


def _parity_infeasible(skel: Skeleton) -> bool:
    """The parity obstruction applies only when no row or column is empty."""
    rows = {r for r, _ in skel.cells}
    cols = {c for _, c in skel.cells}
    if len(rows) < skel.m or len(cols) < skel.n:
        return False
    return len(skel.cells) % 2 != (skel.m + skel.n - 1) % 2


# -- lifting (enlarging a diagonal-family solution) ---------------------


@dataclass(frozen=True)
class LiftSpec:
    """The diagonal indices l_1 < ... < l_k of the family A_n(l_1, ..., l_k)."""

    diagonal_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        ls = self.diagonal_indices
        if len(ls) < 2 or list(ls) != sorted(set(ls)) or ls[0] < 1:
            raise ValueError("diagonal indices must be strictly increasing positive integers")

    @property
    def M(self) -> int:
        ls = self.diagonal_indices
        gaps = [b - a for a, b in zip(ls, ls[1:])] + [ls[-1] - ls[0]]
        return lcm(*gaps)

    def skeleton(self, n: int) -> Skeleton:
        if n <= self.diagonal_indices[-1]:
            raise ValueError(f"need n > l_k = {self.diagonal_indices[-1]}")
        return skeleton_from_diagonals(n, self.diagonal_indices)


def has_lift_shape(spec: LiftSpec, n: int, o: Orientation) -> bool:
    """R all ones and C constantly one from position n - l_k + 2 on."""
    lk = spec.diagonal_indices[-1]
    return (
        len(o.r) == n
        and len(o.c) == n
        and all(x == 1 for x in o.r)
        and all(x == 1 for x in o.c[n - lk + 1:])
    )


def lift_solution(spec: LiftSpec, n: int, o: Orientation) -> Orientation:
    """Extend a lift-shaped solution of P(A_n) to a verified solution of P(A_{n+M})."""
    if not has_lift_shape(spec, n, o):
        raise ValueError("orientation does not have the liftable shape")
    skel = spec.skeleton(n)
    _, ok = knight_tour(skel, o, min(skel.cells))
    if not ok:
        raise ValueError("input orientation is not a solution")
    big = n + spec.M
    lk = spec.diagonal_indices[-1]
    lifted = Orientation((1,) * big, o.c[: n - lk + 1] + (1,) * (big - (n - lk + 1)))
    big_skel = spec.skeleton(big)
    _, ok = knight_tour(big_skel, lifted, min(big_skel.cells))
    if not ok:
        raise ValueError("lifted orientation failed verification")
    return lifted


def search_lift_shape(spec: LiftSpec, n: int) -> Orientation | None:
    """Search only orientations of the liftable shape: R all ones, free C prefix
    of length n - l_k + 1, ones after. Returns the lexicographically least."""
    skel = spec.skeleton(n)
    tour = _FastTour(skel)
    lk = spec.diagonal_indices[-1]
    free = n - lk + 1
    r = (1,) * n
    suffix = (1,) * (n - free)
    for prefix in product((1, -1), repeat=free):
        if tour.is_solution(r, prefix + suffix):
            return Orientation(r, prefix + suffix)
    return None


# -- the explicit 9-diagonal family solution ----------------------------


def nine_diagonal_skeleton(n: int) -> Skeleton:
    """The 9-diagonal skeleton D_1..D_7, D_{r+7}, D_{r+8} with r = (n - 7)/2."""
    if n < 21 or n % 14 != 7:
        raise ValueError(f"n must be 7 (mod 14) and >= 21, got {n}")
    r = (n - 7) // 2
    return skeleton_from_diagonals(n, list(range(1, 8)) + [r + 7, r + 8])


def nine_diagonal_orientation(n: int) -> Orientation:
    """The closed-form solution of the 9-diagonal family: all rows forward,
    first eight columns backward."""
    if n < 21 or n % 14 != 7:
        raise ValueError(f"n must be 7 (mod 14) and >= 21, got {n}")
    return Orientation((1,) * n, (-1,) * 8 + (1,) * (n - 8))
