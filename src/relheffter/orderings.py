"""Row/column orderings, partial sums, simplicity, and the Crazy Knight's Tour machinery."""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Callable, Sequence

from .group import GroupElement, GroupError
from .heffter import skeleton_parity_ok
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


def orbit(step: Callable, start) -> list:
    """The cycle of the permutation step through start, beginning at start; the
    permutation is a single cycle iff this covers its whole domain. Raises
    ValueError when the walk from start runs into a cycle without start, which
    only a map that is no permutation does."""
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


# -- orderings ----------------------------------------------------------


@dataclass(frozen=True)
class Ordering:
    """A chosen ordering of the filled cells of each nonempty row and column."""

    row_orders: dict[int, tuple[Cell, ...]]
    col_orders: dict[int, tuple[Cell, ...]]

    def validate(self, array: ArrayLike) -> None:
        rows, cols = _skel(array).lines
        for i, cells in self.row_orders.items():
            if tuple(sorted(cells)) != rows.get(i, ()):
                raise ValueError(f"row {i} ordering is not a permutation of its filled cells")
        for j, cells in self.col_orders.items():
            if tuple(sorted(cells)) != cols.get(j, ()):
                raise ValueError(f"column {j} ordering is not a permutation of its filled cells")
        if self.row_orders.keys() != rows.keys() or self.col_orders.keys() != cols.keys():
            raise ValueError("ordering does not cover exactly the nonempty rows/columns")

    def row_entries(self, array: PFArray, i: int) -> list[GroupElement]:
        return [array.entries[c] for c in self.row_orders[i]]

    def col_entries(self, array: PFArray, j: int) -> list[GroupElement]:
        return [array.entries[c] for c in self.col_orders[j]]

    def with_reversed_rows(self) -> "Ordering":
        """Every row ordering reversed (omega_r inverse), the columns unchanged."""
        return Ordering(
            {i: cells[::-1] for i, cells in self.row_orders.items()}, self.col_orders
        )


def natural_ordering(array: ArrayLike) -> Ordering:
    rows, cols = _skel(array).lines
    return Ordering(dict(rows), dict(cols))


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
    rows, cols = _skel(array).lines
    return Ordering(
        {i: cells if o.r[i - 1] == 1 else cells[::-1] for i, cells in rows.items()},
        {j: cells if o.c[j - 1] == 1 else cells[::-1] for j, cells in cols.items()},
    )


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
    return perm, len(orbit(perm.__getitem__, min(perm))) == len(skel.cells)


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
    cells = orbit(lambda cell: knight_step(skel, o, cell), start)
    return cells, len(cells) == len(skel.cells)


def _least_orientation(
    skel: Skeleton, fixed: Sequence[int], free: Sequence[int]
) -> Orientation | None:
    """The lexicographically least solution (+1 before -1) over the signs of the
    free variables, with the fixed ones and all others +1; or None.

    Variable i - 1 is the sign of row i, variable m + j - 1 that of column j.
    A depth-first search sets the fixed variables, then the free ones in order.
    The move through cell y (row step into y, column step out of it) is fixed
    once y's row and column signs are set. Fixed moves form path fragments
    (start of the path ending at a cell, end of the path starting at a cell,
    length at the start), so each is added in O(1). A branch is pruned when a
    cycle shorter than |skel| closes and accepted when one through every cell
    does."""
    m = skel.m
    cells = sorted(skel.cells)
    size = len(cells)
    index = {cell: x for x, cell in enumerate(cells)}
    rows, cols = skel.lines
    lines = [[index[cell] for cell in rows.get(i, ())] for i in range(1, m + 1)]
    lines += [[index[cell] for cell in cols.get(j, ())] for j in range(1, skel.n + 1)]
    row_step: dict[int, list[int]] = {1: [0] * size, -1: [0] * size}
    col_step: dict[int, list[int]] = {1: [0] * size, -1: [0] * size}
    for v, line in enumerate(lines):
        step = row_step if v < m else col_step
        for p, x in enumerate(line):
            step[1][x] = line[(p + 1) % len(line)]
            step[-1][x] = line[p - 1]
    row_var = [r - 1 for r, _ in cells]
    col_var = [m + c - 1 for _, c in cells]

    sign = [0] * len(lines)
    start = list(range(size))
    end = list(range(size))
    length = [1] * size
    links: list[tuple[int, int]] = []
    order = [*fixed, *free]
    # a line of at most two cells steps the same way under both signs
    plus_only = [len(line) <= 2 for line in lines]
    for v in fixed:
        plus_only[v] = True
    trail: list[tuple[int, int]] = []  # (sign, links before it) of each variable set
    s = 1
    while True:
        v = order[len(trail)]
        trail.append((s, len(links)))
        sign[v] = s
        closed = 0  # the length of a cycle that a new move closes
        for y in lines[v]:
            r, c = sign[row_var[y]], sign[col_var[y]]
            if r and c:
                x, z = row_step[-r][y], col_step[c][y]
                a, b = start[x], end[z]
                if a == z:
                    closed = length[a]
                    break
                end[a], start[b] = b, a
                length[a] += length[z]
                links.append((x, z))
        if closed == size:
            signs = [x or 1 for x in sign]
            return Orientation(tuple(signs[:m]), tuple(signs[m:]))
        if not closed and len(trail) < len(order):
            s = 1
            continue
        while True:  # back up to the deepest variable that can still take -1
            s, mark = trail.pop()
            v = order[len(trail)]
            sign[v] = 0
            while len(links) > mark:
                x, z = links.pop()
                a, b = start[x], end[z]
                length[a] -= length[z]
                end[a], start[b] = x, z
            if s == 1 and not plus_only[v]:
                break
            if not trail:
                return None
        s = -1


def knight_search(array: ArrayLike, parity_prefilter: bool = True) -> Orientation | None:
    """The lexicographically least solution (with +1 before -1) over orientations
    with r_1 = +1, by pruned depth-first search over r_2..r_m, c_1..c_n; or None."""
    skel = _skel(array)
    if not skel.cells:
        raise ValueError("empty array")
    if parity_prefilter and not skeleton_parity_ok(skel):
        return None
    return _least_orientation(skel, [0], range(1, skel.m + skel.n))


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
    if not skeleton_parity_ok(skel):
        return None
    free = n - spec.diagonal_indices[-1] + 1
    return _least_orientation(skel, [*range(n), *range(n + free, 2 * n)], range(n, n + free))


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
