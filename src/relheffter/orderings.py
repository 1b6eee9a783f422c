"""Row/column orderings, simplicity, and the Crazy Knight's Tour machinery."""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate, chain, repeat
from math import lcm
from operator import add
from typing import Mapping, NamedTuple, Sequence

from .group import ElementCodes
from .pfarray import Cell, PFArray, Skeleton, skeleton_from_diagonals, skeleton_of

ArrayLike = PFArray | Skeleton


# -- simplicity ---------------------------------------------------------


def _simple_lines(codes: ElementCodes, lines: Sequence[Sequence[int]]) -> bool:
    """Whether each line of element codes is simple, an empty line being simple:
    its running sums are distinct, so no proper nonempty run of consecutive
    elements sums to zero. In Z_v they are the integer running sums reduced
    mod v, with no call per step. In a product group the running sums over all
    lines concatenated are taken factor by factor (columns), each reduced mod
    its order, and keyed by line: within a line they differ from the line's own
    running sums by a constant, so every line is simple iff no key repeats."""
    if codes.spec.is_cyclic_single:
        v = codes.spec.orders[0]
        return all(len({x % v for x in accumulate(line)}) == len(line) for line in lines)
    flat = list(chain.from_iterable(lines))
    sums = codes.from_columns([[x % o for x in accumulate(col)]
                               for col, o in zip(codes.columns(flat), codes.spec.orders)])
    size = codes.spec.size
    offsets = range(0, size * len(lines), size)  # line i's keys are i * |G| + code
    line_keys = chain.from_iterable(map(repeat, offsets, map(len, lines)))
    return len(set(map(add, sums, line_keys))) == len(flat)


def is_globally_simple(array: PFArray) -> bool:
    """True iff every row (left to right) and column (top to bottom) is simple."""
    return _simple_lines(array.spec.codes, array.index[1])


def orbit(succ: Mapping | Sequence, start) -> list:
    """The cycle of the permutation succ (a mapping, or a list indexed by its
    domain) through start, beginning at start; the permutation is a single
    cycle iff this covers its whole domain. The walk takes at most len(succ)
    steps: within them it is back at start unless succ is no permutation, and
    then it raises ValueError."""
    out, cur = [], start
    for _ in range(len(succ)):
        out.append(cur)
        cur = succ[cur]
        if cur == start:
            return out
    raise ValueError(f"{start!r} lies on no cycle: the map is not a permutation")


# -- orderings ----------------------------------------------------------


def cyclic_successors(lines: Mapping[int, Sequence]) -> dict:
    """The next item of each item along its line, the last followed by the first."""
    return {a: b for line in lines.values() for a, b in zip(line, line[1:] + line[:1])}


class Ordering(NamedTuple):
    """A chosen ordering of the filled cells of each nonempty row and column."""

    row_orders: dict[int, tuple[Cell, ...]]
    col_orders: dict[int, tuple[Cell, ...]]

    def successors(self) -> tuple[dict[Cell, Cell], dict[Cell, Cell]]:
        """The next cell of each filled cell along its row and along its column,
        cyclically in the chosen orders (omega_r and omega_c on cells)."""
        return cyclic_successors(self.row_orders), cyclic_successors(self.col_orders)


class Orientation(namedtuple("Orientation", "r c")):
    """Direction of travel per row (+1 left-to-right) and per column (+1 top-to-bottom)."""

    __slots__ = ()

    def __new__(cls, r: tuple[int, ...], c: tuple[int, ...]) -> "Orientation":
        if any(x not in (1, -1) for x in r + c):
            raise ValueError("orientation entries must be +-1")
        return tuple.__new__(cls, (r, c))

    def to_strings(self) -> tuple[str, str]:
        return (
            "".join("+" if x == 1 else "-" for x in self.r),
            "".join("+" if x == 1 else "-" for x in self.c),
        )

    @classmethod
    def from_strings(cls, rows: str, cols: str) -> "Orientation":
        sign = {"+": 1, "-": -1}
        return cls(tuple(sign[ch] for ch in rows), tuple(sign[ch] for ch in cols))


def oriented_lines(lines: Sequence[Sequence], signs: Sequence[int]) -> dict[int, Sequence]:
    """Each nonempty line, keyed by its number from 1, reversed where its sign is -1."""
    return {i: line[::s] for i, (line, s) in enumerate(zip(lines, signs), start=1) if line}


def orientation_to_orderings(array: ArrayLike, o: Orientation) -> Ordering:
    """Row i ordered left to right iff r_i = +1; column j top to bottom iff c_j = +1."""
    skel = skeleton_of(array)
    cells, lines = skel.index
    lines = [tuple(map(cells.__getitem__, line)) for line in lines]
    return Ordering(oriented_lines(lines[:skel.m], o.r), oriented_lines(lines[skel.m:], o.c))


# -- the Crazy Knight's Tour map ----------------------------------------


def knight_tour(array: ArrayLike, o: Orientation, start: Cell) -> tuple[list[Cell], bool]:
    """The orbit of the composed move starting at start; a solution iff it covers
    every filled cell."""
    skel = skeleton_of(array)
    if not skel.cells:
        raise ValueError("empty array")
    if start not in skel.cells:
        raise ValueError(f"cell {start} is empty")
    row_next, col_next = orientation_to_orderings(skel, o).successors()
    cells = orbit({cell: col_next[nxt] for cell, nxt in row_next.items()}, start)
    return cells, len(cells) == len(skel.cells)


def knight_walk(array: ArrayLike, o: Orientation) -> tuple[list[Cell], bool]:
    """knight_tour from the least filled cell, walked over the skeleton's cell
    numbers (Skeleton.index, Skeleton.steps) rather than over cell successor maps."""
    skel = skeleton_of(array)
    if not skel.cells:
        raise ValueError("empty array")
    cells = skel.index[0]
    row_step, col_step = skel.steps
    r, c = o.r, o.c
    orbit, x = [], 0
    while True:
        orbit.append(cells[x])
        y = row_step[r[cells[x][0] - 1]][x]
        x = col_step[c[cells[y][1] - 1]][y]
        if not x:
            return orbit, len(orbit) == len(cells)


def skeleton_parity_ok(array: ArrayLike) -> bool:
    """|skel(A)| == m + n - 1 (mod 2): required for compatible orderings when no
    row or column of A is empty, so True whenever one is."""
    cells, lines = skeleton_of(array).index
    return not all(lines) or len(cells) % 2 == (array.m + array.n - 1) % 2


def _least_orientation(
    skel: Skeleton, fixed: Sequence[int], free: Sequence[int]
) -> Orientation | None:
    """The lexicographically least solution (+1 before -1) over the signs of the
    free variables, with the fixed ones and all others +1; or None.

    Variable i - 1 is the sign of row i, variable m + j - 1 that of column j.
    A depth-first search sets the fixed variables, then the free ones of lines
    of at most two cells (+1 only), then the other free ones in order.
    The move through cell y (row step into y, column step out of it) is fixed
    once y's row and column signs are set. Fixed moves form path fragments
    (start of the path ending at a cell, end of the path starting at a cell,
    length at the start), so each is added in O(1). A branch is pruned when a
    cycle shorter than |skel| closes and accepted when one through every cell
    does. A skeleton that fails the parity condition has no solution and is
    not searched."""
    if not skeleton_parity_ok(skel):
        return None
    m = skel.m
    cells, lines = skel.index
    row_step, col_step = skel.steps
    size = len(cells)
    row_var = [r - 1 for r, _ in cells]
    col_var = [m + c - 1 for _, c in cells]

    sign = [0] * len(lines)
    start = list(range(size))
    end = list(range(size))
    length = [1] * size
    links: list[tuple[int, int]] = []
    # a line of at most two cells steps the same way under both signs; such a
    # variable never branches, so it is set right after the fixed ones, which
    # fixes its moves early and leaves the branching order as it was
    plus_only = [len(line) <= 2 for line in lines]
    order = [*fixed, *(v for v in free if plus_only[v]), *(v for v in free if not plus_only[v])]
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


def knight_search(array: ArrayLike) -> Orientation | None:
    """The lexicographically least solution (with +1 before -1) over orientations
    with r_1 = +1, by pruned depth-first search over r_2..r_m, c_1..c_n; or None."""
    skel = skeleton_of(array)
    if not skel.cells:
        raise ValueError("empty array")
    return _least_orientation(skel, [0], range(1, skel.m + skel.n))


# -- lifting (enlarging a diagonal-family solution) ---------------------


class LiftSpec(namedtuple("LiftSpec", "diagonal_indices")):
    """The diagonal indices l_1 < ... < l_k of the family A_n(l_1, ..., l_k)."""

    __slots__ = ()

    def __new__(cls, diagonal_indices: tuple[int, ...]) -> "LiftSpec":
        ls = diagonal_indices
        if len(ls) < 2 or list(ls) != sorted(set(ls)) or ls[0] < 1:
            raise ValueError("diagonal indices must be strictly increasing positive integers")
        return tuple.__new__(cls, (ls,))

    @property
    def M(self) -> int:
        ls = self.diagonal_indices
        gaps = [b - a for a, b in zip(ls, ls[1:])] + [ls[-1] - ls[0]]
        return lcm(*gaps)

    def skeleton(self, n: int) -> Skeleton:
        if n <= self.diagonal_indices[-1]:
            raise ValueError(f"need n > l_k = {self.diagonal_indices[-1]}")
        return skeleton_from_diagonals(n, self.diagonal_indices)

    def lift(self, n: int, o: Orientation) -> Orientation:
        """The lift of o, an orientation of A_n, to A_{n+M}: all rows +1, the
        columns of o up to position n - l_k + 1, +1 after. Raises ValueError
        unless o has the liftable shape: of size n, all rows and the columns
        after that position +1."""
        keep = n - self.diagonal_indices[-1] + 1
        if len(o.r) != n or len(o.c) != n or -1 in o.r or -1 in o.c[keep:]:
            raise ValueError("orientation does not have the liftable shape")
        big = n + self.M
        return Orientation((1,) * big, o.c[:keep] + (1,) * (big - keep))


def lift_solution(spec: LiftSpec, n: int, o: Orientation) -> Orientation:
    """Extend a lift-shaped solution of P(A_n) to a verified solution of P(A_{n+M})."""
    skel = spec.skeleton(n)
    lifted = spec.lift(n, o)
    if not knight_walk(skel, o)[1]:
        raise ValueError("input orientation is not a solution")
    if not knight_walk(spec.skeleton(n + spec.M), lifted)[1]:
        raise ValueError("lifted orientation failed verification")
    return lifted


def search_lift_shape(spec: LiftSpec, n: int) -> Orientation | None:
    """Search only orientations of the liftable shape: R all ones, free C prefix
    of length n - l_k + 1, ones after. Returns the lexicographically least."""
    return search_lift_shape_on(spec, spec.skeleton(n))


def search_lift_shape_on(spec: LiftSpec, skel: Skeleton) -> Orientation | None:
    """search_lift_shape on skel, the skeleton of A_n."""
    n = skel.n
    free = n - spec.diagonal_indices[-1] + 1
    return _least_orientation(skel, [*range(n), *range(n + free, 2 * n)], range(n, n + free))


# -- the explicit 9-diagonal family solution ----------------------------


def nine_diagonal_orientation(n: int) -> Orientation:
    """The closed-form solution of the 9-diagonal family: all rows forward,
    first eight columns backward."""
    if n < 21 or n % 14 != 7:
        raise ValueError(f"n must be 7 (mod 14) and >= 21, got {n}")
    return Orientation((1,) * n, (-1,) * 8 + (1,) * (n - 8))
