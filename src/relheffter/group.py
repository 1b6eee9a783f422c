"""Exact arithmetic in finite abelian groups given as direct sums of cyclic
groups, on int element codes: the library's one element type."""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import accumulate, chain
from math import gcd, lcm
from typing import Callable, Iterable, Sequence


class GroupError(ValueError):
    """Structural misuse of group arithmetic (spec mismatch, bad factor count)."""


class GroupSpec(namedtuple("GroupSpec", "orders")):
    """A finite abelian group Z_{o1} x ... x Z_{or}, given by its cyclic orders."""

    def __new__(cls, orders: tuple[int, ...]) -> "GroupSpec":
        if not orders:
            raise GroupError("at least one cyclic factor required")
        if any(o < 1 for o in orders):
            raise GroupError(f"every order must be >= 1, got {orders}")
        return tuple.__new__(cls, (orders,))

    @classmethod
    def cyclic(cls, v: int) -> "GroupSpec":
        return cls((v,))

    @property
    def size(self) -> int:
        n = 1
        for o in self.orders:
            n *= o
        return n

    @property
    def is_cyclic_single(self) -> bool:
        return len(self.orders) == 1

    @cached_property
    def codes(self) -> "ElementCodes":
        """Int codes of the elements and their arithmetic, built once per spec."""
        return ElementCodes(self)

    def to_json(self) -> dict:
        return {"orders": list(self.orders)}

    @classmethod
    def from_json(cls, data: dict) -> "GroupSpec":
        orders = data["orders"]
        if not isinstance(orders, list) or not all(type(o) is int for o in orders):
            raise GroupError(f"orders {orders!r} are not a list of integers")
        return cls(tuple(orders))


def subgroup_step(v: int, t: int) -> int:
    """v/t, the least positive member of the order-t subgroup of Z_v: a residue
    lies in that subgroup iff v/t divides it."""
    if v < 1 or t < 1:
        raise GroupError(f"v and t must be positive, got v={v}, t={t}")
    if v % t != 0:
        raise GroupError(f"t={t} does not divide v={v}")
    return v // t


def symmetric_residue(x: int, v: int) -> int:
    """The representative of the canonical residue x of Z_v in
    [-floor(v/2), floor(v/2)]; v/2 maps to +v/2 for even v."""
    return x if x <= v // 2 else x - v


def sum_elements(spec: GroupSpec, codes: Iterable[int]) -> int:
    """The code of the sum of the elements with these codes."""
    return spec.codes.totals([tuple(codes)])[0]


class ElementCodes:
    """The elements of one group as int codes in [0, |G|), and their arithmetic.

    The code of (c_1, ..., c_r) is the mixed-radix number with c_1 most
    significant: the sum of c_i * p_i, where p_i is the product of the orders
    after factor i. So codes sort as coordinate tuples do, the identity is 0,
    and in Z_v the code is the residue. ``add``, ``neg``, ``sub``, ``order``
    and ``coords`` (the coordinates of a code in range) are plain functions on
    one element; ``totals`` (the sum of each line of codes), ``columns`` and
    ``from_columns`` work on whole lists of codes, for hot loops.
    """

    def __init__(self, spec: GroupSpec) -> None:
        self.spec = spec
        places = [1]
        for o in reversed(spec.orders[1:]):
            places.insert(0, places[0] * o)
        self.places = tuple(places)
        if spec.is_cyclic_single:
            v = spec.orders[0]
            self.add: Callable[[int, int], int] = lambda a, b: (a + b) % v
            self.neg: Callable[[int], int] = lambda a: -a % v
            self.sub: Callable[[int, int], int] = lambda a, b: (a - b) % v
            self.order: Callable[[int], int] = lambda a: v // gcd(a, v)
            self.coords: Callable[[int], tuple[int, ...]] = lambda a: (a,)
            return
        # factor i of x is (x // p_i) % o_i, and the higher factors add only
        # multiples of o_i to x // p_i: sums reduce factor by factor from x // p_i
        factors = tuple(zip(self.places, spec.orders))
        self.add = lambda a, b: sum((a // p + b // p) % o * p for p, o in factors)
        self.neg = lambda a: sum(-(a // p) % o * p for p, o in factors)
        self.sub = lambda a, b: sum((a // p - b // p) % o * p for p, o in factors)
        self.order = lambda a: lcm(*(o // gcd(a // p % o, o) for p, o in factors))
        self.coords = lambda a: tuple(a // p % o for p, o in factors)

    def code(self, coords: Sequence[int]) -> int:
        """The code of the element with these coordinates; GroupError unless
        they are canonical residues, one per factor."""
        orders = self.spec.orders
        if len(coords) != len(orders):
            raise GroupError(f"coordinate count {len(coords)} != factor count {len(orders)}")
        for c, o in zip(coords, orders):
            if not 0 <= c < o:
                raise GroupError(f"coordinate {c} not canonical for order {o}")
        return sum(c * p for c, p in zip(coords, self.places))

    def columns(self, codes: Iterable[int]) -> list[list[int]]:
        """The coordinates of codes in range, one list per factor (in Z_v, a
        copy of the codes): factor i of x is (x // p_i) % o_i, which is x // p_1
        for the first factor and x % o_r for the last."""
        codes = list(codes)
        if len(self.places) == 1:
            return [codes]
        p, o = self.places[0], self.spec.orders[-1]
        middle = zip(self.places[1:-1], self.spec.orders[1:-1])
        return [[x // p for x in codes], *([x // q % r for x in codes] for q, r in middle),
                [x % o for x in codes]]

    def totals(self, lines: Sequence[Sequence[int]]) -> list[int]:
        """The sum of each line of codes: in a product group, factor by factor
        over all lines at once, as differences of running sums at the line ends."""
        if len(self.places) == 1:
            v = self.spec.orders[0]
            return [sum(line) % v for line in lines]
        ends = list(accumulate(map(len, lines), initial=0))
        sums = []
        for col, o in zip(self.columns(chain.from_iterable(lines)), self.spec.orders):
            running = list(accumulate(col, initial=0))
            sums.append([(running[b] - running[a]) % o for a, b in zip(ends, ends[1:])])
        return self.from_columns(sums)

    def from_columns(self, columns: Sequence[Iterable[int]]) -> list[int]:
        """The codes of the elements with these canonical coordinates, one list
        per factor: the inverse of columns, by Horner's rule over the factors."""
        codes = list(columns[0])
        for col, o in zip(columns[1:], self.spec.orders[1:]):
            codes = [x * o + c for x, c in zip(codes, col)]
        return codes
