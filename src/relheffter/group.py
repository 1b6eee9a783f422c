"""Exact arithmetic in finite abelian groups given as direct sums of cyclic groups."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence


class GroupError(ValueError):
    """Structural misuse of group arithmetic (spec mismatch, bad factor count)."""


@dataclass(frozen=True)
class GroupSpec:
    """A finite abelian group Z_{o1} x ... x Z_{or}, given by its cyclic orders."""

    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.orders:
            raise GroupError("at least one cyclic factor required")
        if any(o < 1 for o in self.orders):
            raise GroupError(f"every order must be >= 1, got {self.orders}")

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

    def element(self, *coords: int) -> "GroupElement":
        return GroupElement(self, tuple(c % o for c, o in zip(coords, self.orders)))

    @property
    def identity(self) -> "GroupElement":
        return GroupElement(self, (0,) * len(self.orders))

    def elements(self) -> Iterator["GroupElement"]:
        for coords in product(*(range(o) for o in self.orders)):
            yield GroupElement(self, coords)

    def to_json(self) -> dict:
        return {"orders": list(self.orders)}

    @classmethod
    def from_json(cls, data: dict) -> "GroupSpec":
        orders = data["orders"]
        if not isinstance(orders, list) or not all(type(o) is int for o in orders):
            raise GroupError(f"orders {orders!r} are not a list of integers")
        return cls(tuple(orders))


@dataclass(frozen=True)
class GroupElement:
    """An element stored in canonical residues [0, order-1] per factor."""

    spec: GroupSpec
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coords) != len(self.spec.orders):
            raise GroupError(
                f"coordinate count {len(self.coords)} != factor count {len(self.spec.orders)}"
            )
        for c, o in zip(self.coords, self.spec.orders):
            if not 0 <= c < o:
                raise GroupError(f"coordinate {c} not canonical for order {o}")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        return add(self, other)

    def __neg__(self) -> "GroupElement":
        return neg(self)

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return add(self, neg(other))

    @property
    def is_identity(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __repr__(self) -> str:
        if len(self.coords) == 1:
            return f"g{self.coords[0]}"
        return "g" + repr(self.coords)


def add(a: GroupElement, b: GroupElement) -> GroupElement:
    if a.spec != b.spec:
        raise GroupError(f"group mismatch: {a.spec} vs {b.spec}")
    return GroupElement(
        a.spec, tuple((x + y) % o for x, y, o in zip(a.coords, b.coords, a.spec.orders))
    )


def neg(a: GroupElement) -> GroupElement:
    return GroupElement(a.spec, tuple((-x) % o for x, o in zip(a.coords, a.spec.orders)))


def subgroup_of_order(v: int, t: int) -> frozenset[GroupElement]:
    """The unique subgroup {0, v/t, 2v/t, ...} of order t in Z_v."""
    if v < 1 or t < 1:
        raise GroupError(f"v and t must be positive, got v={v}, t={t}")
    if v % t != 0:
        raise GroupError(f"t={t} does not divide v={v}")
    spec = GroupSpec.cyclic(v)
    step = v // t
    return frozenset(spec.element(i * step) for i in range(t))


def symmetric_rep(a: GroupElement) -> int:
    """The representative of a in [-floor(v/2), floor(v/2)]; v/2 maps to +v/2 for even v."""
    if not a.spec.is_cyclic_single:
        raise GroupError("symmetric representatives are defined for single-factor groups only")
    return symmetric_residue(a.coords[0], a.spec.orders[0])


def symmetric_residue(x: int, v: int) -> int:
    """symmetric_rep of the canonical residue x of Z_v."""
    return x if x <= v // 2 else x - v


def from_symmetric(v: int, x: int) -> GroupElement:
    """Inverse of symmetric_rep: the element of Z_v with representative x."""
    return GroupSpec.cyclic(v).element(x)


def sum_coords(orders: tuple[int, ...], coords: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    """Coordinates of the sum of the elements with the given coordinates: one
    integer sum per factor, reduced once (sum(x) % v in a cyclic group)."""
    return tuple(sum(c[f] for c in coords) % o for f, o in enumerate(orders))


def sum_elements(spec: GroupSpec, elems: Sequence[GroupElement]) -> GroupElement:
    for e in elems:
        if e.spec != spec:
            raise GroupError(f"group mismatch: {spec} vs {e.spec}")
    return GroupElement(spec, sum_coords(spec.orders, [e.coords for e in elems]))
