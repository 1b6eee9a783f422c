"""The object-level group element: the reference that the library's int codes
are tested against.

``GroupElement`` holds canonical residues, one per cyclic factor, and adds,
negates and subtracts them factor by factor; ``elements`` lists a group's
elements in coordinate order. ``encode`` and ``decode`` are the mixed-radix
bijection with int codes written out by Horner's rule and by division, apart
from ``ElementCodes``, and ``total`` folds a list of elements with ``+``. The
library stores and computes on int codes only; the tests and the other
oracles build objects here and compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

from relheffter.group import GroupError, GroupSpec


@dataclass(frozen=True)
class GroupElement:
    """An element stored in canonical residues [0, order-1] per factor."""

    spec: GroupSpec
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_canonical(self.coords, self.spec.orders)

    def __add__(self, other: "GroupElement") -> "GroupElement":
        return add(self, other)

    def __neg__(self) -> "GroupElement":
        return neg(self)

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return add(self, neg(other))

    def __repr__(self) -> str:
        if len(self.coords) == 1:
            return f"g{self.coords[0]}"
        return "g" + repr(self.coords)


def _check_canonical(coords: Sequence[int], orders: tuple[int, ...]) -> None:
    if len(coords) != len(orders):
        raise GroupError(f"coordinate count {len(coords)} != factor count {len(orders)}")
    for c, o in zip(coords, orders):
        if not 0 <= c < o:
            raise GroupError(f"coordinate {c} not canonical for order {o}")


def add(a: GroupElement, b: GroupElement) -> GroupElement:
    if a.spec != b.spec:
        raise GroupError(f"group mismatch: {a.spec} vs {b.spec}")
    return GroupElement(
        a.spec, tuple((x + y) % o for x, y, o in zip(a.coords, b.coords, a.spec.orders))
    )


def neg(a: GroupElement) -> GroupElement:
    return GroupElement(a.spec, tuple((-x) % o for x, o in zip(a.coords, a.spec.orders)))


def elements(spec: GroupSpec) -> Iterator[GroupElement]:
    for coords in product(*(range(o) for o in spec.orders)):
        yield GroupElement(spec, coords)


def zero(spec: GroupSpec) -> GroupElement:
    return GroupElement(spec, (0,) * len(spec.orders))


def total(spec: GroupSpec, elems: Sequence[GroupElement]) -> GroupElement:
    """The sum of the elements, folded with +."""
    out = zero(spec)
    for e in elems:
        out = out + e
    return out


def encode(spec: GroupSpec, g: GroupElement) -> int:
    """The mixed-radix code of g, first coordinate most significant; GroupError
    for an element of another group."""
    if g.spec != spec:
        raise GroupError(f"group mismatch: {spec} vs {g.spec}")
    code = 0
    for c, o in zip(g.coords, spec.orders):
        code = code * o + c
    return code


def decode(spec: GroupSpec, code: int) -> GroupElement:
    """The element with this code; GroupError for a code out of range."""
    if not 0 <= code < spec.size:
        raise GroupError(f"code {code} is not an element of {spec.orders}")
    coords = []
    for o in reversed(spec.orders):
        code, c = divmod(code, o)
        coords.append(c)
    return GroupElement(spec, tuple(reversed(coords)))
