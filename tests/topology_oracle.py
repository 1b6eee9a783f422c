"""Object-level reference implementations of the topology certificate.

These are the straightforward versions of ``trace_faces``, ``two_color_check``,
``develop_and_verify`` and ``verify_orthogonal`` over the developed graph:
``GroupElement`` vertices, frozenset edges, ``(tail, head)`` darts and every
translate of every base cycle. The library certifies on the quotient (the
connection set and the base cycles); the tests compare the two on the same
inputs.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

from relheffter.group import GroupElement
from relheffter.orderings import Ordering
from relheffter.pfarray import PFArray
from relheffter.topology import (
    CayleyGraph,
    CertificationError,
    Cycle,
    DirectedEdge,
    Edge,
    RotationMap,
    base_cycles,
)


@dataclass
class Report:
    """The faces of an embedding, traced dart by dart."""

    V: int
    S: int
    F: int
    faces: list[tuple[DirectedEdge, ...]]
    genus: int
    color_of_face: list[int] | None = None

    def to_json(self) -> dict:
        data = {"V": self.V, "S": self.S, "F": self.F, "genus": self.genus}
        if self.color_of_face is not None:
            data["color_class_sizes"] = dict(sorted(Counter(self.color_of_face).items()))
        return data


@dataclass
class Decomposition:
    """Every translate of the base cycles, stored explicitly."""

    graph: CayleyGraph
    base: list[Cycle]
    cycles: list[Cycle] = field(default_factory=list)

    @property
    def cycle_lengths(self) -> Counter:
        return Counter(len(c) for c in self.cycles)

    def to_json(self) -> dict:
        return {
            "num_base_cycles": len(self.base),
            "num_cycles": len(self.cycles),
            "cycle_lengths": dict(sorted(self.cycle_lengths.items())),
            "num_edges": self.graph.num_edges,
        }


def develop_and_verify(base: list[Cycle], graph: CayleyGraph) -> Decomposition:
    diffs: list[GroupElement] = []
    for cycle in base:
        diffs.extend(cycle.differences())
    counts = Counter(diffs)
    for d, c in counts.items():
        if c > 1:
            raise CertificationError(f"difference {d.coords} appears {c} times in the base cycles")
    if set(counts) != set(graph.connection):
        missing = next(iter(set(graph.connection) - set(counts)), None)
        extra = next(iter(set(counts) - set(graph.connection)), None)
        raise CertificationError(
            f"difference list != connection set (missing={missing}, extra={extra})"
        )

    cert = Decomposition(graph, base)
    seen: dict[Edge, tuple[int, GroupElement]] = {}
    for g in graph.spec.elements():
        for idx, cycle in enumerate(base):
            t = cycle.translate(g)
            cert.cycles.append(t)
            for edge in t.edges():
                if edge in seen:
                    raise CertificationError(
                        f"edge {sorted(v.coords for v in edge)} covered twice "
                        f"(base {seen[edge][0]} + {seen[edge][1].coords} and base {idx} + {g.coords})"
                    )
                seen[edge] = (idx, g)
    if len(seen) != graph.num_edges:
        raise CertificationError(
            f"covered {len(seen)} edges, graph has {graph.num_edges}"
        )
    return cert


def verify_orthogonal(d1, d2) -> bool:
    """Works on anything with ``cycles``: kernel certificates or Decomposition."""
    if d1 is d2:
        raise ValueError("orthogonality is defined across two distinct decompositions")
    owner1: dict[Edge, int] = {}
    for i, cycle in enumerate(d1.cycles):
        for edge in cycle.edges():
            owner1[edge] = i
    pair_counts: Counter = Counter()
    for j, cycle in enumerate(d2.cycles):
        for edge in cycle.edges():
            i = owner1.get(edge)
            if i is not None:
                pair_counts[(i, j)] += 1
                if pair_counts[(i, j)] > 1:
                    return False
    return True


def trace_faces(graph: CayleyGraph, rho0: RotationMap) -> Report:
    """Loops forever when rho0 does not permute the connection set; callers
    pass only bijective rotations."""
    if set(rho0.mapping) != graph.connection:
        raise ValueError("rotation domain must equal the connection set")
    vertices = list(graph.spec.elements())
    directed = [(x, x + a) for x in vertices for a in graph.connection]
    unvisited = set(directed)
    faces: list[tuple[DirectedEdge, ...]] = []
    while unvisited:
        start = next(iter(unvisited))
        face = []
        cur = start
        while True:
            face.append(cur)
            unvisited.discard(cur)
            tail, head = cur
            cur = (head, head + rho0(tail - head))
            if cur == start:
                break
        faces.append(_canonical_rotation(tuple(face)))

    V = len(vertices)
    S = len(directed) // 2
    F = len(faces)
    euler = V - S + F
    if (2 - euler) % 2 != 0:
        raise CertificationError(f"Euler characteristic {euler} gives a non-integer genus")
    faces.sort(key=lambda f: (f[0][0].coords, f[0][1].coords))
    return Report(V, S, F, faces, (2 - euler) // 2)


def _canonical_rotation(face: tuple[DirectedEdge, ...]) -> tuple[DirectedEdge, ...]:
    key = min(range(len(face)), key=lambda i: (face[i][0].coords, face[i][1].coords))
    return face[key:] + face[:key]


def two_color_check(report: Report, array: PFArray, ordering: Ordering) -> bool:
    reversed_rows = Ordering(
        {i: tuple(reversed(cells)) for i, cells in ordering.row_orders.items()},
        ordering.col_orders,
    )
    col_sets = _developed_edge_sets(array, ordering, "col")
    row_sets = _developed_edge_sets(array, reversed_rows, "row")

    colors: list[int] = []
    edge_classes: dict[Edge, list[int]] = defaultdict(list)
    for face in report.faces:
        face_edges = frozenset(frozenset(e) for e in face)
        if face_edges in col_sets:
            color = 1
        elif face_edges in row_sets:
            color = 2
        else:
            return False
        colors.append(color)
        for e in face_edges:
            edge_classes[e].append(color)
    for classes in edge_classes.values():
        if sorted(classes) != [1, 2]:
            return False
    report.color_of_face = colors
    return True


def _developed_edge_sets(array: PFArray, ordering: Ordering, by: str) -> set[frozenset[Edge]]:
    graph = CayleyGraph.from_entries(array)
    out: set[frozenset[Edge]] = set()
    for cycle in base_cycles(array, ordering, by=by):
        for g in graph.spec.elements():
            out.add(frozenset(cycle.translate(g).edges()))
    return out
