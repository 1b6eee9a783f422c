"""Object-level reference implementations of the topology certificate.

These are the straightforward versions of ``build_rho0``, ``trace_faces``,
``two_color_check``, ``develop_and_verify`` and ``verify_orthogonal`` over the
developed graph: ``GroupElement`` vertices, frozenset edges, ``(tail, head)``
darts and every translate of every base cycle. The library certifies on the
quotient (the connection set and the base cycles) in int element codes; the
oracle takes the library's graph, rotation and base cycles, decodes them once
with ``group_oracle.decode``, and the tests compare the two on the same inputs.
``multipartite``, ``edges``, ``cycles`` and ``color_of_face`` read the same
objects off the library's graphs, cycles and certificates, and
``coordinate_faces`` writes a Report's faces as the library's coordinate
darts.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

from group_oracle import GroupElement, decode, elements, encode, neg
from pfarray_oracle import entries
from relheffter.group import GroupSpec, subgroup_step
from relheffter.orderings import Ordering, orbit
from relheffter.pfarray import PFArray
from relheffter.topology import (
    CayleyGraph,
    CertificationError,
    DecompositionCertificate,
    DirectedEdge,
    EmbeddingReport,
    base_cycles,
)

Edge = frozenset  # frozenset of two vertices


def multipartite(v: int, t: int) -> CayleyGraph:
    """K_{(v/t) x t} as Cay[Z_v : Z_v minus the order-t subgroup]."""
    step = subgroup_step(v, t)  # the subgroup is the multiples of v/t
    return CayleyGraph(GroupSpec.cyclic(v), frozenset(x for x in range(v) if x % step))


def edges(vs: tuple) -> list[Edge]:
    return [frozenset((vs[i], vs[(i + 1) % len(vs)])) for i in range(len(vs))]


def cycles(cert: DecompositionCertificate) -> list[tuple[GroupElement, ...]]:
    """Every translate of the base cycles as GroupElements: base[0] + g,
    base[1] + g, ... for each g in elements() order."""
    spec = cert.graph.spec
    return [translate(decoded(c, spec), g) for g in elements(spec) for c in cert.base]


def color_of_face(report: EmbeddingReport) -> list[int] | None:
    """The class of each face, aligned with report.faces: that of the pi-cycle
    that holds its first step. None until two_color_check succeeds."""
    if report.pi_colors is None:
        return None
    color = {a: c for cycle, c in zip(report.pi_cycles, report.pi_colors) for a in cycle}
    spec = report.spec
    return [color[encode(spec, GroupElement(spec, w) - GroupElement(spec, u))]
            for (u, w), *_ in report.faces]


def coordinate_faces(faces: list[tuple[DirectedEdge, ...]]) -> list[tuple[DirectedEdge, ...]]:
    """Faces of GroupElement darts as darts of coordinate tuples."""
    return [tuple((u.coords, w.coords) for u, w in face) for face in faces]


def decoded(cycle: tuple[int, ...], spec: GroupSpec) -> tuple[GroupElement, ...]:
    """A cycle of element codes as a cycle of GroupElements."""
    return tuple(decode(spec, v) for v in cycle)


def translate(cycle: tuple[GroupElement, ...], g: GroupElement) -> tuple[GroupElement, ...]:
    return tuple(v + g for v in cycle)


def differences(cycle: tuple[int, ...], spec: GroupSpec) -> list[GroupElement]:
    """Both signed differences of each edge of a cycle of element codes; the
    list has 2 * len entries."""
    vs = decoded(cycle, spec)
    out = []
    for i in range(len(vs)):
        d = vs[(i + 1) % len(vs)] - vs[i]
        out += [d, neg(d)]
    return out


def connection(graph: CayleyGraph) -> frozenset[GroupElement]:
    return frozenset(decode(graph.spec, a) for a in graph.connection)


def entry_successor_maps(
    array: PFArray, ordering: Ordering
) -> tuple[dict[int, int], dict[int, int]]:
    """omega_r and omega_c on entry codes, read off the cell successor maps."""
    code = array.entry_codes
    row_next, col_next = ordering.successors()
    return ({code[a]: code[b] for a, b in row_next.items()},
            {code[a]: code[b] for a, b in col_next.items()})


def build_rho0(array: PFArray, ordering: Ordering) -> dict[GroupElement, GroupElement]:
    """rho0 on GroupElements, walked from the least key."""
    row_next, col_next = ordering.successors()
    es = entries(array)
    omega_r = {es[a]: es[b] for a, b in row_next.items()}
    if len(omega_r) != len(row_next):
        raise ValueError("entries are not distinct; entry-level orderings undefined")
    omega_c = {es[a]: es[b] for a, b in col_next.items()}
    rho0: dict[GroupElement, GroupElement] = {}
    for a in set(omega_r):
        rho0[a] = neg(omega_r[a])
        rho0[neg(a)] = omega_c[a]
    if len(rho0) != 2 * len(omega_r):  # +-E(A) has a repeat
        raise ValueError("rho0 is no permutation: an entry is 0 or the negative of an entry")
    length = len(orbit(rho0.__getitem__, min(rho0, key=lambda e: e.coords)))
    if length != len(rho0):
        raise CertificationError(
            f"rho0 is not cyclic on +-E(A): orbit {length} of {len(rho0)} "
            "(the orderings are not compatible)"
        )
    return rho0


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
    base: list[tuple[int, ...]]  # as given: element codes
    cycles: list[tuple[GroupElement, ...]] = field(default_factory=list)

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


def develop_and_verify(base: list[tuple[int, ...]], graph: CayleyGraph) -> Decomposition:
    diffs: list[GroupElement] = []
    for cycle in base:
        if len(set(cycle)) != len(cycle):
            raise ValueError("cycle vertices must be distinct")
        diffs.extend(differences(cycle, graph.spec))
    counts = Counter(diffs)
    for d, c in counts.items():
        if c > 1:
            raise CertificationError(f"difference {d.coords} appears {c} times in the base cycles")
    conn = connection(graph)
    if set(counts) != conn:
        # the least of each set difference, in coordinate-tuple order
        missing = min(conn - set(counts), key=lambda e: e.coords, default=None)
        extra = min(set(counts) - conn, key=lambda e: e.coords, default=None)
        raise CertificationError(
            f"difference list != connection set (missing={missing}, extra={extra})"
        )

    cert = Decomposition(graph, base)
    objects = [decoded(cycle, graph.spec) for cycle in base]
    seen: dict[Edge, tuple[int, GroupElement]] = {}
    for g in elements(graph.spec):
        for idx, cycle in enumerate(objects):
            t = translate(cycle, g)
            cert.cycles.append(t)
            for edge in edges(t):
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
    """On two Decompositions, which list every cycle."""
    if d1 is d2:
        raise ValueError("orthogonality is defined across two distinct decompositions")
    owner1: dict[Edge, int] = {}
    for i, cycle in enumerate(d1.cycles):
        for edge in edges(cycle):
            owner1[edge] = i
    pair_counts: Counter = Counter()
    for j, cycle in enumerate(d2.cycles):
        for edge in edges(cycle):
            i = owner1.get(edge)
            if i is not None:
                pair_counts[(i, j)] += 1
                if pair_counts[(i, j)] > 1:
                    return False
    return True


def trace_faces(graph: CayleyGraph, rho0: dict[int, int]) -> Report:
    """Loops forever when rho0 does not permute the connection set; callers
    pass only bijective rotations."""
    spec = graph.spec
    conn = connection(graph)
    rotation = {decode(spec, a): decode(spec, b) for a, b in rho0.items()}
    if set(rotation) != conn:
        raise ValueError("rotation domain must equal the connection set")
    vertices = list(elements(spec))
    directed = [(x, x + a) for x in vertices for a in conn]
    unvisited = set(directed)
    faces: list[tuple[DirectedEdge, ...]] = []
    for start in directed:
        if start not in unvisited:
            continue
        face = []
        cur = start
        while True:
            face.append(cur)
            unvisited.discard(cur)
            tail, head = cur
            cur = (head, head + rotation[tail - head])
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
    out: set[frozenset[Edge]] = set()
    for cycle in base_cycles(array, ordering, by=by):
        cycle = decoded(cycle, array.spec)
        for g in elements(array.spec):
            out.add(frozenset(edges(translate(cycle, g))))
    return out
