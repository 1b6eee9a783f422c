"""Cayley graphs, G-regular cycle decompositions, rotation systems, and faces."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, lcm
from typing import Sequence

from .group import GroupElement, GroupSpec, neg, subgroup_of_order, sum_elements
from .orderings import Ordering, Orientation, orbit, orientation_to_orderings, partial_sums
from .pfarray import PFArray

Edge = frozenset  # frozenset of two GroupElements
DirectedEdge = tuple  # (tail: GroupElement, head: GroupElement)

# Everything is certified on the quotient: the connection set C and the base
# cycles, never the |G|-fold developed graph. The rotation and both
# decompositions commute with translation, so each face, cycle and edge is a
# translate of one read off C (face lifting: Gross & Tucker, Topological
# Graph Theory, 1987).


def _order(g: GroupElement) -> int:
    return lcm(*(o // gcd(c, o) for c, o in zip(g.coords, g.spec.orders)))


def _rotation_key(seq: Sequence[GroupElement]) -> tuple:
    """The least rotation of the sequence: equal for two sequences iff one is a
    rotation of the other."""
    coords = [g.coords for g in seq]
    return min(tuple(coords[i:] + coords[:i]) for i in range(len(coords)))


class CertificationError(ValueError):
    """A decomposition or embedding certificate failed, with a witness."""


@dataclass(frozen=True)
class CayleyGraph:
    """Cay[G : connection]: vertices G, x ~ y iff x - y in the connection set."""

    spec: GroupSpec
    connection: frozenset[GroupElement]

    def __post_init__(self) -> None:
        for a in self.connection:
            if a.is_identity:
                raise ValueError("connection set must not contain the identity")
            if neg(a) not in self.connection:
                raise ValueError(f"connection set not closed under negation at {a.coords}")

    @classmethod
    def multipartite(cls, v: int, t: int) -> "CayleyGraph":
        """K_{(v/t) x t} as Cay[Z_v : Z_v minus the order-t subgroup]."""
        spec = GroupSpec.cyclic(v)
        forbidden = subgroup_of_order(v, t)
        return cls(spec, frozenset(g for g in spec.elements() if g not in forbidden))

    @classmethod
    def from_entries(cls, array: PFArray) -> "CayleyGraph":
        """Cay[G : +-E(A)]."""
        conn = set()
        for e in array.entries.values():
            conn.add(e)
            conn.add(neg(e))
        return cls(array.spec, frozenset(conn))

    @property
    def num_vertices(self) -> int:
        return self.spec.size

    @property
    def num_edges(self) -> int:
        return self.spec.size * len(self.connection) // 2


@dataclass(frozen=True)
class Cycle:
    """A cycle as its vertex sequence; consecutive vertices (cyclically) adjacent."""

    vertices: tuple[GroupElement, ...]

    def __post_init__(self) -> None:
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("cycle vertices must be distinct")

    def __len__(self) -> int:
        return len(self.vertices)

    def edges(self) -> list[Edge]:
        vs = self.vertices
        return [frozenset((vs[i], vs[(i + 1) % len(vs)])) for i in range(len(vs))]

    def differences(self) -> list[GroupElement]:
        """Both signed differences of each edge; the list has 2 * len entries."""
        vs = self.vertices
        out = []
        for i in range(len(vs)):
            d = vs[(i + 1) % len(vs)] - vs[i]
            out.append(d)
            out.append(neg(d))
        return out

    def translate(self, g: GroupElement) -> "Cycle":
        return Cycle(tuple(v + g for v in self.vertices))


def base_cycles(array: PFArray, ordering: Ordering, by: str = "col") -> list[Cycle]:
    """Partial-sum cycles of each row (by='row') or column (by='col') ordering."""
    if by not in ("row", "col"):
        raise ValueError("by must be 'row' or 'col'")
    cycles = []
    orders = ordering.row_orders if by == "row" else ordering.col_orders
    for index in sorted(orders):
        seq = (ordering.row_entries(array, index) if by == "row"
               else ordering.col_entries(array, index))
        sums = partial_sums(seq)
        if len(set(sums)) != len(sums):
            raise CertificationError(f"{by} {index} ordering is not simple")
        if len(sums) < 3:
            raise CertificationError(f"{by} {index} has fewer than 3 filled cells")
        cycles.append(Cycle(tuple(sums)))
    return cycles


@dataclass
class DecompositionCertificate:
    """A verified G-regular cycle decomposition: all translates of the base cycles.

    ``cycles`` lists base[0] + g, base[1] + g, ... for each g in elements() order.
    ``offsets[d]`` is (i, u) for the one edge (u, u + d) of difference d in the
    base cycles, which lies on base[i]; so the edge {x, x + d} lies on
    base[i] + (x - u).
    """

    graph: CayleyGraph
    base: list[Cycle]
    offsets: dict[GroupElement, tuple[int, GroupElement]] = field(repr=False)

    @property
    def cycles(self) -> list[Cycle]:
        return [c.translate(g) for g in self.graph.spec.elements() for c in self.base]

    @property
    def cycle_lengths(self) -> Counter:
        size = self.graph.spec.size
        return Counter({n: k * size for n, k in Counter(len(c) for c in self.base).items()})

    def to_json(self) -> dict:
        return {
            "num_base_cycles": len(self.base),
            "num_cycles": len(self.base) * self.graph.spec.size,
            "cycle_lengths": dict(sorted(self.cycle_lengths.items())),
            "num_edges": self.graph.num_edges,
        }


def develop_and_verify(base: list[Cycle], graph: CayleyGraph) -> DecompositionCertificate:
    """Certify that the translates of the base cycles partition the edges of the graph.

    They do iff the differences of the base cycles list every element of the
    connection set exactly once: the edge {x, x + d} then lies on exactly one
    translate, and the translates cover |C|/2 * |G| edges."""
    diffs: list[GroupElement] = []
    offsets: dict[GroupElement, tuple[int, GroupElement]] = {}
    for i, cycle in enumerate(base):
        vs = cycle.vertices
        for u, w in zip(vs, vs[1:] + vs[:1]):
            d = w - u
            diffs += [d, neg(d)]
            offsets[d], offsets[neg(d)] = (i, u), (i, w)
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
    return DecompositionCertificate(graph, base, offsets)


def verify_orthogonal(d1: DecompositionCertificate, d2: DecompositionCertificate) -> bool:
    """True iff every cycle of d1 shares at most one edge with every cycle of d2.

    The edge {x, x + d} lies on base1[i] + (x - u1) and base2[j] + (x - u2), so
    two edges lie on the same two cycles iff their differences give the same
    (i, j, u2 - u1). Both signs of one difference give the same triple."""
    if d1 is d2:
        raise ValueError("orthogonality is defined across two distinct decompositions")
    pairs = set()
    for d, (i, u1) in d1.offsets.items():
        j, u2 = d2.offsets[d]
        pairs.add((i, j, u2 - u1))
    return 2 * len(pairs) == len(d1.offsets)


@dataclass(frozen=True)
class RotationMap:
    """The vertex-rotation seed: a cyclic permutation of +-E(A)."""

    mapping: dict[GroupElement, GroupElement]

    def __call__(self, a: GroupElement) -> GroupElement:
        return self.mapping[a]


def entry_successor_maps(
    array: PFArray, ordering: Ordering
) -> tuple[dict[GroupElement, GroupElement], dict[GroupElement, GroupElement]]:
    """omega_r and omega_c as entry-level cyclic successor maps (entries distinct)."""
    omega_r: dict[GroupElement, GroupElement] = {}
    for i, cells in ordering.row_orders.items():
        seq = [array.entries[c] for c in cells]
        for p, e in enumerate(seq):
            if e in omega_r:
                raise ValueError("entries are not distinct; entry-level orderings undefined")
            omega_r[e] = seq[(p + 1) % len(seq)]
    omega_c: dict[GroupElement, GroupElement] = {}
    for j, cells in ordering.col_orders.items():
        seq = [array.entries[c] for c in cells]
        for p, e in enumerate(seq):
            omega_c[e] = seq[(p + 1) % len(seq)]
    return omega_r, omega_c


def build_rho0(array: PFArray, ordering: Ordering) -> RotationMap:
    """rho0(a) = -omega_r(a) on E(A) and omega_c(-a) on -E(A); must be one cycle."""
    omega_r, omega_c = entry_successor_maps(array, ordering)
    entries = set(omega_r)
    mapping: dict[GroupElement, GroupElement] = {}
    for a in entries:
        mapping[a] = neg(omega_r[a])
        mapping[neg(a)] = omega_c[a]
    try:
        length = len(orbit(mapping.__getitem__, next(iter(mapping))))
    except ValueError as exc:  # only when +-E(A) has repeats, so some entries collided
        raise ValueError("rho0 is no permutation: an entry is 0 or the negative of an entry") from exc
    if length != len(mapping):
        raise CertificationError(
            f"rho0 is not cyclic on +-E(A): orbit {length} of {len(mapping)} "
            "(the orderings are not compatible)"
        )
    return RotationMap(mapping)


@dataclass
class EmbeddingReport:
    """The embedding induced by rho0, with Euler-characteristic genus.

    It is stored as the cycles of pi(a) = rho0(-a) on C. A pi-cycle
    (a_0, ..., a_{L-1}) with net voltage s = a_0 + ... + a_{L-1} lifts to
    |G| / ord(s) faces of length L * ord(s): the face through the dart
    (x, x + a_0) runs x, x + a_0, x + a_0 + a_1, ... and closes after ord(s)
    laps. ``faces`` and ``color_of_face`` are developed from them when read.
    """

    V: int
    S: int
    F: int
    genus: int
    spec: GroupSpec = field(repr=False)
    pi_cycles: list[tuple[GroupElement, ...]] = field(repr=False)
    orders: list[int] = field(repr=False)  # ord(net voltage) of each pi-cycle
    pi_colors: list[int] | None = None  # the class of each pi-cycle; set by two_color_check
    formula_genus: int | None = None

    @cached_property
    def _lifted(self) -> list[tuple[tuple[DirectedEdge, ...], int]]:
        """Every face with the number of its pi-cycle, rotated to start at its
        least directed edge, in sorted order."""
        lifted = []
        for number, (cycle, order) in enumerate(zip(self.pi_cycles, self.orders)):
            covered: set[GroupElement] = set()  # tails of the a_0 darts already walked
            for x in self.spec.elements():
                if x in covered:
                    continue
                darts, y = [], x
                for _ in range(order):
                    covered.add(y)
                    for a in cycle:
                        darts.append((y, y + a))
                        y = y + a
                least = min(range(len(darts)),
                            key=lambda i: (darts[i][0].coords, darts[i][1].coords))
                lifted.append((tuple(darts[least:] + darts[:least]), number))
        lifted.sort(key=lambda f: (f[0][0][0].coords, f[0][0][1].coords))
        return lifted

    @property
    def faces(self) -> list[tuple[DirectedEdge, ...]]:
        return [face for face, _ in self._lifted]

    @property
    def color_of_face(self) -> list[int] | None:
        """The class of each face, aligned with faces; None until two_color_check succeeds."""
        if self.pi_colors is None:
            return None
        return [self.pi_colors[number] for _, number in self._lifted]

    def to_json(self) -> dict:
        data = {"V": self.V, "S": self.S, "F": self.F, "genus": self.genus}
        if self.formula_genus is not None:
            data["formula_genus"] = self.formula_genus
        if self.pi_colors is not None:
            # a coloured pi-cycle has voltage 0, so it lifts to |G| faces
            data["color_class_sizes"] = {c: k * self.V
                                         for c, k in sorted(Counter(self.pi_colors).items())}
        return data


def heffter_genus_formula(m: int, n: int, s: int, k: int, t: int) -> int:
    """Closed-form genus of the biembedding obtained from an H_t(m,n;s,k)."""
    num = (n * k - n - m - 1) * (2 * n * k + t)
    if num % 2 != 0:
        raise ValueError("genus formula does not yield an integer")
    return 1 + num // 2


def trace_faces(graph: CayleyGraph, rho0: RotationMap) -> EmbeddingReport:
    """Faces as orbits of rho o tau on directed edges, where
    rho((x, x+a)) = (x, x + rho0(a)) and tau swaps the directions.

    rho o tau sends (x, x + a) to (x + a, x + a + pi(a)) with pi(a) = rho0(-a),
    so the faces are the lifts of the cycles of pi on C: O(|C|), not O(|G| |C|)."""
    connection = graph.connection
    if set(rho0.mapping) != connection:
        raise ValueError("rotation domain must equal the connection set")
    if set(rho0.mapping.values()) != connection:
        raise ValueError("rotation must permute the connection set")
    cycles: list[tuple[GroupElement, ...]] = []
    seen: set[GroupElement] = set()
    for a in sorted(connection, key=lambda g: g.coords):
        if a not in seen:
            cycles.append(tuple(orbit(lambda b: rho0(neg(b)), a)))
            seen.update(cycles[-1])
    orders = [_order(sum_elements(graph.spec, cycle)) for cycle in cycles]
    V = graph.num_vertices
    S = graph.num_edges
    F = sum(V // order for order in orders)
    euler = V - S + F
    if (2 - euler) % 2 != 0:
        raise CertificationError(f"Euler characteristic {euler} gives a non-integer genus")
    return EmbeddingReport(V, S, F, (2 - euler) // 2, graph.spec, cycles, orders)


def two_color_check(report: EmbeddingReport, array: PFArray, ordering: Ordering) -> bool:
    """Classify every face as a translate of a column base cycle (class 1) or of a
    row base cycle (class 2); check each undirected edge sees one of each.

    Stores the coloring into the report on success.
    """
    col_base, row_base = _bases(array, ordering)
    return _two_color(report, col_base, row_base)


def _bases(array: PFArray, ordering: Ordering) -> tuple[list[Cycle], list[Cycle]]:
    """The column base cycles and the base cycles of the reversed rows."""
    # class 2 follows the REVERSED row orderings (omega_r inverse): reversing
    # the ordering negates every partial-sum cycle's edge set
    return (base_cycles(array, ordering, by="col"),
            base_cycles(array, ordering.with_reversed_rows(), by="row"))


def _two_color(report: EmbeddingReport, col_base: list[Cycle], row_base: list[Cycle]) -> bool:
    """Per pi-cycle: its faces are translates of a base cycle B traversed once iff
    its steps are those of B up to rotation, or those of B reversed and negated
    (steps that sum to 0, so the faces close after one lap; a face of more laps
    repeats its steps, which a cycle of distinct entries never does). The edge
    {x, x + a} has one side on a face of a's pi-cycle and the other on a face of
    -a's."""
    class_of_steps: dict[tuple, int] = {}
    # columns go in last, so a face in both classes gets class 1
    for color, base in ((2, row_base), (1, col_base)):
        for cycle in base:
            vs = cycle.vertices
            steps = [w - u for u, w in zip(vs[-1:] + vs[:-1], vs)]
            class_of_steps[_rotation_key(steps)] = color
            class_of_steps[_rotation_key([neg(a) for a in reversed(steps)])] = color
    colors = []
    for cycle in report.pi_cycles:
        color = class_of_steps.get(_rotation_key(cycle))
        if color is None:
            return False
        colors.append(color)
    class_of = {a: color for cycle, color in zip(report.pi_cycles, colors) for a in cycle}
    if any(class_of[a] == class_of[neg(a)] for a in class_of):
        return False
    report.pi_colors = colors
    return True


@dataclass
class BiembeddingCertificate:
    """The certified biembedding of one array under one orientation."""

    embedding: EmbeddingReport
    two_colorable: bool
    row_decomposition: DecompositionCertificate
    col_decomposition: DecompositionCertificate
    orthogonal: bool

    @property
    def ok(self) -> bool:
        """Two-colourable, orthogonal, and of the formula genus when one is set."""
        formula = self.embedding.formula_genus
        return (self.two_colorable and self.orthogonal
                and (formula is None or formula == self.embedding.genus))

    def to_json(self) -> dict:
        return {
            "embedding": self.embedding.to_json(),
            "two_colorable": self.two_colorable,
            "row_decomposition": self.row_decomposition.to_json(),
            "col_decomposition": self.col_decomposition.to_json(),
            "orthogonal": self.orthogonal,
        }


def certify_biembedding(array: PFArray, orientation: Orientation) -> BiembeddingCertificate:
    """The whole chain: the orientation's orderings, rho0 as one cycle on +-E(A),
    the traced faces, their two-colouring, the exact development of the column
    and reversed-row decompositions, and their orthogonality.

    Raises CertificationError with a witness when a stage cannot be certified,
    and ValueError when the entries are not distinct."""
    ordering = orientation_to_orderings(array, orientation)
    rho0 = build_rho0(array, ordering)
    graph = CayleyGraph.from_entries(array)
    report = trace_faces(graph, rho0)
    col_base, row_base = _bases(array, ordering)
    two_colorable = _two_color(report, col_base, row_base)
    cols = develop_and_verify(col_base, graph)
    rows = develop_and_verify(row_base, graph)
    return BiembeddingCertificate(report, two_colorable, rows, cols, verify_orthogonal(rows, cols))
