"""Cayley graphs, developed cycle decompositions, rotation systems, and face tracing."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .group import GroupElement, GroupSpec, neg, subgroup_of_order
from .orderings import Ordering, Orientation, orbit, orientation_to_orderings, partial_sums
from .pfarray import PFArray

Edge = frozenset  # frozenset of two GroupElements
DirectedEdge = tuple  # (tail: GroupElement, head: GroupElement)

# The kernels below work on int codes. An element's code is its index in
# spec.elements() order (mixed radix, first factor most significant), so int
# order is coords order. The undirected edge {x, y} with codes x < y has code
# x * |G| + y.


def _code(g: GroupElement) -> int:
    x = 0
    for c, o in zip(g.coords, g.spec.orders):
        x = x * o + c
    return x


def _shift_table(g: GroupElement) -> list[int]:
    """table[x] is the code of x + g, for every code x (digit arithmetic)."""
    table = [0]
    for c, o in zip(g.coords, g.spec.orders):
        digits = [(d + c) % o for d in range(o)]
        table = [t * o + d for t in table for d in digits]
    return table


def _edge_columns(cycle: Cycle, v: int) -> list[list[int]]:
    """For each edge of the cycle, the codes of that edge in cycle + g, indexed by g."""
    tables = [_shift_table(x) for x in cycle.vertices]
    return [[p * v + q if p < q else q * v + p for p, q in zip(a, b)]
            for a, b in zip(tables, tables[1:] + tables[:1])]


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

    def edges(self) -> set[Edge]:
        out: set[Edge] = set()
        for x in self.spec.elements():
            for a in self.connection:
                out.add(frozenset((x, x + a)))
        return out


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

    def canonical_edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges())


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

    Cycle number g * len(base) + i is base[i] + g, where g is an element code;
    ``owner`` maps every edge code to the number of the cycle that covers it.
    """

    graph: CayleyGraph
    base: list[Cycle]
    owner: dict[int, int] = field(default_factory=dict, repr=False)

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
    """Develop the base cycles by every g in G and certify an exact edge partition."""
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

    v = graph.spec.size
    nb = len(base)
    columns = [_edge_columns(cycle, v) for cycle in base]
    owner: dict[int, int] = {}
    for g in range(v):
        for idx, edge_columns in enumerate(columns):
            number = g * nb + idx
            for column in edge_columns:
                e = column[g]
                if e in owner:
                    elements = list(graph.spec.elements())
                    first, g0 = owner[e] % nb, elements[owner[e] // nb]
                    raise CertificationError(
                        f"edge {[elements[e // v].coords, elements[e % v].coords]} covered twice "
                        f"(base {first} + {g0.coords} and base {idx} + {elements[g].coords})"
                    )
                owner[e] = number
    if len(owner) != graph.num_edges:
        raise CertificationError(
            f"covered {len(owner)} edges, graph has {graph.num_edges}"
        )
    return DecompositionCertificate(graph, base, owner)


def verify_orthogonal(d1: DecompositionCertificate, d2: DecompositionCertificate) -> bool:
    """True iff every cycle of d1 shares at most one edge with every cycle of d2."""
    if d1 is d2:
        raise ValueError("orthogonality is defined across two distinct decompositions")
    owner1 = d1.owner
    shared = [(owner1[e], j) for e, j in d2.owner.items() if e in owner1]
    return len(set(shared)) == len(shared)


@dataclass(frozen=True)
class RotationMap:
    """The vertex-rotation seed: a cyclic permutation of +-E(A)."""

    mapping: dict[GroupElement, GroupElement]

    def __call__(self, a: GroupElement) -> GroupElement:
        return self.mapping[a]

    @property
    def domain(self) -> set[GroupElement]:
        return set(self.mapping)


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
    length = len(orbit(mapping.__getitem__, next(iter(mapping))))
    if length != len(mapping):
        raise CertificationError(
            f"rho0 is not cyclic on +-E(A): orbit {length} of {len(mapping)} "
            "(the orderings are not compatible)"
        )
    return RotationMap(mapping)


@dataclass
class EmbeddingReport:
    """Faces of the embedding induced by rho0, with Euler-characteristic genus."""

    V: int
    S: int
    F: int
    faces: list[tuple[DirectedEdge, ...]]
    genus: int
    color_of_face: list[int] | None = None
    formula_genus: int | None = None
    # the vertex codes along each face, aligned with faces; set by trace_faces
    face_codes: list[list[int]] | None = field(default=None, repr=False, compare=False)

    def to_json(self) -> dict:
        data = {"V": self.V, "S": self.S, "F": self.F, "genus": self.genus}
        if self.formula_genus is not None:
            data["formula_genus"] = self.formula_genus
        if self.color_of_face is not None:
            data["color_class_sizes"] = dict(sorted(Counter(self.color_of_face).items()))
        return data


def heffter_genus_formula(m: int, n: int, s: int, k: int, t: int) -> int:
    """Closed-form genus of the biembedding obtained from an H_t(m,n;s,k)."""
    num = (n * k - n - m - 1) * (2 * n * k + t)
    if num % 2 != 0:
        raise ValueError("genus formula does not yield an integer")
    return 1 + num // 2


def trace_faces(graph: CayleyGraph, rho0: RotationMap) -> EmbeddingReport:
    """Faces as orbits of rho o tau on directed edges, where
    rho((x, x+a)) = (x, x + rho0(a)) and tau swaps the directions."""
    connection = graph.connection
    if rho0.domain != set(connection):
        raise ValueError("rotation domain must equal the connection set")
    if set(rho0.mapping.values()) != connection:
        raise ValueError("rotation must permute the connection set")
    spec = graph.spec
    v = spec.size
    conn = list(connection)
    index = {a: i for i, a in enumerate(conn)}
    shifts = [_shift_table(a) for a in conn]
    # the dart (x, x + a) is its directed edge code x * v + (x + a); tau then
    # rho sends it to (x + a, x + a + rho0(-a))
    nxt = [0] * (v * v)
    done = bytearray(b"\x01") * (v * v)  # 0 only for darts not yet walked
    for a, shift in zip(conn, shifts):
        back = shifts[index[rho0(neg(a))]]
        for x, h in enumerate(shift):
            d = x * v + h
            nxt[d] = h * v + back[h]
            done[d] = 0

    # scanning codes upwards meets every face first at its least directed
    # edge, so faces come out canonically rotated and in sorted order
    codes: list[list[int]] = []
    start = done.find(0)
    while start >= 0:
        tails = []
        d = start
        while not done[d]:
            done[d] = 1
            tails.append(d // v)
            d = nxt[d]
        codes.append(tails)
        start = done.find(0, start + 1)

    elements = list(spec.elements())
    faces: list[tuple[DirectedEdge, ...]] = []
    for tails in codes:
        vs = [elements[x] for x in tails]
        faces.append(tuple(zip(vs, vs[1:] + vs[:1])))
    V = v
    S = len(conn) * v // 2
    F = len(faces)
    euler = V - S + F
    if (2 - euler) % 2 != 0:
        raise CertificationError(f"Euler characteristic {euler} gives a non-integer genus")
    return EmbeddingReport(V, S, F, faces, (2 - euler) // 2, face_codes=codes)


def two_color_check(report: EmbeddingReport, array: PFArray, ordering: Ordering) -> bool:
    """Classify every face as a translate of a column base cycle (class 1) or of a
    row base cycle (class 2); check each undirected edge sees one of each.

    Stores the coloring into the report on success.
    """
    col_base, row_base = _bases(array, ordering)
    return _two_color(report, array.spec, col_base, row_base)


def _bases(array: PFArray, ordering: Ordering) -> tuple[list[Cycle], list[Cycle]]:
    """The column base cycles and the base cycles of the reversed rows."""
    # class 2 follows the REVERSED row orderings (omega_r inverse): reversing
    # the ordering negates every partial-sum cycle's edge set
    return (base_cycles(array, ordering, by="col"),
            base_cycles(array, ordering.with_reversed_rows(), by="row"))


def _two_color(report: EmbeddingReport, spec: GroupSpec,
               col_base: list[Cycle], row_base: list[Cycle]) -> bool:
    v = spec.size
    color_of: dict[frozenset[int], int] = {}
    # columns go in last, so a face in both classes gets class 1
    for color, base in ((2, row_base), (1, col_base)):
        for cycle in base:
            color_of.update(dict.fromkeys(map(frozenset, zip(*_edge_columns(cycle, v))), color))

    codes = report.face_codes
    if codes is None:
        index = {g: _code(g) for g in spec.elements()}
        codes = [[index[tail] for tail, _ in face] for face in report.faces]
    colors: list[int] = []
    seen = {1: set(), 2: set()}
    incidences = {1: 0, 2: 0}
    for tails in codes:
        face_edges = frozenset(p * v + q if p < q else q * v + p
                               for p, q in zip(tails, tails[1:] + tails[:1]))
        color = color_of.get(face_edges)
        if color is None:
            return False
        colors.append(color)
        seen[color].update(face_edges)
        incidences[color] += len(face_edges)
    # every edge on exactly one face of each class
    if seen[1] != seen[2] or any(incidences[c] != len(seen[c]) for c in (1, 2)):
        return False
    report.color_of_face = colors
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
    two_colorable = _two_color(report, array.spec, col_base, row_base)
    cols = develop_and_verify(col_base, graph)
    rows = develop_and_verify(row_base, graph)
    return BiembeddingCertificate(report, two_colorable, rows, cols, verify_orthogonal(rows, cols))
