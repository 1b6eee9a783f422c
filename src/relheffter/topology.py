"""Cayley graphs, G-regular cycle decompositions, rotation systems, and faces."""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import cached_property
from itertools import accumulate
from typing import Callable, Mapping, NamedTuple, Sequence

from .group import ElementCodes, GroupSpec
from .orderings import Ordering, Orientation, cyclic_successors, orbit, oriented_lines
from .pfarray import Cell, PFArray

DirectedEdge = tuple  # (tail, head)

# Everything is certified on the quotient: the connection set C and the base
# cycles, never the |G|-fold developed graph. The rotation and both
# decompositions commute with translation, so each face, cycle and edge is a
# translate of one read off C (face lifting: Gross & Tucker, Topological
# Graph Theory, 1987).
#
# Group elements are int codes (GroupSpec.codes) throughout, as the array
# stores them (PFArray.entry_codes); coordinates appear only in the faces
# developed when read and in witness messages. Orderings are lines of codes:
# certify_biembedding reads them off PFArray.index, and the functions that
# take an Ordering of cells translate it first.

Lines = Mapping[int, Sequence[int]]  # line index -> its entry codes in order


def _rotation_key(seq: Sequence[int]) -> tuple[int, ...]:
    """The rotation of the sequence that starts at its least element: equal for
    two sequences of distinct elements iff one is a rotation of the other."""
    seq = tuple(seq)
    i = seq.index(min(seq))
    return seq[i:] + seq[:i]


class CertificationError(ValueError):
    """A decomposition or embedding certificate failed, with a witness."""


class CayleyGraph(namedtuple("CayleyGraph", "spec connection")):
    """Cay[G : connection]: vertices G, x ~ y iff x - y in the connection set,
    a set of element codes."""

    __slots__ = ()

    def __new__(cls, spec: GroupSpec, connection: frozenset[int]) -> "CayleyGraph":
        codes = spec.codes
        for a in connection:
            if not 0 <= a < spec.size:
                raise ValueError(f"connection code {a} is not an element of {spec.orders}")
            if a == 0:
                raise ValueError("connection set must not contain the identity")
            if codes.neg(a) not in connection:
                raise ValueError(
                    f"connection set not closed under negation at {codes.coords(a)}")
        return tuple.__new__(cls, (spec, connection))

    @classmethod
    def from_entries(cls, array: PFArray) -> "CayleyGraph":
        """Cay[G : +-E(A)]."""
        neg, codes = array.spec.codes.neg, array.entry_codes.values()
        return cls(array.spec, frozenset(c for e in codes for c in (e, neg(e))))

    @property
    def num_edges(self) -> int:
        return self.spec.size * len(self.connection) // 2


def _code_lines(array: PFArray, *orders: Mapping[int, Sequence[Cell]]) -> list[Lines]:
    """Each of an Ordering's row_orders or col_orders as lines of entry codes."""
    code = array.entry_codes.__getitem__
    return [{i: tuple(map(code, cells)) for i, cells in lines.items()} for lines in orders]


def base_cycles(array: PFArray, ordering: Ordering, by: str = "col") -> list[tuple]:
    """Partial-sum cycles of each row (by='row') or column (by='col') ordering."""
    if by not in ("row", "col"):
        raise ValueError("by must be 'row' or 'col'")
    lines = _code_lines(array, ordering.row_orders if by == "row" else ordering.col_orders)[0]
    return _cycles(array.spec.codes.add, lines, by)


def _cycles(add: Callable[[int, int], int], lines: Lines, by: str) -> list[tuple]:
    """The partial-sum cycle of each line, in increasing line index."""
    cycles = []
    for index in sorted(lines):
        sums = list(accumulate(lines[index], add))
        if len(set(sums)) != len(sums):
            raise CertificationError(f"{by} {index} ordering is not simple")
        if len(sums) < 3:
            raise CertificationError(f"{by} {index} has fewer than 3 filled cells")
        cycles.append(tuple(sums))
    return cycles


class DecompositionCertificate(NamedTuple):
    """A verified G-regular cycle decomposition: all translates of the base cycles.

    ``offsets[d]`` is (i, u) for the one edge (u, u + d) of difference d in the
    base cycles, which lies on base[i]; so the edge {x, x + d} lies on
    base[i] + (x - u). Differences and offsets are element codes.
    """

    graph: CayleyGraph
    base: list[tuple]  # each base cycle's vertex codes, cyclically adjacent
    offsets: dict[int, tuple[int, int]]

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


def develop_and_verify(base: list[tuple], graph: CayleyGraph) -> DecompositionCertificate:
    """Certify that the translates of the base cycles partition the edges of the graph.

    They do iff the differences of the base cycles list every element of the
    connection set exactly once: the edge {x, x + d} then lies on exactly one
    translate, and the translates cover |C|/2 * |G| edges. A failure names the
    least missing and the least extra difference. A cycle that repeats a
    vertex is refused with a ValueError."""
    codes = graph.spec.codes
    sub, neg = codes.sub, codes.neg
    diffs: list[int] = []
    offsets: dict[int, tuple[int, int]] = {}
    for i, vs in enumerate(base):
        if len(set(vs)) != len(vs):
            raise ValueError("cycle vertices must be distinct")
        for u, w in zip(vs, vs[1:] + vs[:1]):
            d = sub(w, u)
            nd = neg(d)
            diffs += (d, nd)
            offsets[d], offsets[nd] = (i, u), (i, w)
    counts = Counter(diffs)
    for d, c in counts.items():
        if c > 1:
            raise CertificationError(
                f"difference {codes.coords(d)} appears {c} times in the base cycles")
    if counts.keys() != graph.connection:
        missing, extra = (_least(codes, s) for s in
                          (graph.connection - counts.keys(), counts.keys() - graph.connection))
        raise CertificationError(
            f"difference list != connection set (missing={missing}, extra={extra})"
        )
    return DecompositionCertificate(graph, base, offsets)


def _least(codes: ElementCodes, found: set[int]) -> str:
    """The least of a set of codes as a witness names an element: g11 in Z_v,
    g(8, 2) in a product group, and None for an empty set."""
    if not found:
        return "None"
    coords = codes.coords(min(found))
    return f"g{coords[0]}" if len(coords) == 1 else f"g{coords}"


def verify_orthogonal(d1: DecompositionCertificate, d2: DecompositionCertificate) -> bool:
    """True iff every cycle of d1 shares at most one edge with every cycle of d2.

    The edge {x, x + d} lies on base1[i] + (x - u1) and base2[j] + (x - u2), so
    two edges lie on the same two cycles iff their differences give the same
    (i, j, u2 - u1). Both signs of one difference give the same triple."""
    if d1 is d2:
        raise ValueError("orthogonality is defined across two distinct decompositions")
    sub = d1.graph.spec.codes.sub
    pairs = set()
    for d, (i, u1) in d1.offsets.items():
        j, u2 = d2.offsets[d]
        pairs.add((i, j, sub(u2, u1)))
    return 2 * len(pairs) == len(d1.offsets)


def build_rho0(array: PFArray, ordering: Ordering) -> dict[int, int]:
    """The vertex-rotation seed, a cyclic permutation of +-E(A) on element
    codes: rho0(a) = -omega_r(a) on E(A) and omega_c(-a) on -E(A)."""
    return _rho0(array.spec.codes, *_code_lines(array, ordering.row_orders, ordering.col_orders))


def _rho0(codes: ElementCodes, rows: Lines, cols: Lines) -> dict[int, int]:
    """build_rho0 on lines of entry codes, omega_r and omega_c being the next
    code along its row and along its column; a failing walk starts at the
    least code."""
    omega_r, omega_c = cyclic_successors(rows), cyclic_successors(cols)
    if len(omega_r) != sum(map(len, rows.values())):
        raise ValueError("entries are not distinct; entry-level orderings undefined")
    if not omega_r:
        raise ValueError("rho0 is undefined: the array has no filled cells")
    neg = codes.neg
    rho0 = {}
    for a, b in omega_r.items():
        rho0[a] = neg(b)
        rho0[neg(a)] = omega_c[a]
    # with 2|E(A)| distinct keys rho0 is a permutation, and the walk from any
    # key shows whether it is one cycle
    if len(rho0) != 2 * len(omega_r):
        raise ValueError("rho0 is no permutation: an entry is 0 or the negative of an entry")
    length = len(orbit(rho0.__getitem__, min(rho0)))
    if length != len(rho0):
        raise CertificationError(
            f"rho0 is not cyclic on +-E(A): orbit {length} of {len(rho0)} "
            "(the orderings are not compatible)"
        )
    return rho0


class EmbeddingReport:
    """The embedding induced by rho0, with Euler-characteristic genus.

    It is stored as the cycles of pi(a) = rho0(-a) on C, in element codes. A
    pi-cycle (a_0, ..., a_{L-1}) with net voltage s = a_0 + ... + a_{L-1} lifts
    to |G| / ord(s) faces of length L * ord(s): the face through the dart
    (x, x + a_0) runs x, x + a_0, x + a_0 + a_1, ... and closes after ord(s)
    laps. ``faces`` are developed from them when read. ``orders`` holds
    ord(net voltage) of each pi-cycle and ``pi_colors`` the class of each,
    set by two_color_check.
    """

    def __init__(self, V: int, S: int, F: int, genus: int, spec: GroupSpec,
                 pi_cycles: list[tuple[int, ...]], orders: list[int],
                 pi_colors: list[int] | None = None, formula_genus: int | None = None) -> None:
        self.V, self.S, self.F, self.genus, self.spec = V, S, F, genus, spec
        self.pi_cycles, self.orders, self.pi_colors = pi_cycles, orders, pi_colors
        self.formula_genus = formula_genus

    @cached_property
    def faces(self) -> list[tuple[DirectedEdge, ...]]:
        """Every face, rotated to start at its least directed edge, in sorted
        order, as darts of coordinate tuples."""
        codes = self.spec.codes
        add, size = codes.add, self.spec.size
        coords = list(map(codes.coords, range(size)))  # indexed by code
        lifted = []
        for cycle, order in zip(self.pi_cycles, self.orders):
            covered: set[int] = set()  # tails of the a_0 darts already walked
            for x in range(size):
                if x in covered:
                    continue
                darts, y = [], x
                for _ in range(order):
                    covered.add(y)
                    for a in cycle:
                        z = add(y, a)
                        darts.append((y, z))
                        y = z
                least = darts.index(min(darts))
                lifted.append(darts[least:] + darts[:least])
        lifted.sort()  # faces share no dart, so their first darts decide
        return [tuple((coords[u], coords[w]) for u, w in face) for face in lifted]

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


def trace_faces(graph: CayleyGraph, rho0: dict[int, int]) -> EmbeddingReport:
    """Faces as orbits of rho o tau on directed edges, where
    rho((x, x+a)) = (x, x + rho0(a)) and tau swaps the directions.

    rho o tau sends (x, x + a) to (x + a, x + a + pi(a)) with pi(a) = rho0(-a),
    so the faces are the lifts of the cycles of pi on C: O(|C|), not O(|G| |C|)."""
    connection = graph.connection
    if rho0.keys() != connection:
        raise ValueError("rotation domain must equal the connection set")
    if set(rho0.values()) != connection:
        raise ValueError("rotation must permute the connection set")
    codes = graph.spec.codes
    pi = {a: rho0[codes.neg(a)] for a in connection}
    cycles: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for a in sorted(connection):
        if a not in seen:
            cycles.append(tuple(orbit(pi.__getitem__, a)))
            seen.update(cycles[-1])
    orders = [codes.order(codes.total(cycle)) for cycle in cycles]
    V = graph.spec.size
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
    lines = _code_lines(array, ordering.row_orders, ordering.col_orders)
    return _two_color(report, *_bases(array.spec.codes.add, *lines))


def _bases(add: Callable[[int, int], int], rows: Lines,
           cols: Lines) -> tuple[list[tuple], list[tuple]]:
    """The column base cycles and the base cycles of the reversed rows."""
    # class 2 follows the REVERSED row orderings (omega_r inverse): reversing
    # the ordering negates every partial-sum cycle's edge set
    reversed_rows = {i: line[::-1] for i, line in rows.items()}
    return _cycles(add, cols, "col"), _cycles(add, reversed_rows, "row")


def _two_color(report: EmbeddingReport, col_base: list[tuple], row_base: list[tuple]) -> bool:
    """Per pi-cycle: its faces are translates of a base cycle B traversed once iff
    its steps are those of B up to rotation, or those of B reversed and negated
    (steps that sum to 0, so the faces close after one lap; a face of more laps
    repeats its steps, which a cycle of distinct entries never does). The edge
    {x, x + a} has one side on a face of a's pi-cycle and the other on a face of
    -a's."""
    codes = report.spec.codes
    sub, neg = codes.sub, codes.neg
    class_of_steps: dict[tuple, int] = {}
    # columns go in last, so a face in both classes gets class 1
    for color, base in ((2, row_base), (1, col_base)):
        for vs in base:
            steps = [sub(w, u) for u, w in zip(vs[-1:] + vs[:-1], vs)]
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


class BiembeddingCertificate(NamedTuple):
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
    """The whole chain: the orientation's orderings (the rows and columns of
    entry codes, line i reversed where its sign is -1), rho0 as one cycle on
    +-E(A), the traced faces, their two-colouring, the exact development of the
    column and reversed-row decompositions, and their orthogonality.

    Raises CertificationError with a witness when a stage cannot be certified,
    and ValueError from rho0, the first stage, when +-E(A) has a repeat: the
    entries are not distinct, or an entry is 0 or the negative of an entry.
    No rotation of +-E(A) exists then, whatever the orderings."""
    m, lines = array.m, array.index[1]
    rows, cols = oriented_lines(lines[:m], orientation.r), oriented_lines(lines[m:], orientation.c)
    rho0 = _rho0(array.spec.codes, rows, cols)
    graph = CayleyGraph.from_entries(array)
    report = trace_faces(graph, rho0)
    col_base, row_base = _bases(array.spec.codes.add, rows, cols)
    two_colorable = _two_color(report, col_base, row_base)
    col_dec, row_dec = develop_and_verify(col_base, graph), develop_and_verify(row_base, graph)
    return BiembeddingCertificate(report, two_colorable, row_dec, col_dec,
                                  verify_orthogonal(row_dec, col_dec))
