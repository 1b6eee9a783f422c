"""Cayley graphs, G-regular cycle decompositions, rotation systems, and faces."""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import cached_property
from itertools import accumulate, chain
from typing import Mapping, NamedTuple, Sequence

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
    return _cycles(array.spec.codes, lines, by)


def _cycles(codes: ElementCodes, lines: Lines, by: str) -> list[tuple]:
    """The partial-sum cycle of each line, in increasing line index."""
    add = codes.add
    bases = []
    for index in sorted(lines):
        sums = tuple(accumulate(lines[index], add))
        if len(set(sums)) != len(sums):
            raise CertificationError(f"{by} {index} ordering is not simple")
        if len(sums) < 3:
            raise CertificationError(f"{by} {index} has fewer than 3 filled cells")
        bases.append(sums)
    return bases


def _steps(codes: ElementCodes, vs: tuple) -> list[int]:
    """The steps of a cycle: step j runs from vertex j to the next."""
    return list(map(codes.sub, vs[1:] + vs[:1], vs))


class DecompositionCertificate(NamedTuple):
    """A verified G-regular cycle decomposition: all translates of the base
    cycles, whose differences list the connection set once each."""

    graph: CayleyGraph
    base: list[tuple]  # each base cycle's vertex codes, cyclically adjacent

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
    if any(len(set(vs)) != len(vs) for vs in base):
        raise ValueError("cycle vertices must be distinct")
    return _develop(base, graph)


def _develop(base: list[tuple], graph: CayleyGraph) -> DecompositionCertificate:
    """develop_and_verify on cycles of distinct vertices; a repeated
    difference is named in the order of the steps, d before -d."""
    codes = graph.spec.codes
    differences = [x for vs in base for d in _steps(codes, vs) for x in (d, codes.neg(d))]
    counts = Counter(differences)
    if len(counts) == len(differences) and counts.keys() == graph.connection:
        return DecompositionCertificate(graph, base)
    for d, c in counts.items():
        if c > 1:
            raise CertificationError(
                f"difference {codes.coords(d)} appears {c} times in the base cycles")
    missing, extra = (_least(codes, s) for s in
                      (graph.connection - counts.keys(), counts.keys() - graph.connection))
    raise CertificationError(
        f"difference list != connection set (missing={missing}, extra={extra})"
    )


def _least(codes: ElementCodes, found: set[int]) -> str:
    """The least of a set of codes as a witness names an element: g11 in Z_v,
    g(8, 2) in a product group, and None for an empty set."""
    if not found:
        return "None"
    coords = codes.coords(min(found))
    return f"g{coords[0]}" if len(coords) == 1 else f"g{coords}"


def verify_orthogonal(d1: DecompositionCertificate, d2: DecompositionCertificate) -> bool:
    """True iff every cycle of d1 shares at most one edge with every cycle of d2.

    The edge {x, x + d} lies on base1[i] + (x - u1) and base2[j] + (x - u2),
    where (u1, u1 + d) lies on base1[i] and (u2, u2 + d) on base2[j], read off
    the bases once per call. So two edges lie on the same two cycles iff their
    differences give the same (i, j, u2 - u1); both signs of one difference
    give the same triple, so each edge of d1 is taken once, by its step."""
    if d1 is d2:
        raise ValueError("orthogonality is defined across two distinct decompositions")
    codes = d1.graph.spec.codes
    tail: dict[int, tuple[int, int]] = {}  # d -> (j, u2)
    for j, vs in enumerate(d2.base):
        for u, w, d in zip(vs, vs[1:] + vs[:1], _steps(codes, vs)):
            tail[d], tail[codes.neg(d)] = (j, u), (j, w)
    pairs = set()
    for i, vs in enumerate(d1.base):
        for u1, d in zip(vs, _steps(codes, vs)):
            j, u2 = tail[d]
            pairs.add((i, j, codes.sub(u2, u1)))
    return len(pairs) == sum(map(len, d1.base))


def build_rho0(array: PFArray, ordering: Ordering) -> dict[int, int]:
    """The vertex-rotation seed, a cyclic permutation of +-E(A) on element
    codes: rho0(a) = -omega_r(a) on E(A) and omega_c(-a) on -E(A)."""
    lines = _code_lines(array, ordering.row_orders, ordering.col_orders)
    return _rho0(array.spec.codes, *lines)[0]


def _rho0(codes: ElementCodes, rows: Lines, cols: Lines) -> tuple[dict[int, int], dict[int, int]]:
    """build_rho0 on lines of entry codes (omega_r and omega_c: the next code
    along its row and its column), with the map from each entry to its
    negative, each entry negated once. Returning proves the entries distinct,
    non-zero and disjoint from their negatives. Whether rho0 is one cycle is its
    orbit from the least code; that walk raises ValueError when the orderings
    do not list each entry once in the rows and once in the columns."""
    omega_r, omega_c = cyclic_successors(rows), cyclic_successors(cols)
    if len(omega_r) != sum(map(len, rows.values())):
        raise ValueError("entries are not distinct; entry-level orderings undefined")
    if not omega_r:
        raise ValueError("rho0 is undefined: the array has no filled cells")
    negs = dict(zip(omega_r, map(codes.neg, omega_r)))
    rho0 = {a: negs[b] for a, b in omega_r.items()}
    rho0.update(zip(negs.values(), map(omega_c.__getitem__, negs)))
    # with 2|E(A)| distinct keys rho0 is a permutation, and the walk from any
    # key shows whether it is one cycle
    if len(rho0) != 2 * len(omega_r):
        raise ValueError("rho0 is no permutation: an entry is 0 or the negative of an entry")
    length = len(orbit(rho0, min(rho0)))
    if length != len(rho0):
        raise CertificationError(
            f"rho0 is not cyclic on +-E(A): orbit {length} of {len(rho0)} "
            "(the orderings are not compatible)"
        )
    return rho0, negs


class EmbeddingReport:
    """The embedding induced by rho0, with Euler-characteristic genus.

    It is stored as the cycles of pi(a) = rho0(-a) on C, in element codes. A
    pi-cycle (a_0, ..., a_{L-1}) with net voltage s = a_0 + ... + a_{L-1} lifts
    to |G| / ord(s) faces of length L * ord(s): the face through the dart
    (x, x + a_0) runs x, x + a_0, x + a_0 + a_1, ... and closes after ord(s)
    laps. ``faces`` are developed from them when read. ``orders`` holds
    ord(net voltage) of each pi-cycle and ``pi_colors`` the class of each,
    set by certify_biembedding or two_color_check, None until set. The caller
    compares the genus with a closed form.
    """

    formula_genus: int | None = None  # set, and read also unset, by relbench's replay only

    def __init__(self, V: int, S: int, F: int, genus: int, spec: GroupSpec,
                 pi_cycles: list[tuple[int, ...]], orders: list[int]) -> None:
        self.V, self.S, self.F, self.genus, self.spec = V, S, F, genus, spec
        self.pi_cycles, self.orders = pi_cycles, orders
        self.pi_colors: list[int] | None = None

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
                lifted.append(_rotation_key(darts))
        lifted.sort()  # faces share no dart, so their first darts decide
        return [tuple((coords[u], coords[w]) for u, w in face) for face in lifted]

    def to_json(self) -> dict:
        data = {"V": self.V, "S": self.S, "F": self.F, "genus": self.genus}
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
    neg = graph.spec.codes.neg
    pi = {a: rho0[neg(a)] for a in connection}
    cycles: list[tuple[int, ...]] = []  # each from its least code, which pops the cycle
    for a in sorted(pi):
        if a in pi:
            cycle = [a]
            while (b := pi.pop(cycle[-1])) != a:
                cycle.append(b)
            cycles.append(tuple(cycle))
    return _count_faces(graph, cycles)


def _count_faces(graph: CayleyGraph, cycles: list[tuple[int, ...]]) -> EmbeddingReport:
    """The embedding that lifts these pi-cycles (each from its least code, sorted)."""
    orders = list(map(graph.spec.codes.order, graph.spec.codes.totals(cycles)))
    V, S = graph.spec.size, graph.num_edges
    F = sum(V // order for order in orders)
    euler = V - S + F
    if (2 - euler) % 2 != 0:
        raise CertificationError(f"Euler characteristic {euler} gives a non-integer genus")
    return EmbeddingReport(V, S, F, (2 - euler) // 2, graph.spec, cycles, orders)


def two_color_check(report: EmbeddingReport, array: PFArray, ordering: Ordering) -> bool:
    """Classify every face as a translate of a column base cycle (class 1) or of a
    row base cycle (class 2); check each undirected edge sees one of each, and
    store the colouring into the report on success.

    Per pi-cycle: its faces are translates of a base cycle B traversed once iff
    its steps are those of B up to rotation, or those of B reversed and negated
    (steps that sum to 0, so the faces close after one lap; a face of more laps
    repeats its steps, which a cycle of distinct entries never does). The edge
    {x, x + a} has one side on a face of a's pi-cycle and the other on a face of
    -a's, and the negatives of a pi-cycle's codes are the other step list of B.
    """
    codes = array.spec.codes
    lines = _code_lines(array, ordering.row_orders, ordering.col_orders)
    col_bases, row_bases = _bases(codes, *lines)
    class_of_steps: dict[tuple, tuple[int, list[int]]] = {}
    # columns go in last, so a face in both classes gets class 1
    for color, bases in ((2, row_bases), (1, col_bases)):
        for vs in bases:
            steps = _steps(codes, vs)
            negs = list(map(codes.neg, steps))
            class_of_steps[_rotation_key(steps)] = color, negs
            class_of_steps[_rotation_key(negs[::-1])] = color, steps
    matches = [class_of_steps.get(_rotation_key(cycle)) for cycle in report.pi_cycles]
    if None in matches:
        return False
    class_of = {a: color for cycle, (color, _) in zip(report.pi_cycles, matches) for a in cycle}
    if any(class_of[a] == color for color, negs in matches for a in negs):
        return False
    report.pi_colors = [color for color, _ in matches]
    return True


def _bases(codes: ElementCodes, rows: Lines, cols: Lines) -> tuple[list[tuple], list[tuple]]:
    """The column base cycles and the base cycles of the reversed rows."""
    # class 2 follows the REVERSED row orderings (omega_r inverse): reversing
    # the ordering negates every partial-sum cycle's edge set
    reversed_rows = {i: line[::-1] for i, line in rows.items()}
    return _cycles(codes, cols, "col"), _cycles(codes, reversed_rows, "row")


def _line_faces(graph: CayleyGraph, rows: Lines, cols: Lines,
                negs: dict[int, int]) -> EmbeddingReport:
    """trace_faces and two_color_check on the lines of a cyclic rho0, whose pi
    is omega_c on E(A) and -omega_r on -E(A): the pi-cycles are the columns and
    the rows negated by negs, coloured 1 and 2 iff every line sums to 0. Proof,
    given k >= 3 cells a line (_cycles) and entries distinct, non-zero and
    apart from their negatives (_rho0): a column a_1..a_k of total T steps by
    a_2, ..., a_k, a_1 - T, its pi-cycle up to rotation iff T = 0, and a
    reversed row's negated steps reversed are T - b_k, -b_1, ..., -b_{k-1}, its
    pi-cycle iff T = 0; the other step lists hold the negatives of these. Any
    other step list is +-(its line's entries but one) plus one code, so it
    shares at most two codes with a pi-cycle (a row and a column share at most
    one cell)."""
    negated_rows = ([negs[a] for a in row] for row in rows.values())
    report = _count_faces(graph, sorted(map(_rotation_key, chain(cols.values(), negated_rows))))
    if all(order == 1 for order in report.orders):
        report.pi_colors = [1 if cycle[0] in negs else 2 for cycle in report.pi_cycles]
    return report


class BiembeddingCertificate(NamedTuple):
    """The certified biembedding of one array under one orientation."""

    embedding: EmbeddingReport
    two_colorable: bool
    row_decomposition: DecompositionCertificate
    col_decomposition: DecompositionCertificate
    orthogonal: bool

    @property
    def ok(self) -> bool:
        """Two-colourable and orthogonal."""
        return self.two_colorable and self.orthogonal

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
    +-E(A), the faces and their two-colouring read off those lines (as
    _line_faces proves), the exact development of the column and reversed-row
    decompositions, and their orthogonality.

    When every line sums to 0 (the faces two-colour), nothing is developed:
    a column a_1..a_k then steps by a_2, ..., a_k, a_1 and a reversed row
    b_k..b_1 by b_{k-1}, ..., b_1, b_k, their own entries. Each entry lies in
    one row and one column, so each decomposition's differences are
    E(A) u -E(A), which _rho0 proved to be C, 2|E(A)| distinct codes: both
    developments are exact. The difference +-a lies on the cycles of a's row
    and a's column, and two distinct cells never share both, so no (row
    cycle, column cycle, offset) triple repeats: the two are orthogonal.
    Otherwise _develop and verify_orthogonal decide.

    Raises CertificationError with a witness when a stage cannot be certified,
    and ValueError from rho0, the first stage, when +-E(A) has a repeat: the
    entries are not distinct, or an entry is 0 or the negative of an entry.
    No rotation of +-E(A) exists then, whatever the orderings."""
    m, lines = array.m, array.index[1]
    rows, cols = oriented_lines(lines[:m], orientation.r), oriented_lines(lines[m:], orientation.c)
    rho0, negs = _rho0(array.spec.codes, rows, cols)
    # rho0 proved its keys C = +-E(A) distinct: no second check of C
    graph = tuple.__new__(CayleyGraph, (array.spec, frozenset(rho0)))
    report = _line_faces(graph, rows, cols, negs)
    col_base, row_base = _bases(array.spec.codes, rows, cols)
    if report.pi_colors is not None:  # every line sums to 0: exact and orthogonal, as above
        return BiembeddingCertificate(report, True, DecompositionCertificate(graph, row_base),
                                      DecompositionCertificate(graph, col_base), True)
    col_dec, row_dec = _develop(col_base, graph), _develop(row_base, graph)
    return BiembeddingCertificate(report, False, row_dec, col_dec,
                                  verify_orthogonal(row_dec, col_dec))
