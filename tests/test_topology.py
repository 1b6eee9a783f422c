"""Cayley graphs, developed decompositions, rotations, face tracing, two-coloring."""

import json
import signal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import topology_oracle as oracle
from group_oracle import decode, encode, neg
from heffter_oracle import subgroup_of_order
from pfarray_oracle import element, entries, from_elements
from relheffter.constructions import FAMILIES, build_h_n_3
from relheffter.group import GroupSpec
from relheffter.orderings import (
    Orientation,
    knight_search,
    orientation_to_orderings,
)
from relheffter.pfarray import PFArray
from relheffter.topology import (
    CayleyGraph,
    CertificationError,
    base_cycles,
    build_rho0,
    certify_biembedding,
    develop_and_verify,
    heffter_genus_formula,
    trace_faces,
    two_color_check,
    verify_orthogonal,
)


def h3():
    return build_h_n_3(3)


def knight_ordering(a):
    sol = knight_search(a)
    assert sol is not None
    return orientation_to_orderings(a, sol)


def test_cayley_graph_multipartite():
    g = oracle.multipartite(21, 3)
    assert g.spec.size == 21
    assert len(g.connection) == 18
    assert g.num_edges == 189  # K_{7x3}: 21*20/2 - 21 non-edges within parts
    # non-edges are exactly the pairs differing by a subgroup element
    spec = GroupSpec.cyclic(21)
    j = subgroup_of_order(21, 3)
    for x in range(21):
        for y in range(x + 1, 21):
            diff = element(spec, x) - element(spec, y)
            edge_expected = diff not in j
            assert (encode(spec, diff) in g.connection) == edge_expected


def test_cayley_graph_rejects_bad_connection():
    spec = GroupSpec.cyclic(7)
    with pytest.raises(ValueError):
        CayleyGraph(spec, frozenset({0}))
    with pytest.raises(ValueError):
        # not closed under negation
        CayleyGraph(spec, frozenset({encode(spec, element(spec, 1))}))
    with pytest.raises(ValueError, match="not an element"):
        CayleyGraph(spec, frozenset({1, 6, 7}))  # 7 is no code of Z_7


def test_from_entries_equals_multipartite_for_heffter():
    assert CayleyGraph.from_entries(h3()) == oracle.multipartite(21, 3)


def test_cycle_basics():
    c = (11, 16, 0)  # element codes of Z_21
    assert len(oracle.edges(c)) == 3
    with pytest.raises(ValueError, match="^cycle vertices must be distinct$") as refused:
        develop_and_verify([(1, 1)], oracle.multipartite(21, 3))
    assert refused.type is ValueError  # not a CertificationError about the differences


def test_base_cycles_telescope():
    a = h3()
    ordering = orientation_to_orderings(a, Orientation((1,) * a.m, (1,) * a.n))
    for by in ("row", "col"):
        for idx, cycle in enumerate(base_cycles(a, ordering, by=by), start=1):
            cells = (ordering.row_orders if by == "row" else ordering.col_orders)[idx]
            expected = []
            for e in map(entries(a).__getitem__, cells):
                expected.extend([e, neg(e)])
            assert sorted(d.coords for d in oracle.differences(cycle, a.spec)) == sorted(
                e.coords for e in expected
            )


def test_base_cycles_rejects_non_simple():
    spec = GroupSpec.cyclic(12)
    a = from_elements(1, 4, spec, {(1, j): element(spec, x) for j, x in
                                   [(1, 1), (2, 5), (3, -5), (4, -1)]})
    ordering = orientation_to_orderings(a, Orientation((1,) * a.m, (1,) * a.n))
    with pytest.raises(CertificationError):
        base_cycles(a, ordering, by="row")


def test_develop_and_verify_h3():
    a = h3()
    graph = oracle.multipartite(21, 3)
    ordering = orientation_to_orderings(a, Orientation((1,) * a.m, (1,) * a.n))
    base = base_cycles(a, ordering, by="col")
    cert = develop_and_verify(base, graph)
    assert len(oracle.cycles(cert)) == 63
    assert cert.cycle_lengths == {3: 63}
    assert 63 * 3 == graph.num_edges
    # the developed cycles are the translates, decoded: base + 5 after base + 0..4
    five = element(a.spec, 5)
    for i, cycle in enumerate(base):
        translate = tuple(decode(a.spec, v) + five for v in cycle)
        assert oracle.cycles(cert)[5 * len(base) + i] == translate


def test_develop_rejects_wrong_difference_set():
    spec = GroupSpec.cyclic(21)
    graph = oracle.multipartite(21, 3)
    bad = [tuple(encode(spec, element(spec, x)) for x in (0, 1, 2))]
    with pytest.raises(CertificationError):
        develop_and_verify(bad, graph)


def test_verify_orthogonal():
    a = h3()
    graph = oracle.multipartite(21, 3)
    ordering = orientation_to_orderings(a, Orientation((1,) * a.m, (1,) * a.n))
    rows = develop_and_verify(base_cycles(a, ordering, by="row"), graph)
    cols = develop_and_verify(base_cycles(a, ordering, by="col"), graph)
    assert verify_orthogonal(rows, cols)
    with pytest.raises(ValueError):
        verify_orthogonal(rows, rows)


def test_rho0_cyclic_iff_compatible():
    a = h3()
    good = knight_ordering(a)
    rho0 = build_rho0(a, good)
    assert len(rho0) == 18  # single cycle on +-E(A)
    codes = a.spec.codes
    entries = set(a.entry_codes.values())
    for e in entries:
        assert rho0[e] in {codes.neg(x) for x in entries}
        assert rho0[codes.neg(e)] in entries
    with pytest.raises(CertificationError):
        # natural orderings are incompatible here
        build_rho0(a, orientation_to_orderings(a, Orientation((1,) * a.m, (1,) * a.n)))


def test_rho0_rejects_an_entry_and_its_negative():
    # +-E(A) has a repeat, so rho0 is no permutation and its walk from the
    # first entry never returns: it must raise, not hang
    a = h3()
    elements = entries(a)
    first, second = sorted(elements)[:2]
    elements[second] = neg(elements[first])
    with pytest.raises(ValueError, match="no permutation"):
        build_rho0(from_elements(a.m, a.n, a.spec, elements), knight_ordering(a))


def test_rho0_rejects_an_array_with_no_filled_cells():
    empty = PFArray(2, 2, GroupSpec.cyclic(7), {})
    with pytest.raises(ValueError, match="no filled cells"):
        build_rho0(empty, orientation_to_orderings(empty, Orientation((1, 1), (1, 1))))
    with pytest.raises(ValueError, match="no filled cells"):
        certify_biembedding(empty, Orientation((1, 1), (1, 1)))


def test_rho0_squared_composes_successors():
    a = h3()
    ordering = knight_ordering(a)
    rho0 = build_rho0(a, ordering)
    omega_r, omega_c = oracle.entry_successor_maps(a, ordering)
    for e in a.entry_codes.values():
        assert rho0[rho0[e]] == omega_c[omega_r[e]]


def test_trace_faces_h3():
    a = h3()
    ordering = knight_ordering(a)
    report = trace_faces(CayleyGraph.from_entries(a), build_rho0(a, ordering))
    assert (report.V, report.S, report.F) == (21, 189, 126)
    assert report.genus == 22 == heffter_genus_formula(3, 3, 3, 3, 3)
    # every directed edge on exactly one face; every undirected edge on two
    directed = [e for face in report.faces for e in face]
    assert len(directed) == len(set(directed)) == 2 * report.S


def test_two_color_check_h3():
    a = h3()
    ordering = knight_ordering(a)
    report = trace_faces(CayleyGraph.from_entries(a), build_rho0(a, ordering))
    assert two_color_check(report, a, ordering)
    assert oracle.color_of_face(report).count(1) == 63
    assert oracle.color_of_face(report).count(2) == 63


def test_two_color_check_fails_on_shuffled_rotation():
    # a cyclic rotation that is not the two-branch map yields faces outside
    # both developed decompositions
    a = h3()
    ordering = knight_ordering(a)
    rho0 = build_rho0(a, ordering)
    keys = sorted(rho0)
    rotated = {keys[i]: keys[(i + 1) % len(keys)] for i in range(len(keys))}
    report = trace_faces(CayleyGraph.from_entries(a), rotated)
    assert not two_color_check(report, a, ordering)


def test_trace_faces_rejects_non_bijective_rotation():
    a = h3()
    graph = CayleyGraph.from_entries(a)
    conn = sorted(graph.connection)

    def hung(signum, frame):
        raise TimeoutError("trace_faces did not return on a non-bijective rotation")

    # a face walk that never returns to its first dart would hang: fail instead
    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        with pytest.raises(ValueError, match="permute"):
            trace_faces(graph, {x: conn[0] for x in conn})
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_genus_formula_values():
    assert heffter_genus_formula(3, 3, 3, 3, 3) == 22
    assert heffter_genus_formula(9, 9, 3, 3, 9) == 253
    assert heffter_genus_formula(7, 7, 7, 7, 7) == 1786
    with pytest.raises(ValueError):
        heffter_genus_formula(2, 3, 3, 3, 1)  # numerator 3 * 19 is odd


@given(st.integers(3, 9))
@settings(max_examples=10, deadline=None)
def test_euler_integrality_on_h_n_3(n):
    if n % 2 == 0:
        n += 1
    a = build_h_n_3(n)
    ordering = knight_ordering(a)
    report = trace_faces(CayleyGraph.from_entries(a), build_rho0(a, ordering))
    # V - S + F must be even (orientable genus is an integer)
    assert (report.V - report.S + report.F) % 2 == 0


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def stage_by_stage(a, o):
    """The biembedding chain wired by hand from the public stage functions."""
    ordering = orientation_to_orderings(a, o)
    rho0 = build_rho0(a, ordering)  # first, as in certify_biembedding
    graph = CayleyGraph.from_entries(a)
    report = trace_faces(graph, rho0)
    two_colorable = two_color_check(report, a, ordering)
    cols = develop_and_verify(base_cycles(a, ordering, by="col"), graph)
    reversed_rows = orientation_to_orderings(a, Orientation(tuple(-x for x in o.r), o.c))
    rows = develop_and_verify(base_cycles(a, reversed_rows, by="row"), graph)
    return {
        "embedding": report.to_json(),
        "two_colorable": two_colorable,
        "row_decomposition": rows.to_json(),
        "col_decomposition": cols.to_json(),
        "orthogonal": verify_orthogonal(rows, cols),
    }


def certify_cases():
    for family in FAMILIES.values():
        n = next(n for n in range(3, 20) if family.admissible(n))
        yield family.name, family.builder(n)
    data = json.loads((FIXTURES / "archdeacon_8x8_z51xz3.json").read_text())
    yield "archdeacon_8x8_z51xz3", PFArray.from_json(data)


@pytest.mark.parametrize("name,array", list(certify_cases()))
def test_certify_biembedding_matches_stage_by_stage(name, array):
    o = knight_search(array)
    assert o is not None
    cert = certify_biembedding(array, o)
    assert cert.to_json() == stage_by_stage(array, o)
    assert cert.ok
    assert oracle.color_of_face(cert.embedding) is not None


def outcome(f, array, o):
    """f(array, o), or the type and text of the ValueError (CertificationError
    included) that it raised."""
    try:
        return f(array, o)
    except ValueError as exc:
        return type(exc), str(exc)


def certified(array, o):
    return certify_biembedding(array, o).to_json()


def flips(o):
    """The orientation, its row flip, its column flip and its reversal."""
    return [o, Orientation(tuple(-x for x in o.r), o.c),
            Orientation(o.r, tuple(-x for x in o.c)), Orientation(tuple(-x for x in o.r), tuple(-x for x in o.c))]


def small_arrays():
    """Every family at every admissible n <= 23, and the Archdeacon fixtures."""
    for family in FAMILIES.values():
        for n in range(3, 24):
            if family.admissible(n):
                yield f"{family.name} n={n}", family.builder(n)
    for path in sorted(FIXTURES.glob("archdeacon_*.json")):
        yield path.name, PFArray.from_json(json.loads(path.read_text()))


def test_certify_biembedding_matches_stage_by_stage_under_flips():
    # certify_biembedding reads its orderings off the code lines; the stages
    # take cell orderings: the same payload or the same error
    names, failures = [], set()
    for name, array in small_arrays():
        names.append(name)
        for o in flips(knight_search(array)):
            expected = outcome(stage_by_stage, array, o)
            assert outcome(certified, array, o) == expected, (name, o)
            if isinstance(expected, tuple):
                failures.add(expected[0])
    assert {"archdeacon_7x7_z60xz3.json", "archdeacon_8x8_z51xz3.json"} <= set(names)
    assert failures == {CertificationError}  # not every flip is compatible


def test_certify_biembedding_matches_stage_by_stage_on_failing_arrays():
    # each entry swapped with the next in row-major order, moved by one, set
    # to 0, to the next entry and to its negative, under all four flips; and
    # the empty array
    empty = PFArray(2, 2, GroupSpec.cyclic(7), {})
    o = Orientation((1, 1), (1, 1))
    assert outcome(certified, empty, o) == outcome(stage_by_stage, empty, o) == (
        ValueError, "rho0 is undefined: the array has no filled cells")
    kinds = set()
    arrays = dict(small_arrays())
    for name in ("h-n-3 n=5", "h7 n=7", "archdeacon_8x8_z51xz3.json"):
        array = arrays[name]
        o = knight_search(array)
        codes, spec = array.entry_codes, array.spec
        cells = sorted(codes)
        for cell, other in zip(cells, cells[1:] + cells[:1]):
            x, y = codes[cell], codes[other]
            for change in ({cell: y, other: x}, {cell: (x + 1) % spec.size}, {cell: 0},
                           {cell: y}, {cell: spec.codes.neg(y)}):
                b = PFArray(array.m, array.n, spec, {**codes, **change})
                for flipped in flips(o):
                    expected = outcome(stage_by_stage, b, flipped)
                    assert outcome(certified, b, flipped) == expected, (name, change, flipped)
                    if isinstance(expected, tuple):
                        kinds.add(expected[1].split(" (")[0].split(":")[0])
                    else:  # certified, but not two-colourable or not orthogonal
                        kinds.add(expected["two_colorable"] and expected["orthogonal"])
    assert kinds >= {
        "entries are not distinct; entry-level orderings undefined", "rho0 is no permutation",
        "rho0 is not cyclic on +-E(A)", "row 3 ordering is not simple",
        "difference list != connection set", False,
    }


def test_certificate_not_ok_without_every_check():
    a = h3()
    cert = certify_biembedding(a, knight_search(a))
    assert cert.ok
    assert not cert._replace(orthogonal=False).ok
    assert not cert._replace(two_colorable=False).ok
    cert.embedding.formula_genus = cert.embedding.genus + 1
    assert not cert.ok
    cert.embedding.formula_genus = heffter_genus_formula(3, 3, 3, 3, 3)
    assert cert.ok


# failure messages of the 8x8 fixture with one entry moved by (1, 0): each
# names the least missing and the least extra difference, in coordinate-tuple
# order, as the object-level certificate does
WITNESSES = {
    (1, 1): "missing=g(8, 2), extra=g(9, 2)",
    (1, 2): "missing=g(1, 2), extra=g(0, 1)",
    (1, 7): "missing=g(17, 0), extra=g(16, 0)",
    (2, 1): "missing=g(9, 2), extra=g(10, 2)",
    (2, 2): "missing=g(0, 1), extra=g(1, 1)",
}


def test_certificate_failures_name_the_object_level_witnesses():
    a = PFArray.from_json(json.loads((FIXTURES / "archdeacon_8x8_z51xz3.json").read_text()))
    o = knight_search(a)
    flipped = Orientation(tuple(-x for x in o.r), o.c)
    for cell, witnesses in WITNESSES.items():
        elements = entries(a)
        elements[cell] = elements[cell] + element(a.spec, 1, 0)
        b = from_elements(a.m, a.n, a.spec, elements)
        with pytest.raises(CertificationError) as exc:
            certify_biembedding(b, o)
        assert str(exc.value) == f"difference list != connection set ({witnesses})"
        with pytest.raises(CertificationError) as exc:
            certify_biembedding(b, flipped)
        assert str(exc.value) == (
            "rho0 is not cyclic on +-E(A): orbit 26 of 50 (the orderings are not compatible)")
