"""Cayley graphs, developed decompositions, rotations, face tracing, two-coloring."""

import dataclasses
import json
import signal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from relheffter.constructions import FAMILIES, build_h_n_3
from relheffter.group import GroupSpec, neg, subgroup_of_order
from relheffter.orderings import (
    Orientation,
    knight_search,
    natural_ordering,
    orientation_to_orderings,
)
from relheffter.pfarray import PFArray
from relheffter.topology import (
    CayleyGraph,
    CertificationError,
    Cycle,
    RotationMap,
    base_cycles,
    build_rho0,
    certify_biembedding,
    develop_and_verify,
    entry_successor_maps,
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
    g = CayleyGraph.multipartite(21, 3)
    assert g.num_vertices == 21
    assert len(g.connection) == 18
    assert g.num_edges == 189  # K_{7x3}: 21*20/2 - 21 non-edges within parts
    # non-edges are exactly the pairs differing by a subgroup element
    spec = GroupSpec.cyclic(21)
    j = subgroup_of_order(21, 3)
    for x in range(21):
        for y in range(x + 1, 21):
            diff = spec.element(x) - spec.element(y)
            edge_expected = diff not in j
            assert (diff in g.connection) == edge_expected


def test_cayley_graph_rejects_bad_connection():
    spec = GroupSpec.cyclic(7)
    with pytest.raises(ValueError):
        CayleyGraph(spec, frozenset({spec.identity}))
    with pytest.raises(ValueError):
        CayleyGraph(spec, frozenset({spec.element(1)}))  # not closed under negation


def test_from_entries_equals_multipartite_for_heffter():
    assert CayleyGraph.from_entries(h3()) == CayleyGraph.multipartite(21, 3)


def test_cycle_basics():
    spec = GroupSpec.cyclic(21)
    c = Cycle(tuple(spec.element(x) for x in (11, 16, 0)))
    assert len(c.edges()) == 3
    t = c.translate(spec.element(5))
    assert t.vertices[2].coords == (5,)
    with pytest.raises(ValueError):
        Cycle((spec.element(1), spec.element(1)))


def test_base_cycles_telescope():
    a = h3()
    ordering = natural_ordering(a)
    for by in ("row", "col"):
        for idx, cycle in enumerate(base_cycles(a, ordering, by=by), start=1):
            entries = (ordering.row_entries(a, idx) if by == "row"
                       else ordering.col_entries(a, idx))
            expected = []
            for e in entries:
                expected.extend([e, neg(e)])
            assert sorted(d.coords for d in cycle.differences()) == sorted(
                e.coords for e in expected
            )


def test_base_cycles_rejects_non_simple():
    spec = GroupSpec.cyclic(12)
    a = PFArray(1, 4, spec, {(1, j): spec.element(x) for j, x in
                             [(1, 1), (2, 5), (3, -5), (4, -1)]})
    ordering = natural_ordering(a)
    with pytest.raises(CertificationError):
        base_cycles(a, ordering, by="row")


def test_develop_and_verify_h3():
    a = h3()
    graph = CayleyGraph.multipartite(21, 3)
    ordering = natural_ordering(a)
    cert = develop_and_verify(base_cycles(a, ordering, by="col"), graph)
    assert len(cert.cycles) == 63
    assert cert.cycle_lengths == {3: 63}
    assert 63 * 3 == graph.num_edges


def test_develop_rejects_wrong_difference_set():
    spec = GroupSpec.cyclic(21)
    graph = CayleyGraph.multipartite(21, 3)
    bad = [Cycle(tuple(spec.element(x) for x in (0, 1, 2)))]
    with pytest.raises(CertificationError):
        develop_and_verify(bad, graph)


def test_verify_orthogonal():
    a = h3()
    graph = CayleyGraph.multipartite(21, 3)
    ordering = natural_ordering(a)
    rows = develop_and_verify(base_cycles(a, ordering, by="row"), graph)
    cols = develop_and_verify(base_cycles(a, ordering, by="col"), graph)
    assert verify_orthogonal(rows, cols)
    with pytest.raises(ValueError):
        verify_orthogonal(rows, rows)


def test_rho0_cyclic_iff_compatible():
    a = h3()
    good = knight_ordering(a)
    rho0 = build_rho0(a, good)
    assert len(rho0.mapping) == 18  # single cycle on +-E(A)
    entries = set(a.entries.values())
    for e in entries:
        assert rho0(e) in {neg(x) for x in entries}
        assert rho0(neg(e)) in entries
    with pytest.raises(CertificationError):
        build_rho0(a, natural_ordering(a))  # natural orderings are incompatible here


def test_rho0_rejects_an_entry_and_its_negative():
    # +-E(A) has a repeat, so rho0 is no permutation and its walk from the
    # first entry never returns: it must raise, not hang
    a = h3()
    entries = dict(a.entries)
    first, second = sorted(entries)[:2]
    entries[second] = neg(entries[first])
    with pytest.raises(ValueError, match="no permutation"):
        build_rho0(PFArray(a.m, a.n, a.spec, entries), knight_ordering(a))


def test_rho0_squared_composes_successors():
    a = h3()
    ordering = knight_ordering(a)
    rho0 = build_rho0(a, ordering)
    omega_r, omega_c = entry_successor_maps(a, ordering)
    for e in a.entries.values():
        assert rho0(rho0(e)) == omega_c[omega_r[e]]


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
    assert report.color_of_face.count(1) == 63
    assert report.color_of_face.count(2) == 63


def test_two_color_check_fails_on_shuffled_rotation():
    # a cyclic rotation that is not the two-branch map yields faces outside
    # both developed decompositions
    a = h3()
    ordering = knight_ordering(a)
    rho0 = build_rho0(a, ordering)
    keys = sorted(rho0.mapping, key=lambda e: e.coords)
    rotated = {keys[i]: keys[(i + 1) % len(keys)] for i in range(len(keys))}
    report = trace_faces(CayleyGraph.from_entries(a), RotationMap(rotated))
    assert not two_color_check(report, a, ordering)


def test_trace_faces_rejects_non_bijective_rotation():
    a = h3()
    graph = CayleyGraph.from_entries(a)
    conn = sorted(graph.connection, key=lambda e: e.coords)

    def hung(signum, frame):
        raise TimeoutError("trace_faces did not return on a non-bijective rotation")

    # a face walk that never returns to its first dart would hang: fail instead
    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        with pytest.raises(ValueError, match="permute"):
            trace_faces(graph, RotationMap({x: conn[0] for x in conn}))
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
    graph = CayleyGraph.from_entries(a)
    report = trace_faces(graph, build_rho0(a, ordering))
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
    assert cert.embedding.color_of_face is not None


def test_certificate_not_ok_without_every_check():
    a = h3()
    cert = certify_biembedding(a, knight_search(a))
    assert cert.ok
    assert not dataclasses.replace(cert, orthogonal=False).ok
    assert not dataclasses.replace(cert, two_colorable=False).ok
    cert.embedding.formula_genus = cert.embedding.genus + 1
    assert not cert.ok
    cert.embedding.formula_genus = heffter_genus_formula(3, 3, 3, 3, 3)
    assert cert.ok
