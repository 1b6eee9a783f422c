"""The quotient certificate against the object-level reference in topology_oracle."""

import dataclasses
import json
import random
from functools import lru_cache
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

import topology_oracle as oracle
from relheffter.constructions import FAMILIES
from relheffter.group import neg
from relheffter.orderings import Ordering, knight_search, orientation_to_orderings
from relheffter.pfarray import PFArray
from relheffter.topology import (
    CayleyGraph,
    CertificationError,
    Cycle,
    RotationMap,
    base_cycles,
    build_rho0,
    develop_and_verify,
    entry_successor_maps,
    trace_faces,
    two_color_check,
    verify_orthogonal,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
Z51xZ3 = ("fixture", "archdeacon_8x8_z51xz3.json")
Z60xZ3 = ("fixture", "archdeacon_7x7_z60xz3.json")
CASES = [("h-n-3", 3), ("h-n-3", 5), ("h-n-3", 7), ("h-2n-3", 3), ("h-2n-3", 5), ("h7", 7),
         ("h9", 11), Z51xZ3, Z60xZ3]


@lru_cache(maxsize=None)
def instance(family: str, n):
    """The array and its lexicographically least Knight solution."""
    if family == "fixture":
        array = PFArray.from_json(json.loads((FIXTURES / n).read_text()))
    else:
        array = FAMILIES[family].builder(n)
    return array, knight_search(array)


def outcome(f, *args):
    """f(*args), or the type and message of the ValueError it raised."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def random_ordering(rng: random.Random, array: PFArray) -> Ordering:
    """Every line's filled cells in a random order."""
    rows, cols = array.skeleton.lines
    return Ordering({i: tuple(rng.sample(cells, len(cells))) for i, cells in rows.items()},
                    {j: tuple(rng.sample(cells, len(cells))) for j, cells in cols.items()})


def rotation(kind: str, rng: random.Random, graph: CayleyGraph, rho0: RotationMap) -> RotationMap:
    conn = sorted(graph.connection, key=lambda a: a.coords)
    if kind == "permute":  # any permutation of the connection set is a rotation seed
        return RotationMap(dict(zip(conn, rng.sample(conn, len(conn)))))
    if kind == "shuffle":  # one cycle through C in random order: mostly non-zero voltages
        rng.shuffle(conn)
        return RotationMap({a: conn[i - 1] for i, a in enumerate(conn)})
    return rho0


@given(case=st.sampled_from(CASES), kind=st.sampled_from(["knight", "permute", "shuffle"]),
       seed=st.integers(0, 2**32 - 1))
@example(case=Z51xZ3, kind="knight", seed=0)
@example(case=Z60xZ3, kind="permute", seed=1)
@example(case=("h-n-3", 3), kind="shuffle", seed=2)
@settings(max_examples=20, deadline=None)
def test_kernels_match_oracle(case, kind, seed):
    rng = random.Random(seed)
    array, solution = instance(*case)
    ordering = orientation_to_orderings(array, solution)
    graph = CayleyGraph.from_entries(array)
    rho0 = rotation(kind, rng, graph, build_rho0(array, ordering))

    report = outcome(trace_faces, graph, rho0)
    expected = outcome(oracle.trace_faces, graph, rho0)
    if isinstance(expected, tuple):  # the same odd-Euler error
        assert report == expected
        return
    assert (report.V, report.S, report.F, report.genus) == (
        expected.V, expected.S, expected.F, expected.genus)
    colored = two_color_check(report, array, ordering)
    assert colored == oracle.two_color_check(expected, array, ordering)
    assert colored or kind != "knight"
    assert report.to_json() == expected.to_json()  # with the colour-class sizes
    assert report.faces == expected.faces
    assert report.color_of_face == expected.color_of_face

    certs = {}
    orderings = {"knight": ordering, "random": random_ordering(rng, array)}
    for name, o in orderings.items():
        for by in ("row", "col"):
            base = outcome(base_cycles, array, o, by)
            if isinstance(base, tuple):  # a random ordering need not be simple
                assert base[0] is CertificationError and name == "random"
                continue
            cert, ref = outcome(develop_and_verify, base, graph), outcome(
                oracle.develop_and_verify, base, graph)
            if isinstance(ref, tuple):
                assert cert == ref
                continue
            assert cert.to_json() == ref.to_json()
            assert cert.cycle_lengths == ref.cycle_lengths
            assert cert.cycles == ref.cycles
            certs[name, by] = cert, ref
    for first, second in [(("random", "row"), ("random", "col")),
                          (("knight", "row"), ("knight", "col")),
                          (("knight", "row"), ("random", "row"))]:
        if first in certs and second in certs:
            (c1, r1), (c2, r2) = certs[first], certs[second]
            assert verify_orthogonal(c1, c2) == oracle.verify_orthogonal(r1, r2)
    # two developments of one base share every edge of every cycle
    cert, ref = certs["knight", "col"]
    twin, twin_ref = develop_and_verify(cert.base, graph), oracle.develop_and_verify(ref.base, graph)
    assert verify_orthogonal(cert, twin) is oracle.verify_orthogonal(ref, twin_ref) is False


def test_negative_cases_match_oracle():
    array, solution = instance("h-n-3", 3)
    ordering = orientation_to_orderings(array, solution)
    graph = CayleyGraph.from_entries(array)

    # a cyclic rotation that is not the two-branch map of the orderings
    keys = sorted(build_rho0(array, ordering).mapping, key=lambda e: e.coords)
    shuffled = RotationMap({keys[i]: keys[(i + 1) % len(keys)] for i in range(len(keys))})
    report, expected = trace_faces(graph, shuffled), oracle.trace_faces(graph, shuffled)
    assert (report.F, report.genus, report.faces) == (expected.F, expected.genus, expected.faces)
    assert two_color_check(report, array, ordering) is False
    assert oracle.two_color_check(expected, array, ordering) is False

    # every face a column translate: each edge lies on two faces of class 1
    omega_r, omega_c = entry_successor_maps(array, ordering)
    back = {b: a for a, b in omega_c.items()}
    columns_only = RotationMap({**{neg(e): omega_c[e] for e in omega_c},
                                **{e: neg(back[e]) for e in omega_c}})
    report, expected = trace_faces(graph, columns_only), oracle.trace_faces(graph, columns_only)
    assert report.F == expected.F
    assert two_color_check(report, array, ordering) is False
    assert oracle.two_color_check(expected, array, ordering) is False

    # a report listing one face twice puts its edges on two faces of one class
    expected = oracle.trace_faces(graph, build_rho0(array, ordering))
    doubled = dataclasses.replace(expected, faces=expected.faces + expected.faces[:1])
    assert oracle.two_color_check(doubled, array, ordering) is False

    # a wrong difference set, and a base that covers the edges of one cycle twice
    spec = array.spec
    col_base = base_cycles(array, ordering, by="col")
    for base in ([Cycle(tuple(spec.element(x) for x in (0, 1, 2)))],
                 col_base + col_base[:1]):
        kernel = outcome(develop_and_verify, base, graph)
        assert kernel[0] is CertificationError
        assert kernel == outcome(oracle.develop_and_verify, base, graph)
