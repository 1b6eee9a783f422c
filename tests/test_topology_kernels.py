"""The int-coded topology kernels against the object-level reference in topology_oracle."""

import dataclasses
import json
import random
from functools import lru_cache
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

import topology_oracle as oracle
from relheffter.constructions import FAMILIES
from relheffter.orderings import Orientation, knight_search, orientation_to_orderings
from relheffter.pfarray import PFArray
from relheffter.topology import (
    CayleyGraph,
    CertificationError,
    Cycle,
    RotationMap,
    base_cycles,
    build_rho0,
    develop_and_verify,
    trace_faces,
    two_color_check,
    verify_orthogonal,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
Z51xZ3 = ("fixture", "archdeacon_8x8_z51xz3.json")
Z60xZ3 = ("fixture", "archdeacon_7x7_z60xz3.json")
CASES = [("h-n-3", 3), ("h-n-3", 5), ("h-n-3", 7), ("h-2n-3", 3), ("h-2n-3", 5), ("h7", 7),
         Z51xZ3, Z60xZ3]


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


def random_orientation(rng: random.Random, array: PFArray) -> Orientation:
    return Orientation(tuple(rng.choice((1, -1)) for _ in range(array.m)),
                       tuple(rng.choice((1, -1)) for _ in range(array.n)))


@given(case=st.sampled_from(CASES), permute=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(case=Z51xZ3, permute=False, seed=0)
@example(case=Z60xZ3, permute=True, seed=1)
@settings(max_examples=20, deadline=None)
def test_kernels_match_oracle(case, permute, seed):
    rng = random.Random(seed)
    array, solution = instance(*case)
    ordering = orientation_to_orderings(array, solution)
    graph = CayleyGraph.from_entries(array)
    rho0 = build_rho0(array, ordering)
    if permute:
        # any permutation of the connection set is a rotation seed
        conn = sorted(graph.connection, key=lambda a: a.coords)
        rho0 = RotationMap(dict(zip(conn, rng.sample(conn, len(conn)))))

    report = outcome(trace_faces, graph, rho0)
    expected = outcome(oracle.trace_faces, graph, rho0)
    assert report == expected  # faces, V, S, F and genus, or the same error
    if isinstance(expected, tuple):
        return
    colored = two_color_check(report, array, ordering)
    assert colored == oracle.two_color_check(expected, array, ordering)
    assert colored or permute
    assert report.color_of_face == expected.color_of_face
    # a report built without face codes is classified the same way
    plain = dataclasses.replace(expected, color_of_face=None)
    assert two_color_check(plain, array, ordering) == colored
    assert plain.color_of_face == expected.color_of_face

    certs = {}
    orderings = {"knight": ordering,
                 "random": orientation_to_orderings(array, random_orientation(rng, array))}
    for name, o in orderings.items():
        for by in ("row", "col"):
            base = base_cycles(array, o, by=by)
            cert, ref = develop_and_verify(base, graph), oracle.develop_and_verify(base, graph)
            assert cert.to_json() == ref.to_json()
            assert cert.cycle_lengths == ref.cycle_lengths
            assert cert.cycles == ref.cycles
            certs[name, by] = cert, ref
    for first, second in [(("random", "row"), ("random", "col")),
                          (("knight", "row"), ("knight", "col")),
                          (("knight", "row"), ("random", "row"))]:
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
    assert report == expected
    assert two_color_check(report, array, ordering) is False
    assert oracle.two_color_check(expected, array, ordering) is False

    # a report listing one face twice puts its edges on two faces of one class
    report = trace_faces(graph, build_rho0(array, ordering))
    doubled = dataclasses.replace(report, faces=report.faces + report.faces[:1],
                                  face_codes=None)
    assert two_color_check(doubled, array, ordering) is False
    assert oracle.two_color_check(doubled, array, ordering) is False

    # a wrong difference set, and a base that covers the edges of one cycle twice
    spec = array.spec
    col_base = base_cycles(array, ordering, by="col")
    for base in ([Cycle(tuple(spec.element(x) for x in (0, 1, 2)))],
                 col_base + col_base[:1]):
        kernel = outcome(develop_and_verify, base, graph)
        assert kernel[0] is CertificationError
        assert kernel == outcome(oracle.develop_and_verify, base, graph)
