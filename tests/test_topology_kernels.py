"""The quotient certificate against the object-level reference in topology_oracle."""

import dataclasses
import json
import random
from functools import lru_cache
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

import topology_oracle as oracle
from group_oracle import decode
from pfarray_oracle import build_B, direct_sum, element, entries, from_elements
from relheffter.constructions import FAMILIES, build_archdeacon_composite, build_h_n_3
from relheffter.orderings import (
    Ordering,
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
    develop_and_verify,
    trace_faces,
    two_color_check,
    verify_orthogonal,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
Z51xZ3 = ("fixture", "archdeacon_8x8_z51xz3.json")
Z60xZ3 = ("fixture", "archdeacon_7x7_z60xz3.json")
# H_3(3;3) plus the gadget B over Z_3 and another over Z_4: an Archdeacon
# array over Z_21 x Z_3 x Z_4
THREE_FACTORS = ("three-factor", 3)
CASES = [("h-n-3", 3), ("h-n-3", 5), ("h-n-3", 7), ("h-2n-3", 3), ("h-2n-3", 5), ("h7", 7),
         ("h9", 11), Z51xZ3, Z60xZ3, THREE_FACTORS]


@lru_cache(maxsize=None)
def instance(family: str, n):
    """The array and its lexicographically least Knight solution."""
    if family == "fixture":
        array = PFArray.from_json(json.loads((FIXTURES / n).read_text()))
    elif family == "three-factor":
        array = direct_sum(direct_sum(build_h_n_3(n), build_B(n, n, 3, 1, 2, 1, 2)),
                           build_B(n, n, 4, 2, 3, 2, 3))
    else:
        array = FAMILIES[family].builder(n)
    return array, knight_search(array)


# The oracle's results that are the same on every draw of a case, each
# computed on the first draw that needs it.


@lru_cache(maxsize=None)
def knight_faces(case):
    """The faces of the "knight" rotation and their colouring."""
    array, solution = instance(*case)
    ordering = orientation_to_orderings(array, solution)
    faces = outcome(oracle.trace_faces, CayleyGraph.from_entries(array),
                    build_rho0(array, ordering))
    return faces, None if isinstance(faces, tuple) else oracle.two_color_check(
        faces, array, ordering)


@lru_cache(maxsize=None)
def knight_bases(case):
    """The developments of the Knight ordering's row and column bases, whether
    the two are orthogonal, and whether the column one is orthogonal to a second
    development of its base."""
    array, solution = instance(*case)
    ordering = orientation_to_orderings(array, solution)
    graph = CayleyGraph.from_entries(array)
    row, col = (oracle.develop_and_verify(base_cycles(array, ordering, by), graph)
                for by in ("row", "col"))
    twin = oracle.develop_and_verify(col.base, graph)
    return {"row": row, "col": col}, oracle.verify_orthogonal(row, col), oracle.verify_orthogonal(
        col, twin)


def outcome(f, *args):
    """f(*args), or the type and message of the ValueError it raised."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def random_ordering(rng: random.Random, array: PFArray) -> Ordering:
    """Every line's filled cells in a random order."""
    natural = orientation_to_orderings(array, Orientation((1,) * array.m, (1,) * array.n))
    return Ordering(*({i: tuple(rng.sample(cells, len(cells))) for i, cells in lines.items()}
                      for lines in (natural.row_orders, natural.col_orders)))


def rotation(kind: str, rng: random.Random, graph: CayleyGraph, rho0: dict) -> dict:
    conn = sorted(graph.connection)
    if kind == "permute":  # any permutation of the connection set is a rotation seed
        return dict(zip(conn, rng.sample(conn, len(conn))))
    if kind == "shuffle":  # one cycle through C in random order: mostly non-zero voltages
        rng.shuffle(conn)
        return {a: conn[i - 1] for i, a in enumerate(conn)}
    return rho0


@given(case=st.sampled_from(CASES), kind=st.sampled_from(["knight", "permute", "shuffle"]),
       seed=st.integers(0, 2**32 - 1))
@example(case=Z51xZ3, kind="knight", seed=0)
@example(case=Z60xZ3, kind="permute", seed=1)
@example(case=("h-n-3", 3), kind="shuffle", seed=2)
@example(case=THREE_FACTORS, kind="knight", seed=3)
@example(case=THREE_FACTORS, kind="shuffle", seed=4)
@settings(max_examples=20, deadline=None)
def test_kernels_match_oracle(case, kind, seed):
    rng = random.Random(seed)
    array, solution = instance(*case)
    ordering = orientation_to_orderings(array, solution)
    graph = CayleyGraph.from_entries(array)
    rho0 = rotation(kind, rng, graph, build_rho0(array, ordering))

    report = outcome(trace_faces, graph, rho0)
    if kind == "knight":
        expected, expected_colored = knight_faces(case)
    else:
        expected = outcome(oracle.trace_faces, graph, rho0)
    if isinstance(expected, tuple):  # the same odd-Euler error
        assert report == expected
        return
    assert (report.V, report.S, report.F, report.genus) == (
        expected.V, expected.S, expected.F, expected.genus)
    if kind != "knight":
        expected_colored = oracle.two_color_check(expected, array, ordering)
    colored = two_color_check(report, array, ordering)
    assert colored == expected_colored
    assert colored or kind != "knight"
    assert report.to_json() == expected.to_json()  # with the colour-class sizes
    assert report.faces == oracle.coordinate_faces(expected.faces)
    assert oracle.color_of_face(report) == expected.color_of_face

    knight_developed, knight_orthogonal, twin_orthogonal = knight_bases(case)
    certs = {}
    orderings = {"knight": ordering, "random": random_ordering(rng, array)}
    for name, o in orderings.items():
        for by in ("row", "col"):
            base = outcome(base_cycles, array, o, by)
            if isinstance(base, tuple):  # a random ordering need not be simple
                assert base[0] is CertificationError and name == "random"
                continue
            cert = outcome(develop_and_verify, base, graph)
            ref = (knight_developed[by] if name == "knight"
                   else outcome(oracle.develop_and_verify, base, graph))
            if isinstance(ref, tuple):
                assert cert == ref
                continue
            assert cert.to_json() == ref.to_json()
            assert cert.cycle_lengths == ref.cycle_lengths
            assert oracle.cycles(cert) == ref.cycles
            certs[name, by] = cert, ref
    for first, second in [(("random", "row"), ("random", "col")),
                          (("knight", "row"), ("knight", "col")),
                          (("knight", "row"), ("random", "row"))]:
        if first in certs and second in certs:
            (c1, r1), (c2, r2) = certs[first], certs[second]
            assert verify_orthogonal(c1, c2) == (
                knight_orthogonal if first[0] == second[0] == "knight"
                else oracle.verify_orthogonal(r1, r2))
    # two developments of one base share every edge of every cycle
    cert = certs["knight", "col"][0]
    twin = develop_and_verify(cert.base, graph)
    assert verify_orthogonal(cert, twin) is twin_orthogonal is False


def test_negative_cases_match_oracle():
    array, solution = instance("h-n-3", 3)
    ordering = orientation_to_orderings(array, solution)
    graph = CayleyGraph.from_entries(array)

    # a cyclic rotation that is not the two-branch map of the orderings
    keys = sorted(build_rho0(array, ordering))
    shuffled = {keys[i]: keys[(i + 1) % len(keys)] for i in range(len(keys))}
    report, expected = trace_faces(graph, shuffled), oracle.trace_faces(graph, shuffled)
    assert (report.F, report.genus, report.faces) == (
        expected.F, expected.genus, oracle.coordinate_faces(expected.faces))
    assert two_color_check(report, array, ordering) is False
    assert oracle.two_color_check(expected, array, ordering) is False

    # every face a column translate: each edge lies on two faces of class 1
    omega_r, omega_c = oracle.entry_successor_maps(array, ordering)
    neg = array.spec.codes.neg
    back = {b: a for a, b in omega_c.items()}
    columns_only = {**{neg(e): omega_c[e] for e in omega_c},
                    **{e: neg(back[e]) for e in omega_c}}
    report, expected = trace_faces(graph, columns_only), oracle.trace_faces(graph, columns_only)
    assert report.F == expected.F
    assert two_color_check(report, array, ordering) is False
    assert oracle.two_color_check(expected, array, ordering) is False

    # a report listing one face twice puts its edges on two faces of one class
    expected = oracle.trace_faces(graph, build_rho0(array, ordering))
    doubled = dataclasses.replace(expected, faces=expected.faces + expected.faces[:1])
    assert oracle.two_color_check(doubled, array, ordering) is False

    # a wrong difference set, and a base that covers the edges of one cycle twice
    col_base = base_cycles(array, ordering, by="col")
    for base in ([(0, 1, 2)], col_base + col_base[:1]):  # element codes of Z_21
        kernel = outcome(develop_and_verify, base, graph)
        assert kernel[0] is CertificationError
        assert kernel == outcome(oracle.develop_and_verify, base, graph)


def test_fixture_faces_match_oracle():
    for case in (Z51xZ3, Z60xZ3):
        array, solution = instance(*case)
        ordering = orientation_to_orderings(array, solution)
        graph = CayleyGraph.from_entries(array)
        rho0 = build_rho0(array, ordering)
        report, expected = trace_faces(graph, rho0), oracle.trace_faces(graph, rho0)
        assert two_color_check(report, array, ordering)
        assert oracle.two_color_check(expected, array, ordering)
        assert report.faces == oracle.coordinate_faces(expected.faces)  # in the same order
        assert oracle.color_of_face(report) == expected.color_of_face


def test_rho0_matches_oracle_when_a_digit_is_its_own_negative():
    # in Z_35 x Z_4 the digit 2 is its own negative: (0, 2) = -(0, 2), and
    # (x, 2) and (-x, 2) are negatives of each other, so +-E(A) has a repeat
    base = build_archdeacon_composite(build_h_n_3(5), 4)
    spec = base.spec
    elements = entries(base)
    gadget = [cell for cell, e in sorted(elements.items()) if e.coords[1]]
    inputs = []
    for i, cell in enumerate(gadget):
        inputs.append({cell: element(spec, 0, 2)})
        x = elements[cell].coords[0]
        inputs.append({cell: element(spec, x, 2), gadget[i - 1]: element(spec, -x, 2)})
    errors = set()
    for changes in inputs:
        array = from_elements(base.m, base.n, spec, {**elements, **changes})
        natural = Orientation((1,) * array.m, (1,) * array.n)
        for ordering in (orientation_to_orderings(array, natural),
                         orientation_to_orderings(array, Orientation((-1,) * 5, (1,) * 5))):
            kernel = outcome(build_rho0, array, ordering)
            assert isinstance(kernel, tuple)  # never a rotation
            assert kernel == outcome(oracle.build_rho0, array, ordering)
            errors.add(kernel)
    assert (ValueError, "rho0 is no permutation: an entry is 0 or the negative of an entry") in errors


def test_rho0_matches_oracle():
    for case in CASES:
        array, solution = instance(*case)
        for o in (solution, Orientation(tuple(-x for x in solution.r), solution.c)):
            ordering = orientation_to_orderings(array, o)
            kernel, expected = outcome(build_rho0, array, ordering), outcome(
                oracle.build_rho0, array, ordering)
            if isinstance(expected, tuple):  # the same witness
                assert kernel == expected
            else:
                spec = array.spec
                assert {decode(spec, a): decode(spec, b) for a, b in kernel.items()} == expected
