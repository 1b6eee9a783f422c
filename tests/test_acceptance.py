"""Acceptance suite: one test per criterion; conftest.py emits one PASS/FAIL line each."""

import json
import random
import time
from collections import Counter
from pathlib import Path

import topology_oracle as oracle
from heffter_oracle import check_necessary_conditions
from knight_oracle import knight_step, nine_diagonal_skeleton
from group_oracle import neg
from pfarray_oracle import entries, strip_widths
from relheffter.cli import main
from relheffter.constructions import (
    build_archdeacon_composite,
    build_h7,
    build_h9,
    build_h_2n_3,
    build_h_n_3,
)
from relheffter.heffter import verify_archdeacon
from relheffter.orderings import (
    LiftSpec,
    Orientation,
    is_globally_simple,
    knight_search,
    knight_tour,
    nine_diagonal_orientation,
    lift_solution,
    orientation_to_orderings,
    search_lift_shape,
)
from relheffter.pfarray import PFArray, Skeleton, classify_diagonals, skeleton_from_diagonals
from relheffter.topology import (
    CayleyGraph,
    base_cycles,
    build_rho0,
    develop_and_verify,
    heffter_genus_formula,
    trace_faces,
    two_color_check,
    verify_orthogonal,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def test_criterion_1_fixture_reproduction():
    t0 = time.time()
    pairs = [
        (build_h_n_3(9), "h9_9_3.csv"),
        (build_h_2n_3(9), "h18_9_3.csv"),
        (build_h7(11), "h7_11_7.csv"),
        (build_h9(15), "h9_15_9.csv"),
    ]
    for array, fixture in pairs:
        assert array.to_csv() == (FIXTURES / fixture).read_text(), fixture
    assert time.time() - t0 < 1.0


def test_criterion_2_construction_sweeps(capsys):
    # every family member with n <= 199, built, verified (integer Heffter,
    # which implies the stated support; k-diagonal; globally simple) and
    # certified at the formula genus
    t0 = time.time()
    assert main(["sweep"]) == 0
    out = capsys.readouterr().out
    assert out == (ROOT / "results" / "biembeddings.json").read_text()
    rows = json.loads(out)
    assert Counter(row["family"] for row in rows) == {"h-n-3": 99, "h-2n-3": 99, "h7": 49, "h9": 48}
    for row in rows:
        n, k, t = row["n"], row["k"], row["t"]
        assert row["verdict"] == "certified", row
        assert row["v"] == 2 * n * k + t and row["F"] == row["v"] * 2 * n, row
        assert row["genus"] == heffter_genus_formula(n, n, k, k, t), row
    for n in range(11, 200, 4):
        assert set(strip_widths(classify_diagonals(build_h9(n)), n)) == {(n - 9) // 2}, n
    assert time.time() - t0 < 30.0


def test_criterion_3_necessary_conditions():
    # independent transcription of the three clauses, compared on the full
    # (n, k, t) table with n <= 20
    checked = 0
    for n in range(3, 21):
        for k in range(3, n + 1):
            nk = n * k
            for t in range(1, 2 * nk + 1):
                if (2 * nk) % t != 0:
                    continue
                got = check_necessary_conditions(n, k, t)
                if nk % t == 0:
                    ok = nk % 4 == 0 or (nk % 2 == 1 and (nk + t) % 4 == 0)
                    assert got["divides-nk"] == ("pass" if ok else "fail"), (n, k, t)
                else:
                    assert got["divides-nk"] == "not-applicable"
                if t == 2 * nk:
                    assert got["t-equals-2nk"] == ("pass" if k % 2 == 0 else "fail")
                else:
                    assert got["t-equals-2nk"] == "not-applicable"
                if t != 2 * nk and nk % t != 0:
                    ok = (t + 2 * nk) % 8 == 0
                    assert got["mod-8"] == ("pass" if ok else "fail"), (n, k, t)
                else:
                    assert got["mod-8"] == "not-applicable"
                checked += 1
    assert checked > 1000
    # documented necessary-only gap: (4, 3, 8) passes every clause even though
    # no such integer array exists
    assert "fail" not in check_necessary_conditions(4, 3, 8).values()


def test_criterion_4_knight_machinery():
    t0 = time.time()
    # (a) the fully filled 2x2 admits no solution among all 16 orientations
    full22 = Skeleton(2, 2, frozenset({(1, 1), (1, 2), (2, 1), (2, 2)}))
    for r in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        for c in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            _, ok = knight_tour(full22, Orientation(r, c), (1, 1))
            assert not ok
    # (b) the closed-form 9-diagonal solution
    for n in (21, 35, 49):
        skel = nine_diagonal_skeleton(n)
        orbit, ok = knight_tour(skel, nine_diagonal_orientation(n), min(skel.cells))
        assert ok and len(orbit) == 9 * n, n
    # (c) k=3 diagonals (2,3,4): window search plus two lifting steps
    spec = LiftSpec((2, 3, 4))
    assert spec.M == 2
    sols = {}
    for n in range(5, 5 + spec.M + 1):
        if n % 4 == 1:
            sols[n] = search_lift_shape(spec, n)
            assert sols[n] is not None, n
    o = sols[5]
    for n in (5, 7):
        o = lift_solution(spec, n, o)  # verifies the enlarged orientation
    # (d) k=7 base window n in [9, 23]
    spec7 = LiftSpec((1, 2, 3, 4, 6, 7, 8))
    assert spec7.M == 14
    for n in range(9, 9 + spec7.M + 1):
        if n % 4 == 1:
            assert search_lift_shape(spec7, n) is not None, n
    assert time.time() - t0 < 300.0


def test_criterion_5_decompositions():
    cases = [
        (build_h_n_3(9), 9, 9, 3),
        (build_h_2n_3(9), 9, 18, 3),
        (build_h_n_3(3), 3, 3, 3),
        (build_h7(7), 7, 7, 7),
    ]
    for a, n, t, k in cases:
        v = 2 * n * k + t
        graph = oracle.multipartite(v, t)
        ordering = orientation_to_orderings(a, Orientation((1,) * a.m, (1,) * a.n))
        rows = develop_and_verify(base_cycles(a, ordering, by="row"), graph)
        cols = develop_and_verify(base_cycles(a, ordering, by="col"), graph)
        for cert in (rows, cols):
            assert sum(len(c) for c in oracle.cycles(cert)) == graph.num_edges
            assert set(cert.cycle_lengths) == {k}
        assert verify_orthogonal(rows, cols)


def test_criterion_6_biembeddings():
    t0 = time.time()
    cases = [(build_h_n_3(n), n, n, 3) for n in (3, 5, 7, 9, 11, 13)]
    cases.append((build_h7(7), 7, 7, 7))
    expected_genus = {(3, 3): 22, (9, 9): 253}
    for a, n, t, k in cases:
        sol = knight_search(a)
        assert sol is not None, n
        ordering = orientation_to_orderings(a, sol)
        rho0 = build_rho0(a, ordering)
        assert len(rho0) == 2 * n * k
        report = trace_faces(CayleyGraph.from_entries(a), rho0)
        assert report.F == (2 * n * k + t) * (2 * n), (n, k)
        assert two_color_check(report, a, ordering), (n, k)
        assert report.genus == heffter_genus_formula(n, n, k, k, t), (n, k)
        if (n, t) in expected_genus:
            assert report.genus == expected_genus[(n, t)]
    assert time.time() - t0 < 60.0


def test_criterion_7_archdeacon():
    # the two d=3 fixture arrays
    for name in ("archdeacon_8x8_z51xz3.json", "archdeacon_7x7_z60xz3.json"):
        a = PFArray.from_json(json.loads((FIXTURES / name).read_text()))
        assert verify_archdeacon(a).valid, name
        assert is_globally_simple(a), name

    # composites over the odd cyclically 3-diagonal family
    for n in range(3, 14, 2):
        base = build_h_n_3(n)
        if n == 3:
            continue  # k = n: no empty diagonal to host the gadget corner
        for d in (3, 4, 5):
            comp = build_archdeacon_composite(base, d)
            assert verify_archdeacon(comp).valid, (n, d)
            assert is_globally_simple(comp), (n, d)

    # even-size base skeleton D_1 u D_2 u D_3 u {(1,2)}: exhaustive Knight search
    skel8 = skeleton_from_diagonals(8, [1, 2, 3])
    skel8 = Skeleton(8, 8, skel8.cells | {(1, 2)})
    sol = knight_search(skel8)
    assert sol is not None

    # the traced embedding of the 8x8 fixture: each face class is triangles
    # plus the translates of exactly one base quadrangle
    a = PFArray.from_json(json.loads((FIXTURES / "archdeacon_8x8_z51xz3.json").read_text()))
    assert a.skeleton.cells == skel8.cells
    ordering = orientation_to_orderings(a, sol)
    report = trace_faces(CayleyGraph.from_entries(a), build_rho0(a, ordering))
    assert two_color_check(report, a, ordering)
    sizes = {1: Counter(), 2: Counter()}
    for face, color in zip(report.faces, oracle.color_of_face(report)):
        sizes[color][len(face)] += 1
    order = a.spec.size
    for color in (1, 2):
        assert set(sizes[color]) == {3, 4}
        assert sizes[color][4] == order  # exactly one quadrangle up to translation
        assert sizes[color][3] == 7 * order


def test_criterion_8_property_suites():
    rng = random.Random(20260823)

    def random_skeleton():
        m, n = rng.randint(2, 5), rng.randint(2, 5)
        population = [(r, c) for r in range(1, m + 1) for c in range(1, n + 1)]
        cells = rng.sample(population, rng.randint(1, min(16, len(population))))
        return Skeleton(m, n, frozenset(cells))

    def random_orientation(skel):
        return Orientation(
            tuple(rng.choice((1, -1)) for _ in range(skel.m)),
            tuple(rng.choice((1, -1)) for _ in range(skel.n)),
        )

    for _ in range(200):
        skel = random_skeleton()
        o = random_orientation(skel)
        # knight_step is a bijection of the filled cells
        assert {knight_step(skel, o, c) for c in skel.cells} == set(skel.cells)
        # coverage is start-independent
        assert len({knight_tour(skel, o, c)[1] for c in skel.cells}) == 1
        # orientation-reversal symmetry on |skel| <= 16
        start = min(skel.cells)
        assert knight_tour(skel, o, start)[1] == knight_tour(skel, Orientation(tuple(-x for x in o.r), tuple(-x for x in o.c)), start)[1]

    # telescoping differences of every base cycle
    a = build_h_n_3(5)
    ordering = orientation_to_orderings(a, Orientation((1,) * a.m, (1,) * a.n))
    for by in ("row", "col"):
        for idx, cycle in enumerate(base_cycles(a, ordering, by=by), start=1):
            cells = (ordering.row_orders if by == "row" else ordering.col_orders)[idx]
            elements = [entries(a)[c] for c in cells]
            expected = sorted(
                x.coords for e in elements for x in (e, neg(e))
            )
            assert sorted(d.coords for d in oracle.differences(cycle, a.spec)) == expected

    # Euler integrality across the small biembedding family
    for n in (3, 5, 7):
        arr = build_h_n_3(n)
        sol = knight_search(arr)
        ordering = orientation_to_orderings(arr, sol)
        report = trace_faces(CayleyGraph.from_entries(arr), build_rho0(arr, ordering))
        assert (report.V - report.S + report.F) % 2 == 0
