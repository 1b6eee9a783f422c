"""Command-line interface: subcommands, exit codes, determinism, round trips."""

import dataclasses
import json
from pathlib import Path

import pytest

import relheffter.cli as cli
import relheffter.constructions as cons
import topology_oracle as oracle
from relheffter.cli import build_parser, main
from relheffter.constructions import FAMILIES, build_archdeacon_composite, build_h_n_3
from relheffter.group import GroupError
from relheffter.orderings import knight_search, orientation_to_orderings
from relheffter.pfarray import PFArray
from relheffter.topology import (
    CayleyGraph,
    CertificationError,
    build_rho0,
    certify_biembedding,
    heffter_genus_formula,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def test_construct_h_n_3_matches_fixture(tmp_path, capsys):
    out = tmp_path / "a"
    code, payload = run(capsys, "construct", "h-n-3", "--n", "9", "--out", str(out))
    assert code == 0 and payload["status"] == "ok"
    assert payload["report"]["valid"]
    assert (tmp_path / "a.csv").read_text() == (FIXTURES / "h9_9_3.csv").read_text()


def test_construct_h9_matches_fixture(tmp_path, capsys):
    out = tmp_path / "b"
    code, _ = run(capsys, "construct", "h9", "--n", "15", "--out", str(out))
    assert code == 0
    assert (tmp_path / "b.csv").read_text() == (FIXTURES / "h9_15_9.csv").read_text()


def test_construct_usage_error(capsys):
    code = main(["construct", "h7", "--n", "6"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_verify_fixture_csv(capsys):
    code, payload = run(
        capsys, "verify", str(FIXTURES / "h7_11_7.csv"), "--v", "161",
        "--t", "7", "--integer", "--globally-simple",
    )
    assert code == 0 and payload["status"] == "ok"
    assert payload["integer"]["valid"] and payload["globally_simple"]


def test_verify_archdeacon_fixture(capsys):
    code, payload = run(
        capsys, "verify", str(FIXTURES / "archdeacon_8x8_z51xz3.json"),
        "--archdeacon", "--globally-simple",
    )
    assert code == 0 and payload["archdeacon"]["valid"]


def test_verify_perturbed_array_fails(tmp_path, capsys):
    rows = (FIXTURES / "h9_9_3.csv").read_text().splitlines()
    rows[0] = rows[0].replace("-27", "-26", 1)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(rows) + "\n")
    code, payload = run(capsys, "verify", str(bad), "--v", "63", "--t", "9")
    assert code == 1 and payload["status"] == "violation"
    tags = {v["tag"] for v in payload["relative"]["violations"]}
    assert "row-sum" in tags


def test_verify_requires_a_check(capsys):
    assert main(["verify", str(FIXTURES / "h9_9_3.csv"), "--v", "63"]) == 2


def test_knight_search_and_orientation(tmp_path, capsys):
    out = tmp_path / "sk"
    assert main(["construct", "skeleton-cor39", "--n", "5", "--k", "3",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    code, payload = run(capsys, "knight", str(out) + ".json", "--search")
    assert code == 0 and payload["is_solution"]
    code, payload = run(capsys, "knight", str(out) + ".json",
                        "--orientation", f"{payload['orientation_rows']},{payload['orientation_cols']}")
    assert code == 0 and payload["is_solution"]


def test_knight_no_solution_exit_1(tmp_path, capsys):
    grid = tmp_path / "full2.json"
    grid.write_text(json.dumps({"m": 2, "n": 2, "cells": [[1, 1], [1, 2], [2, 1], [2, 2]]}))
    code, payload = run(capsys, "knight", str(grid), "--search")
    assert code == 1 and payload["status"] == "violation"


def test_knight_closed_form_flag(tmp_path, capsys):
    import relheffter.orderings as o
    skel = o.nine_diagonal_skeleton(21)
    f = tmp_path / "l410.json"
    f.write_text(json.dumps(skel.to_json()))
    code, payload = run(capsys, "knight", str(f), "--lemma410")
    assert code == 0 and payload["orbit_length"] == 189


def test_knight_lift(tmp_path, capsys):
    out = tmp_path / "sk"
    main(["construct", "skeleton-cor39", "--n", "5", "--k", "3", "--out", str(out)])
    capsys.readouterr()
    code, payload = run(capsys, "knight", str(out) + ".json", "--search", "--lift", "2,3,4")
    assert code == 0 and payload["lifted_n"] == 7 and payload["is_solution"]


@pytest.mark.parametrize("argv", [
    ["construct", "h9", "--n", "11"],
    ["construct", "skeleton-cor39", "--n", "9", "--k", "7"],
], ids=["array", "skeleton"])
@pytest.mark.parametrize("mode", ["--search", "--orientation"])
def test_knight_lift_rejects_another_skeleton(tmp_path, capsys, argv, mode):
    # neither the 11 x 11 h9 array nor the 9 x 9 skeleton on D_1..D_4, D_6..D_8
    # is A_n(2, 3, 4)
    out = str(tmp_path / "P")
    assert main([*argv, "--out", out]) == 0
    n = int(argv[argv.index("--n") + 1])
    flags = ["--search"] if mode == "--search" else [f"--orientation={'+' * n},{'+' * n}"]
    capsys.readouterr()
    code = main(["knight", f"{out}.json", *flags, "--lift", "2,3,4"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {out}.json is not the skeleton of diagonals 2,3,4\n"


@pytest.mark.parametrize("modes", [
    ["--search", "--orientation=+++,+++"],
    ["--search", "--lemma410"],
    ["--orientation=+++,+++", "--lemma410"],
    [],
], ids=["search-orientation", "search-lemma410", "orientation-lemma410", "none"])
def test_knight_modes_are_exclusive_and_one_is_required(tmp_path, capsys, modes):
    path = tmp_path / "h3.json"
    path.write_text(build_h_n_3(3).to_json_text())
    with pytest.raises(SystemExit) as exc:
        main(["knight", str(path), *modes])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "--search" in captured.err


def test_embed_pipeline(tmp_path, capsys):
    out = tmp_path / "h3"
    main(["construct", "h-n-3", "--n", "3", "--out", str(out)])
    capsys.readouterr()
    code, payload = run(capsys, "knight", str(out) + ".json", "--search")
    orientation = f"{payload['orientation_rows']},{payload['orientation_cols']}"
    code, payload = run(capsys, "embed", str(out) + ".json", "--t", "3",
                        "--orientation", orientation)
    assert code == 0
    emb = payload["embedding"]
    assert (emb["V"], emb["S"], emb["F"]) == (21, 189, 126)
    assert emb["genus"] == emb["formula_genus"] == 22
    assert payload["two_colorable"] and payload["orthogonal"]
    assert payload["row_decomposition"]["cycle_lengths"] == {"3": 63}


def test_embed_incompatible_orientation_exit_1(tmp_path, capsys):
    out = tmp_path / "h3"
    main(["construct", "h-n-3", "--n", "3", "--out", str(out)])
    capsys.readouterr()
    code, payload = run(capsys, "embed", str(out) + ".json",
                        "--orientation", "+++,+++")
    assert code == 1 and payload["status"] == "violation"


@pytest.mark.parametrize("family, n", [("h-n-3", 5), ("h7", 7)])
def test_embed_emit_faces_equals_the_traced_faces(tmp_path, capsys, family, n):
    array = FAMILIES[family].builder(n)
    path = tmp_path / "a.json"
    path.write_text(array.to_json_text())
    solution = knight_search(array)
    argv = ["embed", str(path), "--t", str(FAMILIES[family].t(n)),
            "--orientation", ",".join(solution.to_strings())]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    code, payload = run(capsys, *argv, "--emit-faces")
    assert code == 0 and payload["status"] == "ok"
    k = FAMILIES[family].k
    for key in ("row_decomposition", "col_decomposition"):
        assert payload[key]["num_cycles"] == n * array.spec.size
        assert payload[key]["cycle_lengths"] == {str(k): n * array.spec.size}
    assert payload["embedding"]["genus"] == payload["embedding"]["formula_genus"]
    traced = oracle.trace_faces(CayleyGraph.from_entries(array),
                                build_rho0(array, orientation_to_orderings(array, solution)))
    assert payload.pop("faces") == [
        [[list(x.coords) for x in dart] for dart in face] for face in traced.faces]
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == plain


def _perturbed_h_n_3(n):
    a = build_h_n_3(n)
    if n != 5:
        return a
    entries = dict(a.entries)
    entries[(1, 1)] = entries[(1, 1)] + a.spec.element(1)
    return PFArray(a.m, a.n, a.spec, entries)


def _certify_but_not_n_5(array, orientation):
    if array.n == 5:
        raise CertificationError("col 1 has fewer than 3 filled cells")
    return certify_biembedding(array, orientation)


# each case breaks one stage of the chain for n = 5 only
SWEEP_FAULTS = [
    ("violation", "builder", _perturbed_h_n_3),
    ("not-globally-simple", "is_globally_simple", lambda a: a.n != 5),
    ("no-knight-solution", "knight_search", lambda a: None if a.n == 5 else knight_search(a)),
    ("not-certified", "certify_biembedding", _certify_but_not_n_5),
    ("not-certified", "heffter_genus_formula",
     lambda m, n, *skt: -1 if n == 5 else heffter_genus_formula(m, n, *skt)),
]


@pytest.mark.parametrize("verdict, name, fault", SWEEP_FAULTS, ids=[f[1] for f in SWEEP_FAULTS])
def test_sweep_names_the_first_failed_stage(monkeypatch, capsys, verdict, name, fault):
    family = dataclasses.replace(FAMILIES["h-n-3"], admissible=lambda n: n in (3, 5, 7))
    if name == "builder":
        family = dataclasses.replace(family, builder=fault)
    else:
        monkeypatch.setattr(cli, name, fault)
    monkeypatch.setattr(cons, "FAMILIES", {"h-n-3": family})
    code = main(["sweep"])
    rows = {row["n"]: row for row in json.loads(capsys.readouterr().out)}
    assert code == 1
    assert [rows[n]["verdict"] for n in (3, 5, 7)] == ["certified", verdict, "certified"]
    # the orientation is known once the Knight search has succeeded
    assert (rows[5]["orientation"] is None) == (verdict != "not-certified")


def test_sweep_takes_no_options(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--max-n", "15"])
    assert exc.value.code == 2 and capsys.readouterr().out == ""


def _write_array(path, orders, rows):
    cells = [{"r": r, "c": c, "v": [x]} for r, row in enumerate(rows, 1)
             for c, x in enumerate(row, 1) if x is not None]
    path.write_text(json.dumps({"m": len(rows), "n": len(rows[0]),
                                "group": {"orders": orders}, "cells": cells}))
    return str(path)


def test_embed_repeated_entries_is_usage_error(tmp_path, capsys):
    path = _write_array(tmp_path / "rep.json", [5], [[1, 4], [4, 1]])
    code = main(["embed", path, "--orientation", "++,++"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "not distinct" in err
    assert len(err.strip().splitlines()) == 1


def test_embed_certification_error_is_violation_payload(tmp_path, capsys):
    # rho0 is cyclic on a single row, but every column has one cell, so the
    # column base cycles do not exist
    path = _write_array(tmp_path / "row.json", [13], [[1, 2, 4]])
    code, payload = run(capsys, "embed", path, "--orientation", "+,+++")
    assert code == 1
    assert payload == {"input": path, "status": "violation",
                       "error": "col 1 has fewer than 3 filled cells"}


def test_embed_wrong_t_is_usage_error_before_certification(tmp_path, capsys):
    # the same array fails certification, but Z_13 is not Z_{2nk+t} for t = 5
    path = _write_array(tmp_path / "row.json", [13], [[1, 2, 4]])
    code = main(["embed", path, "--orientation", "+,+++", "--t", "5"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: array group (13,) is not Z_{2nk+t} = Z_11\n"


def test_embed_repeat_in_plus_minus_entries_is_usage_error(tmp_path, capsys):
    # Over Z_35 x Z_4, (0, 2) is its own negative and (x, 2), (-x, 2) are
    # negatives of each other. build_rho0 reports such a repeat in +-E(A) as a
    # violation or as bad input depending on the hash order of the entries;
    # embed rejects it as bad input before any stage runs.
    base = build_archdeacon_composite(build_h_n_3(5), 4)
    spec = base.spec
    gadget = [cell for cell, e in sorted(base.entries.items()) if e.coords[1]]
    inputs = []
    for i, cell in enumerate(gadget):
        inputs.append({cell: spec.element(0, 2)})
        x = base.entries[cell].coords[0]
        inputs.append({cell: spec.element(x, 2), gadget[i - 1]: spec.element(-x, 2)})
    errors = set()
    for number, changes in enumerate(inputs):
        path = tmp_path / f"{number}.json"
        path.write_text(PFArray(base.m, base.n, spec, {**base.entries, **changes}).to_json_text())
        for orientation in ("+++++,+++++", "-+-+-,++-++"):
            code = main(["embed", str(path), f"--orientation={orientation}"])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            errors.add(captured.err)
    assert errors == {
        "error: rho0 is no permutation: an entry is 0 or the negative of an entry\n",
        # (1, 2) set to (0, 2) beside (1, 1) set to (0, 2)
        "error: entries are not distinct; entry-level orderings undefined\n",
    }


@pytest.mark.parametrize("orders,t,message", [
    ([22], 4, "t=4 does not divide v=22"),
    ([18], 0, "v and t must be positive, got v=18, t=0"),
])
def test_verify_without_an_order_t_subgroup_is_usage_error(tmp_path, capsys, orders, t, message):
    # three cells in each line of a 3x3 array over Z_{2nk+t} = Z_{18+t}
    path = _write_array(tmp_path / "a.json", orders, [[1, 2, 3], [2, 3, 1], [3, 1, 2]])
    code = main(["verify", path, "--t", str(t)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("family,n,fixture", [
    ("h-n-3", 9, "h9_9_3.csv"),
    ("h-2n-3", 9, "h18_9_3.csv"),
    ("h7", 11, "h7_11_7.csv"),
    ("h9", 15, "h9_15_9.csv"),
])
def test_construct_writes_the_bytes_of_json_dumps(tmp_path, capsys, family, n, fixture):
    out = tmp_path / "a"
    code, payload = run(capsys, "construct", family, "--n", str(n), "--out", str(out))
    assert code == 0 and payload["artifacts"] == [f"{out}.json", f"{out}.csv"]
    data = FAMILIES[family].builder(n).to_json()
    expected = json.dumps(data, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "a.json").read_bytes() == expected.encode()
    assert (tmp_path / "a.csv").read_bytes() == (FIXTURES / fixture).read_bytes()


def _cells(*values):
    return [{"r": 1, "c": c, "v": v} for c, v in enumerate(values, 1)]


MALFORMED = {
    "missing-group": ("a.json", {"m": 1, "n": 2, "cells": _cells([1], [4])}, ["--archdeacon"]),
    "cell-outside": ("a.json", {"m": 1, "n": 2, "group": {"orders": [5]},
                                "cells": _cells([1], [4], [2])}, ["--archdeacon"]),
    "truncated-coords": ("a.json", {"m": 1, "n": 2, "group": {"orders": [5]},
                                    "cells": _cells([1, 2], [4])}, ["--archdeacon"]),
    "non-canonical": ("a.json", {"m": 1, "n": 2, "group": {"orders": [5]},
                                 "cells": _cells([7], [4])}, ["--archdeacon"]),
    "non-integer-csv": ("a.csv", "1,2,x\n", ["--v", "5", "--archdeacon"]),
    "ragged-csv": ("a.csv", "1,-1\n-1,1,0\n", ["--v", "5", "--archdeacon"]),
    "float-m": ("a.json", {"m": 1.0, "n": 2, "group": {"orders": [5]},
                           "cells": _cells([1], [4])}, ["--archdeacon"]),
    "float-n": ("a.json", {"m": 1, "n": 2.9, "group": {"orders": [5]},
                           "cells": _cells([1], [4])}, ["--archdeacon"]),
    "float-r": ("a.json", {"m": 1, "n": 2, "group": {"orders": [5]},
                           "cells": [{"r": 1.7, "c": 1, "v": [1]},
                                     {"r": 1, "c": 2, "v": [4]}]}, ["--archdeacon"]),
    "string-c": ("a.json", {"m": 1, "n": 2, "group": {"orders": [5]},
                            "cells": [{"r": 1, "c": 1, "v": [1]},
                                      {"r": 1, "c": "2", "v": [4]}]}, ["--archdeacon"]),
    "bool-r": ("a.json", {"m": 1, "n": 2, "group": {"orders": [5]},
                          "cells": [{"r": True, "c": 1, "v": [1]},
                                    {"r": 1, "c": 2, "v": [4]}]}, ["--archdeacon"]),
    "float-orders": ("a.json", {"m": 1, "n": 2, "group": {"orders": [5.5]},
                                "cells": _cells([1], [4])}, ["--archdeacon"]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_usage_error(tmp_path, capsys, case):
    name, content, flags = MALFORMED[case]
    path = tmp_path / name
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    code = main(["verify", str(path), *flags])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {path}")
    assert len(captured.err.strip().splitlines()) == 1


# a product-group array whose second cell is bad, with the parser's message
PRODUCT_COORDINATES = {
    "non-canonical": ([4, 3], "coordinate 3 not canonical for order 3"),
    "coordinate-count": ([4], "coordinate count 1 != factor count 2"),
    "bool": ([4, True], "cell (1, 2): coordinates [4, True] are not a list of integers"),
    "float": ([4.0, 2], "cell (1, 2): coordinates [4.0, 2] are not a list of integers"),
}


@pytest.mark.parametrize("case", sorted(PRODUCT_COORDINATES))
def test_product_group_coordinates_are_strict(tmp_path, capsys, case):
    coords, message = PRODUCT_COORDINATES[case]
    data = {"m": 1, "n": 2, "group": {"orders": [5, 3]}, "cells": _cells([1, 2], coords)}
    with pytest.raises(GroupError) as exc:
        PFArray.from_json(data)
    assert str(exc.value) == message
    path = tmp_path / "a.json"
    path.write_text(json.dumps(data))
    code = main(["verify", str(path), "--archdeacon"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("skeleton", [
    {"m": 2.0, "n": 2, "cells": [[1, 1], [2, 2]]},
    {"m": 2, "n": "2", "cells": [[1, 1], [2, 2]]},
    {"m": 2, "n": 2, "cells": [[1.5, 1], [2, 2]]},
    {"m": 2, "n": 2, "cells": [[1, 1], [2, True]]},
    {"m": 2, "n": 2, "cells": [[1, 1], [1, 1], [2, 2], [1, 2], [2, 1]]},
], ids=["float-m", "string-n", "float-r", "bool-c", "repeated-cell"])
def test_malformed_skeleton_is_usage_error(tmp_path, capsys, skeleton):
    path = tmp_path / "skel.json"
    path.write_text(json.dumps(skeleton))
    code = main(["knight", str(path), "--search"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {path}: ")
    assert len(captured.err.strip().splitlines()) == 1


def test_knight_empty_skeleton_is_usage_error(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"m": 2, "n": 2, "cells": []}))
    code = main(["knight", str(path), "--search"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {path} has no filled cells\n"


def test_embed_empty_array_is_usage_error(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"m": 2, "n": 2, "group": {"orders": [7]}, "cells": []}))
    code = main(["embed", str(path), "--orientation", "++,++"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {path} has no filled cells\n"


def test_determinism(tmp_path, capsys):
    outputs = []
    for tag in ("x", "y"):
        out = tmp_path / tag
        main(["construct", "h7", "--n", "11", "--out", str(out)])
        outputs.append(capsys.readouterr().out.replace(str(out), "OUT"))
    assert outputs[0] == outputs[1]
    assert (tmp_path / "x.csv").read_text() == (tmp_path / "y.csv").read_text()


def test_round_trip_construct_verify(tmp_path, capsys):
    out = tmp_path / "h2n"
    main(["construct", "h-2n-3", "--n", "7", "--out", str(out)])
    capsys.readouterr()
    for path in (str(out) + ".json",):
        assert main(["verify", path, "--t", "14", "--integer"]) == 0
        capsys.readouterr()


def test_jobs_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--jobs", "4", "construct", "h-n-3", "--n", "3"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_no_parity_filter_flag_rejected(tmp_path, capsys):
    grid = tmp_path / "full2.json"
    grid.write_text(json.dumps({"m": 2, "n": 2, "cells": [[1, 1], [1, 2], [2, 1], [2, 2]]}))
    with pytest.raises(SystemExit) as exc:
        main(["knight", str(grid), "--search", "--no-parity-filter"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_main_reuses_one_parser(tmp_path, capsys):
    path = tmp_path / "h3.json"
    path.write_text(json.dumps(build_h_n_3(3).to_json()))
    calls = [
        ["knight", str(path), "--search", "--emit-orbit"],
        ["knight", str(path), "--search"],
        ["embed", str(path)],  # usage error: --orientation is required
        ["--help"],
    ]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(call(argv))
    build_parser.cache_clear()
    reused = [call(argv) for argv in calls]
    assert build_parser.cache_info().misses == 1
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 2, 0]
    assert "orbit" in json.loads(reused[0][1])
    assert "orbit" not in json.loads(reused[1][1])
    assert "required: --orientation" in reused[2][2]
    assert reused[3][1].startswith("usage: relheffter")
