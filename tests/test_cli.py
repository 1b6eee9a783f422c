"""Command-line interface: subcommands, exit codes, determinism, round trips."""

import argparse
import gc
import inspect
import io
import json
import os
import subprocess
import sys
import textwrap
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import pfarray_oracle
import relheffter.cli as cli
import relheffter.constructions as cons
import topology_oracle as oracle
from heffter_oracle import symmetric_rep
from knight_oracle import nine_diagonal_skeleton
from pfarray_oracle import element, from_elements
from relheffter.cli import build_parser, main
from relheffter.constructions import FAMILIES, build_archdeacon_composite, build_h_n_3
from relheffter.group import GroupError, GroupSpec
from relheffter.heffter import HeffterParams, verify_relative_heffter
from relheffter.orderings import (
    LiftSpec,
    Orientation,
    is_globally_simple,
    knight_search,
    knight_walk,
    orientation_to_orderings,
)
from relheffter.pfarray import PFArray, Skeleton, skeleton_from_diagonals
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
    skel = nine_diagonal_skeleton(21)
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


def test_knight_lift_of_a_non_solution_is_the_violation_payload(tmp_path, capsys):
    # a lift-shaped orientation of A_9(2, 3, 4) that is not a solution: the
    # verdict is about the input walk, as without --lift, and nothing is lifted
    path = tmp_path / "S.json"
    path.write_text(skeleton_from_diagonals(9, [2, 3, 4]).to_json_text())
    argv = ["knight", str(path), f"--orientation={'+' * 9},{'+' * 9}"]
    plain = outcome(main, argv, capsys)
    lifted = outcome(main, [*argv, "--lift", "2,3,4"], capsys)
    assert lifted == plain
    code, out, err = lifted
    assert code == 1 and err == ""
    payload = json.loads(out)
    assert payload["status"] == "violation" and not payload["is_solution"]
    assert "lifted_n" not in payload


def test_knight_lift_that_fails_is_the_violation_payload(tmp_path, capsys, monkeypatch):
    # a broken lift lemma: the lifted walk's verdict is reported on A_{n+M}
    path = tmp_path / "S.json"
    path.write_text(cons.build_skeleton_cor39(5, 3).to_json_text())
    lift = LiftSpec.lift

    def broken_lift(spec, n, o):
        lifted = lift(spec, n, o)
        return Orientation(lifted.r, (-1,) * len(lifted.c))

    monkeypatch.setattr(LiftSpec, "lift", broken_lift)
    code, out, err = outcome(main, ["knight", str(path), "--search", "--lift", "2,3,4"], capsys)
    assert code == 1 and err == ""
    payload = json.loads(out)
    assert payload["status"] == "violation" and not payload["is_solution"]
    assert payload["lifted_n"] == 7 and payload["orientation_cols"] == "-" * 7


def test_knight_lift_of_another_shape_is_usage_error(tmp_path, capsys):
    path = tmp_path / "S.json"
    path.write_text(skeleton_from_diagonals(9, [2, 3, 4]).to_json_text())
    code, out, err = outcome(
        main, ["knight", str(path), f"--orientation={'+' * 9},{'-' * 9}", "--lift", "2,3,4"],
        capsys)
    assert (code, out, err) == (2, "", "error: orientation does not have the liftable shape\n")
    # an empty --lift is a bad one, not none: it is refused, not ignored
    code, out, err = outcome(main, ["knight", str(path), "--search", "--lift", ""], capsys)
    assert (code, out, err) == (2, "", "error: invalid literal for int() with base 10: ''\n")


@pytest.mark.parametrize("argv, text", [
    (["verify", "{missing}", "--integer"], "--integer requires --t"),
    (["verify", "{missing}", "--integer", "--archdeacon"], "--integer requires --t"),
    (["verify", "{missing}"], "nothing to verify: pass --t, --archdeacon, or --globally-simple"),
    (["knight", "{missing}", "--search", "--lift", "3,2"],
     "diagonal indices must be strictly increasing positive integers"),
    (["knight", "{missing}", "--search", "--lift", ""],
     "invalid literal for int() with base 10: ''"),
], ids=["integer", "integer-archdeacon", "nothing", "lift-order", "lift-empty"])
def test_usage_is_decided_before_the_input_is_read(tmp_path, capsys, argv, text):
    # the input does not exist, so an error about it would mean it was read first
    missing = str(tmp_path / "missing.json")
    argv = [arg.format(missing=missing) for arg in argv]
    assert outcome(main, argv, capsys) == (2, "", f"error: {text}\n")


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


def test_embed_off_the_formula_genus_is_a_violation(monkeypatch, tmp_path, capsys):
    # the CLI, not the certificate, compares the genus with the closed form
    array, path = build_h_n_3(3), tmp_path / "h3.json"
    path.write_text(array.to_json_text())
    monkeypatch.setattr(cli, "heffter_genus_formula", lambda *params: 23)
    code, payload = run(capsys, "embed", str(path), "--t", "3",
                        "--orientation", ",".join(knight_search(array).to_strings()))
    assert code == 1 and payload["status"] == "violation"
    assert payload["two_colorable"] and payload["orthogonal"]
    assert (payload["embedding"]["genus"], payload["embedding"]["formula_genus"]) == (22, 23)


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
        [list(map(list, dart)) for dart in face] for face in oracle.coordinate_faces(traced.faces)]
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == plain


def test_knight_emit_orbit_is_the_walked_orbit(tmp_path, capsys):
    array = build_h_n_3(5)
    path = tmp_path / "a.json"
    path.write_text(array.to_json_text())
    assert main(["knight", str(path), "--search", "--emit-orbit"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    orbit, ok = knight_walk(array, knight_search(array))
    assert ok and payload["orbit"] == [list(cell) for cell in orbit]


def _perturbed_h_n_3(n):
    a = build_h_n_3(n)
    if n != 5:
        return a
    elements = pfarray_oracle.entries(a)
    elements[(1, 1)] = elements[(1, 1)] + element(a.spec, 1)
    return from_elements(a.m, a.n, a.spec, elements)


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
    family = FAMILIES["h-n-3"]._replace(admissible=lambda n: n in (3, 5, 7))
    if name == "builder":
        family = family._replace(builder=fault)
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


def test_embed_non_integer_genus_formula_is_usage_error_before_certification(tmp_path, capsys):
    # 4x4 over Z_27 with s = k = 3 and t = 3: (nk - n - m - 1)(2nk + t) = 81 is
    # odd, so no genus is predicted; the array itself certifies
    path = tmp_path / "a.json"
    path.write_text(_spread_h3([27]).to_json_text())
    assert main(["embed", str(path), "--orientation=++++,+++-"]) == 0
    capsys.readouterr()
    code = main(["embed", str(path), "--orientation=++++,+++-", "--t", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: genus formula does not yield an integer\n"


def test_embed_repeat_in_plus_minus_entries_is_usage_error(tmp_path, capsys):
    # Over Z_35 x Z_4, (0, 2) is its own negative and (x, 2), (-x, 2) are
    # negatives of each other. build_rho0 reports such a repeat in +-E(A) as a
    # violation or as bad input depending on the hash order of the entries;
    # embed rejects it as bad input before any stage runs.
    base = build_archdeacon_composite(build_h_n_3(5), 4)
    spec = base.spec
    elements = pfarray_oracle.entries(base)
    gadget = [cell for cell, e in sorted(elements.items()) if e.coords[1]]
    inputs = []
    for i, cell in enumerate(gadget):
        inputs.append({cell: element(spec, 0, 2)})
        x = elements[cell].coords[0]
        inputs.append({cell: element(spec, x, 2), gadget[i - 1]: element(spec, -x, 2)})
    errors = set()
    for number, changes in enumerate(inputs):
        path = tmp_path / f"{number}.json"
        array = from_elements(base.m, base.n, spec, {**elements, **changes})
        path.write_text(array.to_json_text())
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
    "negative-m": ("a.json", {"m": -2, "n": 3, "group": {"orders": [5]}, "cells": []},
                   ["--archdeacon", "--globally-simple"]),
    "zero-n": ("a.json", {"m": 1, "n": 0, "group": {"orders": [5]}, "cells": []},
               ["--archdeacon", "--globally-simple"]),
    "object-cells": ("a.json", {"m": 1, "n": 2, "group": {"orders": [5]}, "cells": {}},
                     ["--archdeacon"]),
    "string-cells": ("a.json", {"m": 1, "n": 2, "group": {"orders": [5]}, "cells": ""},
                     ["--archdeacon"]),
    "keyed-object-cells": ("a.json", {"m": 1, "n": 2, "group": {"orders": [5]},
                                      "cells": {"a": 1}}, ["--archdeacon"]),
    "nonempty-string-cells": ("a.json", {"m": 1, "n": 2, "group": {"orders": [5]},
                                         "cells": "abc"}, ["--archdeacon"]),
    "int-cells": ("a.json", {"m": 1, "n": 2, "group": {"orders": [5]}, "cells": 5},
                  ["--archdeacon"]),
    "list-document": ("a.json", [{"m": 1}], ["--archdeacon"]),
    "string-document": ("a.json", '"group cells"', ["--archdeacon"]),
    "int-cell": ("a.json", {"m": 1, "n": 2, "group": {"orders": [5]}, "cells": [5]},
                 ["--archdeacon"]),
    "string-cell": ("a.json", {"m": 1, "n": 2, "group": {"orders": [5]}, "cells": ["abc"]},
                    ["--archdeacon"]),
    "skeleton-document": ("a.json", {"m": 1, "n": 2, "cells": [[1, 1], [1, 2]]},
                          ["--archdeacon"]),
    "cell-without-v": ("a.json", {"m": 1, "n": 2, "group": {"orders": [5]},
                                  "cells": [{"r": 1, "c": 1}, {"r": 1, "c": 2}]},
                       ["--archdeacon"]),
}
# the text of each case whose usage error once named no cause
MALFORMED_TEXTS = {
    "keyed-object-cells": "cells {'a': 1} is not a list",
    "nonempty-string-cells": "cells 'abc' is not a list",
    "int-cells": "cells 5 is not a list",
    "list-document": "not a JSON object",
    "string-document": "not a JSON object",
    "int-cell": "cell 5 is not an object",
    "string-cell": "cell 'abc' is not an object",
    "cell-without-v": "missing key 'v'",
}
# an array file is a document with a group key: one without is taken for a skeleton file
NO_GROUP = {"missing-group", "skeleton-document"}


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
    if case in MALFORMED_TEXTS:
        assert captured.err == f"error: {path}: {MALFORMED_TEXTS[case]}\n"
    if case in NO_GROUP:
        assert captured.err == f"error: {path} looks like a skeleton file, not an array\n"


@pytest.mark.parametrize("argv", [
    ["verify", "{}", "--archdeacon"],
    ["knight", "{}", "--search"],
    ["embed", "{}", "--orientation", "+,++"],
    ["construct", "archdeacon-composite", "--base", "{}", "--d", "3"],
], ids=["verify", "knight", "embed", "construct-base"])
def test_an_object_cell_without_v_has_one_text(tmp_path, capsys, argv):
    """A document with a group is an array file for every command, so a cell
    without "v" is a missing key, never a skeleton file."""
    path = tmp_path / "a.json"
    _, content, _ = MALFORMED["cell-without-v"]
    path.write_text(json.dumps(content))
    code = main([x.format(path) for x in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {path}: missing key 'v'\n"


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
    {"m": -1, "n": 2, "cells": []},
    {"m": 2, "n": 2, "cells": {}},
    {"m": 2, "n": 2, "cells": ""},
    {"m": 2, "n": 0, "cells": []},
    [[1, 1], [2, 2]],
    {"m": 2, "n": 2, "cells": [5]},
], ids=["float-m", "string-n", "float-r", "bool-c", "repeated-cell", "negative-m",
        "object-cells", "string-cells", "zero-n", "list-document", "int-cell"])
def test_malformed_skeleton_is_usage_error(tmp_path, capsys, request, skeleton):
    path = tmp_path / "skel.json"
    path.write_text(json.dumps(skeleton))
    code = main(["knight", str(path), "--search"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {path}: ")
    assert len(captured.err.strip().splitlines()) == 1
    if request.node.callspec.id == "int-cell":  # once a text that named no cell
        assert captured.err == f"error: {path}: cell 5 is not an [r, c] pair\n"


def test_knight_empty_skeleton_is_usage_error(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"m": 2, "n": 2, "cells": []}))
    code = main(["knight", str(path), "--search"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {path} has no filled cells\n"


@pytest.mark.parametrize("argv, text", [
    (["construct", "h7"], "--n is required"),
    (["construct", "archdeacon-composite", "--d", "3"],
     "archdeacon-composite requires --base and --d"),
    (["construct", "skeleton-cor39", "--n", "5"], "skeleton-cor39 requires --n and --k"),
], ids=["family-without-n", "composite-without-base", "cor39-without-k"])
def test_construct_refuses_a_missing_option(capsys, argv, text):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {text}\n")


@pytest.mark.parametrize("skeleton, text", [
    (Skeleton(3, 4, frozenset({(1, 1), (2, 2), (3, 3)})), "--lemma410 requires a square input"),
    (skeleton_from_diagonals(9, [1, 2, 3]), "n must be 7 (mod 14) and >= 21, got 9"),
], ids=["3x4", "9x9"])
def test_knight_lemma410_refuses_another_size(tmp_path, capsys, skeleton, text):
    path = tmp_path / "s.json"
    path.write_text(skeleton.to_json_text())
    assert main(["knight", str(path), "--lemma410"]) == 2
    assert capsys.readouterr() == ("", f"error: {text}\n")


@pytest.mark.parametrize("command", ["knight", "embed"])
@pytest.mark.parametrize("orientation", ["+x+++,+++++", "+++++"])
def test_a_malformed_orientation_is_usage_error(tmp_path, capsys, command, orientation):
    path = tmp_path / "h5.json"
    path.write_text(build_h_n_3(5).to_json_text())
    assert main([command, str(path), f"--orientation={orientation}"]) == 2
    assert capsys.readouterr() == (
        "", f"error: bad orientation {orientation!r}: expected e.g. '+++,++-'\n")


@pytest.mark.parametrize("command", ["knight", "embed"])
def test_a_dash_leading_orientation_reads_in_both_forms(tmp_path, capsys, command):
    path = tmp_path / "h5.json"
    path.write_text(build_h_n_3(5).to_json_text())
    extra = ["--t", "5"] if command == "embed" else []
    separate = [command, str(path), *extra, "--orientation", "-----,----+"]
    given = list(separate)
    got = outcome(main, separate, capsys)
    assert separate == given  # main joins the two tokens in its own copy
    assert got == outcome(main, [command, str(path), *extra, "--orientation=-----,----+"],
                          capsys)
    assert got[0] == 0 and json.loads(got[1])["status"] == "ok"


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


@pytest.mark.parametrize("argv", [
    ["construct", "B", "--m", "3", "--n", "3", "--d", "3",
     "--i1", "1", "--i2", "2", "--j1", "1", "--j2", "2"],
    ["construct", "h-n-3", "--n", "3", "--m", "3"],
], ids=["family-B", "option-m"])
def test_construct_B_is_gone(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


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



# -- the front end --------------------------------------------------------


def old_main(argv):
    """The reference front end: the whole tree parses every argv."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (cli.UsageError, OSError, json.JSONDecodeError, GroupError) as exc:
        print(f"error: {exc}", file=cli.sys.stderr)
        return cli.EXIT_USAGE


def outcome(front, argv, capsys):
    try:
        code = front(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


H3 = str(FIXTURES / "h9_9_3.csv")
FRONT_END = {
    "construct": ["construct", "h-n-3", "--n", "5"],
    "construct-usage": ["construct", "h7", "--n", "6"],
    "verify": ["verify", H3, "--v", "63", "--t", "9", "--integer", "--globally-simple"],
    "verify-nothing": ["verify", H3, "--v", "63"],
    "verify-missing-file": ["verify", "./no/such//file.json", "--archdeacon"],
    "knight": ["knight", H3, "--v", "63", "--search", "--emit-orbit"],
    "knight-orientation": ["knight", H3, "--v", "63", "--orientation=+++++++++,+++++++++"],
    "embed": ["embed", H3, "--v", "63", "--t", "9",
              "--orientation", "+++++++++,++-++-++-"],
    "help": ["--help"],
    "knight-help": ["knight", "-h"],
    "no-argument": [],
    "unknown-command": ["frobnicate", H3],
    "option-before-command": ["--jobs", "4", "knight", H3, "--search"],
    "missing-required": ["embed", H3, "--v", "63"],
    "missing-positional": ["verify"],
    "bad-int": ["construct", "h-n-3", "--n", "x"],
    "bad-choice": ["construct", "h5", "--n", "5"],
    "exclusive": ["knight", H3, "--v", "63", "--search", "--lemma410"],
    "unrecognized": ["knight", H3, "--v", "63", "--search", "--bogus", "x"],
    "unrecognized-sweep": ["sweep", "--jobs", "2"],
    "double-dash": ["knight", "--", H3, "--search"],
    # argv that the reader declines, which the whole tree parses
    "abbreviation": ["knight", H3, "--v", "63", "--sea"],
    "construct-help": ["construct", "--help"],
    "negative-value": ["construct", "h-n-3", "--n", "-5"],
    "dash-positional": ["verify", "-", "--archdeacon"],
    "repeated-flag": ["knight", H3, "--v", "63", "--search", "--search"],
    "repeated-value": ["embed", H3, "--v", "63", "--orientation", "+,+",
                       "--orientation", "+++++++++,++-++-++-"],
    "extra-positional": ["verify", H3, H3, "--v", "63", "--archdeacon"],
    "missing-value": ["knight", H3, "--v", "63", "--orientation"],
    # a dash-leading value that is no orientation is not joined to its option
    "option-value": ["knight", H3, "--v", "63", "--orientation", "--search"],
    "option-value-embed": ["embed", H3, "--v", "63", "--orientation", "--search"],
    "dash-value": ["knight", H3, "--v", "63", "--orientation", "-"],
    "dash-value-embed": ["embed", H3, "--v", "63", "--orientation", "-"],
    "missing-mode": ["knight", H3, "--v", "63"],
    "equals-int": ["construct", "h-n-3", "--n=5"],
}


@pytest.mark.parametrize("case", sorted(FRONT_END))
def test_main_matches_the_whole_tree_parse(capsys, case):
    argv = FRONT_END[case]
    expected = outcome(old_main, argv, capsys)
    assert outcome(main, argv, capsys) == expected
    assert expected[0] in (0, 1, 2)


VALUES = ["3", "07", "+5", "-1", "-5", "x", "", "-", "--", "-h", "--help", "--bogus", "a.json",
          "h-n-3", "h9", "h5", "archdeacon-composite", "+++,++-", "1,2,3,4,6,7,8"]


def values_of(action):
    """Values of an action's type and choices."""
    if action.choices is not None:
        return st.sampled_from(sorted(action.choices))
    return st.sampled_from(["3", "07", "+5"] if action.type is int else ["a.json", "+++,++-", ""])


@st.composite
def command_argvs(draw):
    """An argv of a command: its positionals and some of its options with values
    of their type, in any order, then up to two tokens inserted, replaced or
    deleted. A token drawn is an option by exact name, abbreviated or with
    '=value', or a value of VALUES."""
    name = draw(st.sampled_from(sorted(build_parser().commands)))
    command = build_parser().commands[name]
    pieces = []
    for action in command._actions:
        if not action.option_strings:
            pieces.append([draw(values_of(action))])
        elif "-h" not in action.option_strings and draw(st.booleans()):
            value = [] if action.nargs == 0 else [draw(values_of(action))]
            pieces.append([action.option_strings[0], *value])
    argv = [token for piece in draw(st.permutations(pieces)) for token in piece]
    option = st.sampled_from(sorted(command._option_string_actions))
    token = st.one_of(
        st.sampled_from(VALUES),
        option,
        option.map(lambda o: o[:4] if len(o) > 4 else o + "x"),
        st.builds("{}={}".format, option, st.sampled_from(VALUES)),
    )
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        argv[i:i + (edit != "insert")] = [] if edit == "delete" else [draw(token)]
    return [name, *argv]


@given(command_argvs())
@example(["knight", "s.json", "--search", "--lemma410"])  # two of an exclusive group
@example(["knight", "s.json", "--lift", "1,2,3"])  # none of a required group
@example(["embed", "a.json", "--t", "3"])  # no --orientation
@example(["construct", "h-n-3", "--n", "x"])  # type error
@example(["construct", "h5", "--n", "5"])  # choice miss
@example(["construct", "h-n-3", "--n", "-5"])  # negative number
@example(["knight", "s.json", "--search", "--search"])  # repeat
@example(["verify", "a.json", "b.json", "--archdeacon"])  # too many positionals
@example(["verify", "--archdeacon"])  # too few
@example(["sweep"])
@example(["sweep", "--jobs", "2"])
# the argv shapes of the benchmark's jobs
@example(["construct", "archdeacon-composite", "--base", "b.json", "--d", "3", "--out", "o"])
@example(["construct", "h9", "--n", "11", "--out", "o"])
@example(["verify", "a.json", "--globally-simple"])
@example(["verify", "a.json", "--t", "9", "--integer", "--globally-simple"])
@example(["verify", "a.csv", "--v", "63", "--t", "9", "--integer", "--globally-simple"])
@example(["verify", "a.json", "--archdeacon", "--globally-simple"])
@example(["knight", "s.json", "--search"])
@example(["knight", "s.json", "--search", "--lift", "1,2,3,4,6,7,8"])
@example(["embed", "a.json", "--orientation", "+++,+-+"])
@example(["embed", "a.json", "--orientation", "+++,+-+", "--t", "3"])
@settings(max_examples=400, deadline=None)
def test_reader_gives_the_namespace_of_the_command_parse(argv):
    command = build_parser().commands[argv[0]]
    read = cli._read_argv(command, argv[1:])
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            expected = command.parse_known_args(argv[1:])
    except SystemExit:
        expected = None
    if read is not None:
        assert expected == (read, [])


def test_benchmark_argv_never_reaches_argparse(tmp_path, capsys, monkeypatch):
    # one call of each argv shape of the benchmark's jobs
    array = str(tmp_path / "h3.json")
    skeleton = str(tmp_path / "sk.json")
    Path(skeleton).write_text(cons.build_skeleton_cor39(5, 3).to_json_text())
    orientation = ",".join(knight_search(build_h_n_3(3)).to_strings())
    calls = [
        ["construct", "h-n-3", "--n", "3", "--out", array[:-5]],
        ["construct", "h-n-3", "--n", "5", "--out", str(tmp_path / "h5")],
        ["construct", "archdeacon-composite", "--base", str(tmp_path / "h5.json"), "--d", "3",
         "--out", str(tmp_path / "a")],
        ["verify", array, "--globally-simple"],
        ["verify", array, "--t", "3", "--integer", "--globally-simple"],
        ["verify", H3, "--v", "63", "--t", "9", "--integer", "--globally-simple"],
        ["verify", str(tmp_path / "a.json"), "--archdeacon", "--globally-simple"],
        ["knight", array, "--search"],
        ["knight", skeleton, "--search", "--lift", "2,3,4"],
        ["embed", array, "--orientation", orientation],
        ["embed", array, "--orientation", orientation, "--t", "3"],
    ]
    expected = [outcome(main, argv, capsys) for argv in calls]

    def no_argparse(*args, **kwargs):
        raise AssertionError("argparse parsed the argv")

    with monkeypatch.context() as patch:  # undone before a failure is reported
        patch.setattr(argparse.ArgumentParser, "parse_known_args", no_argparse)
        patch.setattr(argparse.ArgumentParser, "parse_args", no_argparse)
        got = [outcome(main, argv, capsys) for argv in calls]
    assert got == expected
    assert [code for code, _, _ in expected] == [0] * len(calls)


NON_UTF8 = {
    "verify-json": ("a.json", ["verify", "{}", "--archdeacon"]),
    "verify-csv": ("a.csv", ["verify", "{}", "--v", "21", "--archdeacon"]),
    "knight": ("a.json", ["knight", "{}", "--search"]),
    "embed": ("a.json", ["embed", "{}", "--orientation", "+++,+++"]),
    "construct-base": ("a.json", ["construct", "archdeacon-composite", "--base", "{}",
                                  "--d", "3"]),
}


@pytest.mark.parametrize("case", sorted(NON_UTF8))
def test_non_utf8_input_is_usage_error(tmp_path, capsys, case):
    name, argv = NON_UTF8[case]
    path = tmp_path / name
    text = build_h_n_3(3).to_json_text() if name.endswith(".json") else build_h_n_3(3).to_csv()
    path.write_bytes(text.encode()[:5] + b"\xff" + text.encode()[5:])
    code = main([x.format(path) for x in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (f"error: {path}: 'utf-8' codec can't decode byte 0xff in "
                            "position 5: invalid start byte\n")


@pytest.mark.parametrize("case", sorted(NON_UTF8))
def test_nul_in_the_input_path_is_usage_error(capsys, case):
    argv = [x.format("a\x00.json") for x in NON_UTF8[case][1]]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: a\x00.json: embedded null byte\n"


@pytest.mark.parametrize("path, message", [
    ("in.txt", "unsupported input format: in.txt"),
    ("/dev/zero", "unsupported input format: /dev/zero"),  # never ends
    ("in.csv", "CSV input requires --v (the group order)"),
])
@pytest.mark.parametrize("argv", [
    ["verify", "{}", "--archdeacon"],
    ["knight", "{}", "--search"],
    ["embed", "{}", "--orientation", "+++,+++"],
    ["construct", "archdeacon-composite", "--base", "{}", "--d", "3"],
], ids=["verify", "knight", "embed", "construct-base"])
def test_input_format_is_decided_before_the_file_is_opened(monkeypatch, capsys, argv, path,
                                                           message):
    def opened(name):
        raise AssertionError(f"{name} was opened")

    monkeypatch.setattr(cli, "_read", opened)
    code = main([x.format(path) for x in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_nul_in_the_output_path_is_usage_error(capsys):
    code = main(["construct", "h-n-3", "--n", "3", "--out", "a\x00"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: a\x00.json: embedded null byte\n"


def open_error(path, mode):
    with pytest.raises(OSError) as exc:
        with open(path, mode) as f:
            f.read() if mode == "rb" else f.write("")
    return exc.value


@pytest.mark.parametrize("case", ["missing", "directory"])
def test_read_errors_are_the_texts_of_open(tmp_path, capsys, case):
    path = tmp_path / "a.json"
    if case == "directory":
        path.mkdir()
    expected = open_error(path, "rb")
    with pytest.raises(OSError) as got:
        cli._read(str(path))
    assert (type(got.value), str(got.value)) == (type(expected), str(expected))
    assert str(expected) == f"[Errno {2 if case == 'missing' else 21}] " + (
        f"No such file or directory: '{path}'" if case == "missing"
        else f"Is a directory: '{path}'")
    for argv in (["verify", str(path), "--archdeacon"], ["knight", str(path), "--search"],
                 ["embed", str(path), "--orientation", "+,+"]):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {expected}\n"


@pytest.mark.parametrize("kind, argv", [
    ("device", ["verify", "{}", "--archdeacon"]),
    ("fifo", ["knight", "{}", "--search"]),
])
def test_non_regular_input_is_usage_error_before_it_is_opened(monkeypatch, tmp_path, capsys,
                                                               kind, argv):
    path = str(tmp_path / "z.json")
    if kind == "device":
        os.symlink("/dev/zero", path)  # never ends
    else:
        os.mkfifo(path)  # an open blocks until a writer comes
    target = os.stat(path)
    real_open, real_read = os.open, os.read

    def no_open(name, *args, **kwargs):
        if os.fspath(name) == path:
            raise AssertionError(f"{name} was opened")
        return real_open(name, *args, **kwargs)

    def no_read(fd, size):
        if os.path.samestat(os.fstat(fd), target):
            raise AssertionError(f"{path} was read")
        return real_read(fd, size)

    monkeypatch.setattr(os, "open", no_open)
    monkeypatch.setattr(os, "read", no_read)
    code = main([x.format(path) for x in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: not a regular file: {path}\n"


@pytest.mark.parametrize("size", [0, 1, (1 << 16) - 1, 1 << 16, 3 << 16, (3 << 16) + 7])
def test_read_returns_every_byte(tmp_path, size):
    path = tmp_path / "a.json"
    path.write_bytes(bytes(range(256)) * (size // 256) + b"x" * (size % 256))
    assert cli._read(str(path)) == path.read_bytes()


@pytest.mark.parametrize("size", [0, 1, 1 << 16])
def test_read_stops_at_the_first_short_read(monkeypatch, tmp_path, size):
    """A file that has not grown since its stat is read with one os.read."""
    path = tmp_path / "a.json"
    path.write_bytes(b"x" * size)
    reads, real_read = [], os.read

    def counted(fd, n):
        reads.append(n)
        return real_read(fd, n)

    monkeypatch.setattr(os, "read", counted)
    assert cli._read(str(path)) == path.read_bytes()
    assert reads == [size + 1]


def test_read_of_a_file_that_grew_since_its_stat_returns_every_byte(monkeypatch, tmp_path):
    path = tmp_path / "a.json"
    path.write_bytes(b"x" * 10)
    reads, real_read, real_stat = [], os.read, os.stat

    def counted(fd, n):
        reads.append(n)
        return real_read(fd, n)

    def stat_then_grow(p):
        st = real_stat(p)
        with open(p, "ab") as f:
            f.write(b"y" * 5)
        return st

    monkeypatch.setattr(os, "read", counted)
    monkeypatch.setattr(os, "stat", stat_then_grow)
    assert cli._read(str(path)) == b"x" * 10 + b"y" * 5
    assert reads == [11, 11]  # the first read filled its 11 bytes, the second came back short


@pytest.mark.parametrize("target", ["new", "regular", "device"])
def test_write_makes_a_file_blocking_only_when_it_is_not_regular(monkeypatch, tmp_path,
                                                                target):
    path = tmp_path / "a.json"
    if target == "regular":
        path.write_text("x" * 100)
    elif target == "device":
        os.symlink(os.devnull, path)
    calls, real = [], os.set_blocking

    def set_blocking(fd, blocking):
        calls.append(blocking)
        real(fd, blocking)

    monkeypatch.setattr(os, "set_blocking", set_blocking)
    assert cli._write(str(path), "{}\n") == str(path)
    assert calls == ([True] if target == "device" else [])
    if target != "device":
        assert path.read_text() == "{}\n"


@pytest.mark.parametrize("case", ["missing-directory", "directory"])
def test_write_errors_are_the_texts_of_open(tmp_path, capsys, case):
    prefix = tmp_path / ("missing/a" if case == "missing-directory" else "a")
    if case == "directory":
        (tmp_path / "a.json").mkdir()
    expected = open_error(f"{prefix}.json", "w")
    with pytest.raises(OSError) as got:
        cli._write(f"{prefix}.json", "{}")
    assert (type(got.value), str(got.value)) == (type(expected), str(expected))
    assert main(["construct", "h-n-3", "--n", "3", "--out", str(prefix)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {expected}\n"


@pytest.mark.parametrize("before", ["longer-artifacts", "dev-null-links"])
def test_construct_rewrites_existing_artifacts_in_place(tmp_path, capsys, before):
    """An artifact is rewritten in place: a longer old file is cut to the new
    bytes, and a link to a device is written through, neither cut nor replaced."""
    prefix, paths = tmp_path / "P", [tmp_path / "P.json", tmp_path / "P.csv"]
    if before == "longer-artifacts":
        assert main(["construct", "h9", "--n", "15", "--out", str(prefix)]) == 0
        capsys.readouterr()
        old_sizes = [path.stat().st_size for path in paths]
    else:
        for path in paths:
            os.symlink(os.devnull, path)
    code, payload = run(capsys, "construct", "h-n-3", "--n", "3", "--out", str(prefix))
    assert code == 0 and payload["status"] == "ok"
    assert payload["artifacts"] == list(map(str, paths))
    if before == "longer-artifacts":
        array = build_h_n_3(3)
        assert [path.read_text() for path in paths] == [array.to_json_text(), array.to_csv()]
        assert all(path.stat().st_size < old for path, old in zip(paths, old_sizes))
    else:
        assert [os.readlink(path) for path in paths] == [os.devnull] * 2


def test_construct_onto_a_fifo_with_no_reader_fails_at_once(tmp_path):
    """An artifact path that is a FIFO with no reader is an error, exit 2, and
    not a wait for a reader that never comes: run apart, with a timeout."""
    os.mkfifo(tmp_path / "P.json")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "relheffter.cli", "construct", "h-n-3", "--n", "3", "--out", "P"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=10)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: [Errno 6] No such device or address: 'P.json'\n"


@pytest.mark.parametrize("error", [MemoryError(), RuntimeError("boom")],
                         ids=["MemoryError", "RuntimeError"])
def test_a_crash_exits_70_with_its_traceback(monkeypatch, capsys, error):
    """An exception that is no usage error is a crash, never a verdict: exit 70
    (EX_SOFTWARE), the traceback on stderr, nothing on stdout."""
    def crash(array):
        raise error

    monkeypatch.setattr(cli, "is_globally_simple", crash)
    code = main(["construct", "h-n-3", "--n", "3"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_SOFTWARE == 70 and captured.out == ""
    assert captured.err.startswith("Traceback (most recent call last):\n")
    assert captured.err.endswith("".join(traceback.format_exception_only(error)))
    assert "in crash\n" in captured.err


def test_a_group_error_of_the_library_is_a_crash(monkeypatch, capsys):
    """A GroupError that no command turned into a usage error is a library
    bug: exit 70 with its traceback, not the usage exit 2."""
    error = GroupError("boom")

    def crash(array):
        raise error

    monkeypatch.setattr(cli, "verify_archdeacon", crash)
    code = main(["verify", H3, "--v", "63", "--archdeacon"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_SOFTWARE and captured.out == ""
    assert captured.err.startswith("Traceback (most recent call last):\n")
    assert captured.err.endswith("".join(traceback.format_exception_only(error)))


def gc_left_by(run_main, exits, capsys) -> dict:
    """For each exit (a name, its code and argv) and each state of the cyclic
    GC on entry, enabled or disabled: the state run_main left it in."""
    left, was = {}, gc.isenabled()
    try:
        for enabled in (True, False):
            for name, (code, argv) in exits.items():
                (gc.enable if enabled else gc.disable)()
                try:
                    got = run_main(argv)
                except SystemExit as exc:  # argparse's exit 2, before the command
                    got = exc.code
                assert got == code, name
                left[name, enabled] = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
    return left


def test_main_leaves_the_gc_as_it_found_it(monkeypatch, tmp_path, capsys):
    """The GC is paused while a command runs and left enabled or disabled, as
    it was found, after exits 0, 1, 2 and 70; a copy of main that forgets to
    switch it back on fails the same check."""
    paused = []

    def globally_simple(array):
        paused.append(not gc.isenabled())
        return is_globally_simple(array)

    def crash(array):
        paused.append(not gc.isenabled())
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "is_globally_simple", globally_simple)
    monkeypatch.setattr(cli, "verify_archdeacon", crash)
    grid = tmp_path / "full2.json"
    grid.write_text(json.dumps({"m": 2, "n": 2, "cells": [[1, 1], [1, 2], [2, 1], [2, 2]]}))
    exits = {
        "ok": (0, ["construct", "h-n-3", "--n", "3"]),
        "violation": (1, ["knight", str(grid), "--search"]),
        "usage": (2, ["verify", str(tmp_path / "missing.json"), "--archdeacon"]),
        "argparse": (2, ["verify"]),
        "crash": (70, ["verify", H3, "--v", "63", "--archdeacon"]),
    }
    expected = {(name, enabled): enabled for name in exits for enabled in (True, False)}
    assert gc_left_by(main, exits, capsys) == expected
    assert paused == [True] * 4  # construct and the crash, with the GC on and off

    source = textwrap.dedent(inspect.getsource(cli.main))
    forgetful = source.replace("gc.enable()", "pass")
    assert forgetful != source
    namespace = dict(vars(cli))
    exec(compile(forgetful, cli.__file__, "exec"), namespace)
    left = gc_left_by(namespace["main"], exits, capsys)
    assert left != expected
    assert {key for key, on in left.items() if on != expected[key]} == {
        (name, True) for name in ("ok", "violation", "usage", "crash")}


def test_an_interrupt_is_not_a_crash(monkeypatch, capsys):
    def interrupt(array):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "is_globally_simple", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["construct", "h-n-3", "--n", "3"])
    assert capsys.readouterr().out == ""


@settings(max_examples=300, deadline=None)
@given(st.text("/.ab", max_size=10))
@example("//a/")
@example("a/../b")
def test_path_text_is_the_pathlib_string(path):
    assert cli._path_text(path) == str(Path(path))


def test_construct_artifacts_name_the_pathlib_strings(tmp_path, capsys):
    prefix = f"{tmp_path}//./a"
    code, payload = run(capsys, "construct", "h-n-3", "--n", "3", "--out", prefix)
    assert code == 0
    assert payload["artifacts"] == [str(Path(prefix + ".json")), str(Path(prefix + ".csv"))]
    assert (tmp_path / "a.csv").read_text() == build_h_n_3(3).to_csv()


def test_hot_path_builds_no_path_and_writes_each_payload_once(tmp_path, capsys, monkeypatch):
    array = tmp_path / "h3.json"
    array.write_text(build_h_n_3(3).to_json_text())
    rows, cols = knight_search(build_h_n_3(3)).to_strings()
    calls = [
        ["verify", str(array), "--t", "3", "--integer", "--globally-simple"],
        ["verify", H3, "--v", "63", "--archdeacon"],
        ["knight", str(array), "--search", "--emit-orbit"],
        ["embed", str(array), "--t", "3", "--orientation", f"{rows},{cols}", "--emit-faces"],
    ]
    expected = [outcome(main, argv, capsys) for argv in calls]

    def no_path(*args, **kwargs):
        raise AssertionError("a pathlib.Path was built")

    class Stdout:
        def __init__(self, writes):
            self.write = writes.append

    got = []
    with monkeypatch.context() as patch:  # undone before a failure is reported
        patch.setattr(Path, "__new__", no_path)
        for argv in calls:
            writes = []
            patch.setattr(cli.sys, "stdout", Stdout(writes))
            got.append((main(argv), writes))
    assert got == [(code, [out]) for code, out, _ in expected]
    assert [code for code, _, _ in expected] == [0] * len(calls)


# -- empty rows and columns ---------------------------------------------


def _spread_h3(orders, delta=0):
    """H_3(3;3) spread over a 4x4 array whose row 3 and column 2 are empty, its
    integer entries reduced into the group of the given orders, with delta
    added to the first coordinate of the entry at (4, 4)."""
    spec = GroupSpec(tuple(orders))
    rows, cols = {1: 1, 2: 2, 3: 4}, {1: 1, 2: 3, 3: 4}
    entries = {(rows[r], cols[c]): element(spec, *[symmetric_rep(x) % o for o in orders])
               for (r, c), x in pfarray_oracle.entries(build_h_n_3(3)).items()}
    entries[(4, 4)] = entries[(4, 4)] + element(spec, delta, *[0] * (len(orders) - 1))
    return from_elements(4, 4, spec, entries)


def _decomposition(v):
    return {"cycle_lengths": {"3": 3 * v}, "num_base_cycles": 3, "num_cycles": 3 * v,
            "num_edges": 9 * v}


def _embedded(v, genus):
    return {"col_decomposition": _decomposition(v), "row_decomposition": _decomposition(v),
            "embedding": {"F": 6 * v, "S": 9 * v, "V": v, "genus": genus,
                          "color_class_sizes": {"1": 3 * v, "2": 3 * v}},
            "orthogonal": True, "status": "ok", "two_colorable": True}


SIMPLE = {"archdeacon": {"valid": True, "violations": []}, "globally_simple": True,
          "status": "ok"}
# verify --t takes s and k from the modal line lengths, so the counts are violations
COUNTS = [{"message": "row 3 has 0 filled cells, expected 3", "tag": "row-count"},
          {"message": "column 2 has 0 filled cells, expected 3", "tag": "col-count"},
          {"message": "entry 9 lies in the order-3 subgroup", "tag": "subgroup-hit"},
          {"message": "|E(A)| = 9, expected nk = 12", "tag": "coverage"}]
TOUR = {"filled_cells": 9, "is_solution": True, "orbit_length": 9, "orientation_cols": "+++-",
        "orientation_rows": "++++", "status": "ok"}
# the payload (without "input") or the stderr of each command, as recorded
# before the row/column index became dense, but for verify --t
EMPTY_LINES = {
    "z27": (([27],), [(0, SIMPLE), (1, {"relative": {"valid": False, "violations": COUNTS},
                                        "status": "violation"}),
                      (0, TOUR), (0, _embedded(27, 28))]),
    "z7xz3": (([7, 3],), [(0, SIMPLE), (2, "error: array group (7, 3) is not Z_{2nk+t} = Z_27\n"),
                          (0, TOUR), (0, _embedded(21, 22))]),
    "z27-perturbed": (([27], 3), [
        (1, {"archdeacon": {"valid": False, "violations": [
            {"message": "row 4 does not sum to 0", "tag": "row-sum"},
            {"message": "column 4 does not sum to 0", "tag": "col-sum"}]},
            "globally_simple": True, "status": "violation"}),
        (1, {"relative": {"valid": False, "violations": [
            *COUNTS, {"message": "row 4 does not sum to 0 in Z_27", "tag": "row-sum"},
            {"message": "column 4 does not sum to 0 in Z_27", "tag": "col-sum"}]},
            "status": "violation"}),
        (0, TOUR),
        (1, {"error": "difference list != connection set (missing=g11, extra=g8)",
             "status": "violation"})]),
}


@pytest.mark.parametrize("case", sorted(EMPTY_LINES))
def test_empty_rows_and_columns_are_skipped(tmp_path, capsys, case):
    args, expected = EMPTY_LINES[case]
    path = tmp_path / "a.json"
    path.write_text(_spread_h3(*args).to_json_text())
    got = []
    for argv in (["verify", "--archdeacon", "--globally-simple"], ["verify", "--t", "3"],
                 ["knight", "--search"], ["embed", "--orientation=++++,+++-"]):
        code = main([argv[0], str(path), *argv[1:]])
        captured = capsys.readouterr()
        if captured.out:
            payload = json.loads(captured.out)
            assert payload.pop("input") == str(path) and captured.err == ""
            got.append((code, payload))
        else:
            got.append((code, captured.err))
    assert got == expected


@pytest.mark.parametrize("lengths, modal", [
    ([3, 3, 0, 3], 3), ([3, 3, 1, 1], 3), ([1, 1, 2], 1), ([2, 5, 5, 2], 5), ([0], 0),
])
def test_verify_t_takes_the_modal_line_length_the_larger_on_a_tie(lengths, modal):
    assert cli._modal_length([[0] * x for x in lengths]) == modal


def test_empty_rows_and_columns_fail_the_counts():
    report = verify_relative_heffter(_spread_h3([27]), HeffterParams(4, 4, 3, 3, 3))
    assert report.violations == [
        ("row-count", "row 3 has 0 filled cells, expected 3"),
        ("col-count", "column 2 has 0 filled cells, expected 3"),
        ("subgroup-hit", "entry 9 lies in the order-3 subgroup"),
        ("coverage", "|E(A)| = 9, expected nk = 12"),
    ]
