"""Command-line interface: subcommands, exit codes, determinism, round trips."""

import json
from pathlib import Path

import pytest

from relheffter.cli import main

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
    code, payload = run(capsys, "knight", str(grid), "--search", "--no-parity-filter")
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
