"""The scripts under scripts/, run in-process at small sizes."""

import dataclasses
import json
import runpy
import sys
from pathlib import Path

import pytest

import topology_oracle as oracle
from relheffter.constructions import FAMILIES, build_h_n_3
from relheffter.orderings import knight_search, orientation_to_orderings
from relheffter.pfarray import PFArray
from relheffter.topology import CayleyGraph, build_rho0

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, capsys, name, *argv):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return exc.value.code, capsys.readouterr().out


def test_biembedding_report(monkeypatch, capsys):
    code, out = run_script(monkeypatch, capsys, "biembedding_report.py", "h-n-3", "5")
    result = json.loads(out)
    assert code == 0 and result["status"] == "ok"
    assert (result["family"], result["n"], result["t"]) == ("h-n-3", 5, 5)
    assert result["two_colorable"] and result["orthogonal"]
    assert result["embedding"]["genus"] == result["embedding"]["formula_genus"]
    for key in ("row_decomposition", "col_decomposition"):
        assert result[key]["num_cycles"] == 5 * 35


@pytest.mark.parametrize("family, n", [("h-n-3", 5), ("h7", 7)])
def test_biembedding_report_emits_the_traced_faces(monkeypatch, capsys, family, n):
    code, out = run_script(monkeypatch, capsys, "biembedding_report.py", family, str(n),
                           "--emit-faces")
    assert code == 0
    array = FAMILIES[family].builder(n)
    ordering = orientation_to_orderings(array, knight_search(array))
    traced = oracle.trace_faces(CayleyGraph.from_entries(array), build_rho0(array, ordering))
    assert json.loads(out)["faces"] == [
        [[list(x.coords) for x in dart] for dart in face] for face in traced.faces]


def test_biembedding_report_rejects_an_invalid_array(monkeypatch, capsys):
    def perturbed(n):
        a = build_h_n_3(n)
        entries = dict(a.entries)
        entries[(1, 1)] = entries[(1, 1)] + a.spec.element(1)
        return PFArray(a.m, a.n, a.spec, entries)

    monkeypatch.setitem(FAMILIES, "h-n-3", dataclasses.replace(FAMILIES["h-n-3"], builder=perturbed))
    code, out = run_script(monkeypatch, capsys, "biembedding_report.py", "h-n-3", "5")
    result = json.loads(out)
    assert code == 1 and result["status"] == "violation"
    assert not result["verification"]["valid"]
    assert "embedding" not in result


def test_sweep_constructions(monkeypatch, capsys):
    code, out = run_script(monkeypatch, capsys, "sweep_constructions.py", "--max-n", "15")
    assert code == 0 and "FAIL" not in out
    counts = {line.split(":")[0]: int(line.split()[1]) for line in out.splitlines()}
    assert counts == {"h-n-3": 7, "h-2n-3": 7, "h7": 3, "h9": 2}


def test_knight_window(monkeypatch, capsys):
    code, out = run_script(monkeypatch, capsys, "knight_window.py",
                           "--diagonals", "2,3,4", "--start", "5")
    assert code == 0
    assert out.splitlines()[0].startswith("n=5: R=+++++ C=+-+++ (")
    assert out.splitlines()[0].endswith(") -> lifts to n=7")
    assert out.splitlines()[-1] == "window covered: 1 sizes, 0 without solution"
