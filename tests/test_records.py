"""The library's records: tuples built without dataclass code generation.
A checked record's constructor raises the texts it always has, in the order
of its checks, and every record keeps its fields and its keyword constructor.
No module of src/relheffter imports dataclasses, and a fresh import of the
CLI loads neither dataclasses nor inspect, which it pulls in, nor hashlib,
which only sweep uses."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from relheffter.constructions import Family
from relheffter.group import GroupError, GroupSpec
from relheffter.heffter import HeffterParams, VerificationReport
from relheffter.orderings import LiftSpec, Ordering, Orientation
from relheffter.pfarray import DiagonalReport, DiagSpec, PFArray, Skeleton
from relheffter.topology import (
    BiembeddingCertificate,
    CayleyGraph,
    DecompositionCertificate,
    EmbeddingReport,
)

SRC = Path(__file__).resolve().parent.parent / "src"
Z5 = GroupSpec.cyclic(5)
BAD_INDICES = "diagonal indices must be strictly increasing positive integers"

CHECKS = [
    (lambda: GroupSpec(()), GroupError, "at least one cyclic factor required"),
    (lambda: GroupSpec((3, 0)), GroupError, "every order must be >= 1, got (3, 0)"),
    (lambda: Skeleton(0, 2, [(9, 9)]), ValueError, "dimensions 0x2 are not positive"),
    (lambda: Skeleton(2, 2, [(1, 1), (3, 1), (1, 3)]), ValueError, "cell (3, 1) outside 2x2"),
    (lambda: Skeleton(2, 2, iter([(1, 1), (1, 3), (3, 1)])), ValueError,
     "cell (1, 3) outside 2x2"),
    (lambda: PFArray(2, -1, Z5, {(9, 9): 7}), ValueError, "dimensions 2x-1 are not positive"),
    (lambda: PFArray(2, 2, Z5, {(1, 1): 1, (2, 3): 9}), ValueError, "cell (2, 3) outside 2x2"),
    (lambda: PFArray(2, 2, Z5, {(1, 1): 5}), GroupError,
     "entry code 5 at (1, 1) is not an element of (5,)"),
    (lambda: DiagSpec(1, 1, 0, 1, 1, 0), ValueError, "length must be >= 1"),
    (lambda: Orientation((1, 0), (1,)), ValueError, "orientation entries must be +-1"),
    (lambda: LiftSpec((1,)), ValueError, BAD_INDICES),
    (lambda: LiftSpec((2, 1)), ValueError, BAD_INDICES),
    (lambda: LiftSpec((1, 1, 2)), ValueError, BAD_INDICES),
    (lambda: LiftSpec((0, 1)), ValueError, BAD_INDICES),
    (lambda: CayleyGraph(Z5, frozenset({5})), ValueError,
     "connection code 5 is not an element of (5,)"),
    (lambda: CayleyGraph(Z5, frozenset({0})), ValueError,
     "connection set must not contain the identity"),
    (lambda: CayleyGraph(Z5, frozenset({1})), ValueError,
     "connection set not closed under negation at (1,)"),
]


@pytest.mark.parametrize("make, kind, text", CHECKS)
def test_checked_records_raise_their_texts(make, kind, text):
    with pytest.raises(ValueError) as exc:
        make()
    assert type(exc.value) is kind and str(exc.value) == text


FIELDS = {
    GroupSpec: "orders", Skeleton: "m n cells", PFArray: "m n spec entry_codes",
    DiagSpec: "r c s d1 d2 length", Orientation: "r c", LiftSpec: "diagonal_indices",
    CayleyGraph: "spec connection", HeffterParams: "m n s k t",
    DiagonalReport: "filled_diagonal_indices is_k_diagonal is_cyclically_k_diagonal",
    Family: "name builder k t admissible", Ordering: "row_orders col_orders",
    DecompositionCertificate: "graph base",
    BiembeddingCertificate: "embedding two_colorable row_decomposition col_decomposition "
                            "orthogonal",
}


def test_records_keep_their_fields_and_keyword_constructors():
    assert {cls: " ".join(cls._fields) for cls in FIELDS} == FIELDS
    skel = Skeleton(m=2, n=2, cells=[(1, 2)])
    assert skel.cells == frozenset({(1, 2)}) and type(skel.cells) is frozenset
    array = PFArray(m=1, n=2, spec=Z5, entry_codes={(1, 1): 4})
    assert dict(array.entry_codes) == {(1, 1): 4} and array == PFArray(1, 2, Z5, {(1, 1): 4})
    report = VerificationReport()
    assert report.violations == [] and report.valid
    report.flag("t", "m")
    assert report.violations == [("t", "m")] and report.valid is False
    report = EmbeddingReport(5, 10, 7, 0, Z5, [(1, 2)], [5])
    assert report.pi_colors is None


def test_skeleton_freezes_every_cell_of_a_one_shot_iterator():
    # the range check once used the iterator up, and the skeleton froze nothing
    assert Skeleton(2, 2, iter([(1, 2)])).cells == frozenset({(1, 2)})
    assert Skeleton(2, 2, (cell for cell in [(2, 1), (1, 1)])).cells == {(1, 1), (2, 1)}


def test_no_module_imports_dataclasses():
    sources = sorted((SRC / "relheffter").glob("*.py"))
    imported = [(path.name, node) for path in sources
                for node in ast.walk(ast.parse(path.read_text(), str(path)))
                if isinstance(node, (ast.Import, ast.ImportFrom))]
    # the check sees the imports where there are some
    assert ("group.py", "collections") in {
        (name, node.module) for name, node in imported if isinstance(node, ast.ImportFrom)}
    offenders = [f"{name}:{node.lineno}" for name, node in imported
                 if "dataclasses" in ([node.module] if isinstance(node, ast.ImportFrom)
                                      else [alias.name for alias in node.names])]
    assert offenders == []


def loaded_by(statement: str) -> list[str]:
    """Which of dataclasses, inspect and hashlib a fresh interpreter (no site
    module) loads while it runs the statement."""
    probe = ("import sys; before = set(sys.modules); " + statement + "; print(sorted("
             "{'dataclasses', 'inspect', 'hashlib'} & (set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return ast.literal_eval(out)


def test_a_fresh_cli_import_loads_no_dataclasses_inspect_or_hashlib():
    # the probe sees the modules where they are loaded
    assert loaded_by("import dataclasses, hashlib") == ["dataclasses", "hashlib", "inspect"]
    assert loaded_by("import relheffter.cli") == []
