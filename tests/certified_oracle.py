"""Reference builder of the certified instances in fixtures/certified_instances.json.

Each instance is an n x n array over Z_v with v = 2nk + t. A t = k = 3 row of
the manifest gives K and c_1..c_n; with c_0 = c_n, row j holds
K + c_{j-1}, -(K + c_{j-1} + c_j) and c_j in cells (j, j), (j, j + 1) and
(j, j + 2), columns taken mod n. Every other row gives the array's rows on
its k cyclic diagonals: cell (r, r + i - 1) holds the i-th entry of row r.
``fixture_text`` writes the array as the stdlib JSON encoder writes the
library's array format (``construct --out``), from the integer entries alone:
no library code is involved, so the fixtures are checked against an
independent writer.
"""

from __future__ import annotations

import json
from pathlib import Path

MANIFEST = Path(__file__).resolve().parent.parent / "fixtures" / "certified_instances.json"


def instances() -> list[dict]:
    """The manifest's instances, in file order."""
    return json.loads(MANIFEST.read_text())["instances"]


def rows(instance: dict) -> list[list[int]]:
    """The integer entries of each row, in the order of its diagonals."""
    if "rows" in instance:
        return instance["rows"]
    K, c = instance["K"], instance["c"]
    return [[K + c[j - 1], -(K + c[j - 1] + c[j]), c[j]] for j in range(len(c))]


def order(instance: dict) -> int:
    """v = 2nk + t."""
    return 2 * instance["n"] * instance["k"] + instance["t"]


def fixture_text(instance: dict) -> str:
    """The array file of the instance: each entry as its residue mod v, the
    cells in row-major order."""
    n, v = instance["n"], order(instance)
    cells = sorted(((r, (r + i - 1) % n + 1), x % v)
                   for r, row in enumerate(rows(instance), start=1)
                   for i, x in enumerate(row))
    doc = {"m": n, "n": n, "group": {"orders": [v]},
           "cells": [{"r": r, "c": c, "v": [x]} for (r, c), x in cells]}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
