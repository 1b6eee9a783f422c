"""Mutated input files never crash the CLI.

Every run of ``main`` on a mutated JSON or CSV file, or on one whose bytes are
not UTF-8, returns 0, 1 or 2 without raising, 0 only with a parsed "ok"
payload and 1 only with a parsed violation payload: a crash must never look
like a verdict.
"""

import copy
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from relheffter.cli import main
from relheffter.constructions import build_h_n_3
from relheffter.orderings import knight_search

H3 = build_h_n_3(3)
ROWS, COLS = knight_search(H3).to_strings()
DOCS = [H3.to_json(), H3.skeleton.to_json()]
# a second entry is the negative of the first, so rho0 is no permutation
NEGATIVE_PAIR = copy.deepcopy(DOCS[0])
NEGATIVE_PAIR["cells"][1]["v"] = [-NEGATIVE_PAIR["cells"][0]["v"][0] % 21]

# small values only: a mutated size must not turn into an exponential search
VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 24) | st.floats(-3, 24) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                 max_size=2),
    max_leaves=5,
)


def paths(doc, prefix=()):
    """The path of every value in a JSON document, the document itself first."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from paths(value, (*prefix, key))


@st.composite
def json_texts(draw):
    """A seed document with one to three values replaced, deleted or (lists)
    shortened, or cut short."""
    doc = copy.deepcopy(draw(st.sampled_from(DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(paths(doc))))
        if not path:
            doc = draw(VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        value = parent[path[-1]]
        op = draw(st.sampled_from(["replace", "delete", "shorten"]))
        if op == "shorten" and isinstance(value, list):
            del value[draw(st.integers(0, len(value))):]
        elif op == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(VALUES)
    text = json.dumps(doc)
    return text[:draw(st.integers(0, len(text)))] if draw(st.booleans()) else text


@st.composite
def csv_texts(draw):
    """The seed CSV with a few fields replaced, or cut short."""
    lines = [line.split(",") for line in H3.to_csv().splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.integers(0, len(lines) - 1))
        col = draw(st.integers(0, len(lines[row]) - 1))
        lines[row][col] = draw(st.text("0123456789- ,x\n", max_size=4))
    text = "\n".join(",".join(line) for line in lines) + "\n"
    return text[:draw(st.integers(0, len(text)))] if draw(st.booleans()) else text


def commands(path: str, v: list[str]) -> list[list[str]]:
    return [
        ["verify", path, *v, "--archdeacon", "--globally-simple"],
        ["verify", path, *v, "--t", "3", "--integer"],
        ["knight", path, *v, "--search"],
        ["knight", path, *v, "--orientation", f"{ROWS},{COLS}"],
        ["knight", path, *v, "--orientation", f"{ROWS},{COLS}", "--lift", "1,2,3"],
        ["embed", path, *v, "--orientation", f"{ROWS},{COLS}"],
        ["embed", path, *v, "--t", "3", "--orientation", f"{ROWS},{COLS}"],
        ["embed", path, *v, "--orientation", f"{ROWS},{COLS}", "--emit-faces"],
        ["construct", "archdeacon-composite", "--base", path, *v, "--d", "3"],
    ]


@given(suffix_text=st.one_of(st.tuples(st.just(".json"), json_texts()),
                             st.tuples(st.just(".csv"), csv_texts())))
@example(suffix_text=(".json", json.dumps({**DOCS[0], "cells": []})))
@example(suffix_text=(".json", json.dumps(NEGATIVE_PAIR)))
@example(suffix_text=(".json", json.dumps(DOCS[0]).encode() + b"\xff"))  # no UTF-8
@example(suffix_text=(".csv", b"\xfe" + H3.to_csv().encode()))
@settings(max_examples=150, deadline=None)
def test_mutated_inputs_never_crash(suffix_text):
    suffix, text = suffix_text
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"input{suffix}"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        v = ["--v", "21"] if suffix == ".csv" else []
        for argv in commands(str(path), v):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), argv
            if code in (0, 1):
                status = "ok" if code == 0 else "violation"
                assert json.loads(out.getvalue())["status"] == status, argv
            if code == 2:
                assert err.getvalue().startswith("error: "), argv
