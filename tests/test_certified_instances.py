"""The certified t = k = 3 and t = k = 5 instances: each fixture is rebuilt
from the manifest by the reference builder, byte for byte, and certifies
through the command line (verify, knight --search, embed at the formula
genus)."""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import certified_oracle
from relheffter.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
INSTANCES = certified_oracle.instances()


def run(*argv: str) -> tuple[int, dict]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, json.loads(out.getvalue())


def test_the_manifest_lists_thirteen_h3_instances_and_h5_7_5():
    assert sorted((i["k"], i["mode"], i["n"]) for i in INSTANCES) == sorted(
        [(3, "integer", n) for n in (3, 7, 11, 15, 19, 23, 83)]
        + [(3, "mod-v", n) for n in (5, 9, 13, 17, 21, 29)] + [(5, "integer", 7)])
    assert {i["file"] for i in INSTANCES} == {
        f"h{i['k']}_{i['n']}_{i['t']}.json" for i in INSTANCES}


@pytest.mark.parametrize("instance", INSTANCES, ids=[i["file"] for i in INSTANCES])
def test_certified_instance(instance):
    path = FIXTURES / instance["file"]
    assert path.read_text() == certified_oracle.fixture_text(instance)
    t = str(instance["t"])

    integer = ["--integer"] if instance["mode"] == "integer" else []
    code, payload = run("verify", str(path), "--t", t, *integer, "--globally-simple")
    assert code == 0 and payload["globally_simple"], payload

    code, payload = run("knight", str(path), "--search")
    assert code == 0 and payload["is_solution"], payload
    orientation = f"{payload['orientation_rows']},{payload['orientation_cols']}"

    code, payload = run("embed", str(path), "--orientation", orientation, "--t", t)
    embedding = payload["embedding"]
    assert code == 0 and payload["two_colorable"] and payload["orthogonal"], payload
    assert embedding["formula_genus"] == embedding["genus"] == instance["genus"]
