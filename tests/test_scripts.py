"""The scripts under scripts/, run in-process at a small size."""

import re
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, capsys, name, *argv):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return exc.value.code, capsys.readouterr().out


def test_knight_window(monkeypatch, capsys):
    code, out = run_script(monkeypatch, capsys, "knight_window.py",
                           "--diagonals", "2,3,4", "--start", "5")
    assert code == 0
    assert re.fullmatch(r"n=5: R=\+{5} C=\+-\+{3} \(\d+\.\d ms\) -> lifts to n=7",
                        out.splitlines()[0])
    assert out.splitlines()[-1] == "window covered: 1 sizes, 0 without solution"


def test_knight_window_all_sizes(monkeypatch, capsys):
    # n = 6 fails the parity condition, so the window has a size without solution
    code, out = run_script(monkeypatch, capsys, "knight_window.py",
                           "--diagonals", "2,3,4", "--start", "5", "--all-sizes")
    assert code == 1
    patterns = [
        r"n=5: R=\+{5} C=\+-\+{3} \(\d+\.\d ms\) -> lifts to n=7",
        r"n=6: no liftable solution \(\d+\.\d ms\)",
        r"n=7: R=\+{7} C=\+{3}-\+{3} \(\d+\.\d ms\) -> lifts to n=9",
        r"window covered: 3 sizes, 1 without solution",
    ]
    lines = out.splitlines()
    assert len(lines) == len(patterns)
    assert all(re.fullmatch(p, line) for p, line in zip(patterns, lines)), lines


def test_ab_cold_smoke(monkeypatch, capsys):
    root = str(SCRIPTS.parent)
    code, out = run_script(monkeypatch, capsys, "ab_cold.py", root, root,
                           "--workload", "construct-verify", "--passes", "2", "--smoke")
    assert code == 0
    lines = out.splitlines()
    # the reference work before each call is relbench's: its share of the
    # pass's REFERENCES_PER_PASS over the 14 jobs, rounded up
    reps = -(-sys.modules["_ab_relbench_run"].REFERENCES_PER_PASS // 14)
    assert lines[0] == (f"workload construct-verify passes 2 jobs 14 (each call cold: "
                        f"reference_work() x{reps} and gc.collect() before it)")
    assert [line.split()[0] for line in lines[1:3]] == ["parent", "change"]
    assert lines[3].startswith("change - parent ") and lines[3].endswith(" of 14 jobs")
    won = lines[4].removeprefix("the change's pass total lower in ").split()
    assert won[0] in ("0", "1", "2") and won[1:] == ["of", "2", "passes"]
    assert len(lines) == 5 + 14 and all(line.startswith("  ") for line in lines[5:])
    assert lines[5].startswith("  construct ") and lines[5].endswith("%)")
