"""Workload set-up and the CLI jobs it produces, with the check of every answer.

Set-up writes every input to files under a work directory, so the program
under test only ever receives file paths. A workload is a list of chains; a
chain is a list of jobs run in order, where a job may read the payload of the
job before it (``embed`` takes the orientation that ``knight --search`` found).
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

from relheffter import constructions as cons
from relheffter.orderings import LiftSpec, Orientation, knight_tour
from relheffter.pfarray import PFArray, Skeleton, skeleton_from_diagonals

# family -> (builder, subgroup order t, group order v)
FAMILIES = {
    "h-n-3": (cons.build_h_n_3, lambda n: n, lambda n: 7 * n),
    "h-2n-3": (cons.build_h_2n_3, lambda n: 2 * n, lambda n: 8 * n),
    "h7": (cons.build_h7, lambda n: 7, lambda n: 14 * n + 7),
    "h9": (cons.build_h9, lambda n: 9, lambda n: 18 * n + 9),
}


@dataclass
class Job:
    """One CLI call. ``params`` holds what both the argv and the traced replay need."""

    key: str
    kind: str  # construct | verify | knight | embed
    params: dict = field(default_factory=dict)


def argv_for(job: Job, prev: dict | None) -> list[str]:
    p = job.params
    if job.kind == "construct":
        if p["family"] == "archdeacon-composite":
            return ["construct", "archdeacon-composite", "--base", p["base"],
                    "--d", str(p["d"]), "--out", p["out"]]
        return ["construct", p["family"], "--n", str(p["n"]), "--out", p["out"]]
    if job.kind == "verify":
        argv = ["verify", p["input"]]
        if "v" in p:
            argv += ["--v", str(p["v"])]
        if "t" in p:
            argv += ["--t", str(p["t"]), "--integer"]
        if p.get("archdeacon"):
            argv.append("--archdeacon")
        return argv + ["--globally-simple"]
    if job.kind == "knight":
        argv = ["knight", p["input"], "--search"]
        if "lift" in p:
            argv += ["--lift", ",".join(map(str, p["lift"]))]
        return argv
    if job.kind == "embed":
        argv = ["embed", p["input"], "--orientation",
                prev["orientation_rows"] + "," + prev["orientation_cols"]]
        if "t" in p:
            argv += ["--t", str(p["t"])]
        return argv
    raise ValueError(f"unknown job kind {job.kind}")


def check(job: Job, rc: int, payload: dict | None) -> str | None:
    """None when the answer is right, else what is wrong with it."""
    if payload is None:
        return f"exit {rc} without a JSON payload"
    p = job.params
    if job.kind == "knight" and p["expect"] is None:
        if rc == 1 and payload.get("status") == "violation" and payload.get("solution", 0) is None:
            return None
        return f"expected no solution, got exit {rc} {payload.get('status')}"
    if rc != 0 or payload.get("status") != "ok":
        return f"exit {rc} status {payload.get('status')}"
    if job.kind == "knight":
        return _check_knight(p, payload)
    if job.kind == "embed":
        emb = payload["embedding"]
        if not (payload["two_colorable"] and payload["orthogonal"]):
            return "embedding not two-colourable or not orthogonal"
        if "t" in p and emb.get("formula_genus") != emb["genus"]:
            return f"genus {emb['genus']} != formula {emb.get('formula_genus')}"
    return None


def _check_knight(p: dict, payload: dict) -> str | None:
    """Re-walk the returned orientation with the slow reference knight_tour."""
    o = Orientation.from_strings(payload["orientation_rows"], payload["orientation_cols"])
    skel = p["skel"]
    if "lift" in p:
        skel = LiftSpec(tuple(p["lift"])).skeleton(payload["lifted_n"])
    orbit, ok = knight_tour(skel, o, min(skel.cells))
    if not ok or len(orbit) != len(skel.cells) or not payload["is_solution"]:
        return "returned orientation is not a solution"
    if p["expect"] not in ("any", o.to_strings()):
        return f"not the lexicographically least solution {p['expect']}"
    return None


# -- set-up --------------------------------------------------------------


def _write_json(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return str(path)


def setup_construct_verify(conf: dict, seed: int, work: Path, root: Path) -> list[list[Job]]:
    chains = []
    for family, ns in conf["ladder"].items():
        _, t_of, v_of = FAMILIES[family]
        for n in ns:
            out = str(work / f"{family}-{n}")
            name = f"{family} n={n}"
            chains.append([
                Job(f"construct {name}", "construct", {"family": family, "n": n, "out": out}),
                Job(f"verify {name} json", "verify",
                    {"input": out + ".json", "t": t_of(n)}),
                Job(f"verify {name} csv", "verify",
                    {"input": out + ".csv", "v": v_of(n), "t": t_of(n)}),
            ])
    for n in conf["composite_bases"]:
        base = _write_json(work / f"base-h7-{n}.json", cons.build_h7(n).to_json())
        out = str(work / f"composite-h7-{n}")
        chains.append([
            Job(f"construct composite h7 n={n}", "construct",
                {"family": "archdeacon-composite", "base": base, "d": 3, "out": out}),
            Job(f"verify composite h7 n={n}", "verify",
                {"input": out + ".json", "archdeacon": True}),
        ])
    return chains


def setup_embed(conf: dict, seed: int, work: Path, root: Path) -> list[list[Job]]:
    chains = []
    for family, n in conf["instances"]:
        params: dict = {}
        if family == "fixture":
            path = work / n
            shutil.copyfile(root / "fixtures" / n, path)
            skel = PFArray.from_json(json.loads(path.read_text())).skeleton
            name = n
        else:
            builder, t_of, _ = FAMILIES[family]
            array = builder(n)
            path = Path(_write_json(work / f"{family}-{n}.json", array.to_json()))
            skel = array.skeleton
            params["t"] = t_of(n)
            name = f"{family} n={n}"
        chains.append([
            Job(f"knight {name}", "knight", {"input": str(path), "skel": skel, "expect": "any"}),
            Job(f"embed {name}", "embed", {"input": str(path), **params}),
        ])
    return chains


def setup_knight(conf: dict, seed: int, work: Path, root: Path) -> list[list[Job]]:
    rng = random.Random(seed)
    m = conf["size"]
    jobs = []
    found = 0
    while found < conf["solvable"]:
        cells = _draw(rng, m, conf["fill"])
        answer = lex_least_solution(cells, m, m, conf["solvable_rank_limit"])
        if answer is None:
            continue
        skel = Skeleton(m, m, frozenset(cells))
        path = _write_json(work / f"solvable-{found:02d}.json", skel.to_json())
        jobs.append(Job(f"knight solvable {found:02d}", "knight",
                        {"input": path, "skel": skel, "expect": answer}))
        found += 1
    for i, cells in enumerate(conf["unsolvable"]):
        skel = Skeleton(m, m, frozenset(map(tuple, cells)))
        path = _write_json(work / f"unsolvable-{i}.json", skel.to_json())
        jobs.append(Job(f"knight unsolvable {i}", "knight",
                        {"input": path, "skel": skel, "expect": None}))
    lift = conf["lift_indices"]
    for n in conf["lift_window"]:
        skel = skeleton_from_diagonals(n, lift)
        path = _write_json(work / f"lift-{n}.json", skel.to_json())
        jobs.append(Job(f"knight lift n={n}", "knight",
                        {"input": path, "skel": skel, "lift": lift, "expect": "any"}))
    return [[job] for job in jobs]


SETUPS = {
    "construct-verify": setup_construct_verify,
    "embed": setup_embed,
    "knight": setup_knight,
}


def setup(workload: str, conf: dict, seed: int, work: Path,
          root: Path) -> tuple[list[list[Job]], list[Job]]:
    """Write the workload's inputs under work; return its chains in seeded
    order and, as the warm-up, the first (smallest) chain of the spec order."""
    work.mkdir(parents=True, exist_ok=True)
    chains = SETUPS[workload](conf, seed, work, root)
    order = list(range(len(chains)))
    random.Random(seed).shuffle(order)
    return [chains[i] for i in order], chains[0]


# -- the benchmark's own Knight oracle -------------------------------------


def _draw(rng: random.Random, m: int, fill: float) -> list[tuple[int, int]]:
    """A random m x m skeleton with no empty row or column that passes the
    parity condition |cells| = m + n - 1 (mod 2)."""
    while True:
        cells = [(r, c) for r in range(1, m + 1) for c in range(1, m + 1) if rng.random() < fill]
        if (len({r for r, _ in cells}) == m and len({c for _, c in cells}) == m
                and len(cells) % 2 == 1):
            return cells


def lex_least_solution(cells, m: int, n: int, limit: int) -> tuple[str, str] | None:
    """The lexicographically least solution (r_1 = +1, +1 before -1) among the
    first ``limit`` orientations, or None. An implementation separate from the
    library's, used to choose solvable inputs and to know their answer."""
    cells = sorted(cells)
    index = {cell: i for i, cell in enumerate(cells)}
    rows: dict[int, list[int]] = {}
    cols: dict[int, list[int]] = {}
    for r, c in cells:
        rows.setdefault(r, []).append(c)
        cols.setdefault(c, []).append(r)

    def step(line: list[int], x: int, d: int) -> int:
        return line[(line.index(x) + d) % len(line)]

    row_next = {d: [index[(r, step(rows[r], c, d))] for r, c in cells] for d in (1, -1)}
    col_next = {d: [index[(step(cols[c], r, d), c)] for r, c in cells] for d in (1, -1)}
    for rank, rest in enumerate(product((1, -1), repeat=m + n - 1)):
        if rank == limit:
            return None
        rs, cs = (1,) + rest[: m - 1], rest[m - 1:]
        x, length = 0, 0
        while True:
            y = row_next[rs[cells[x][0] - 1]][x]
            x = col_next[cs[cells[y][1] - 1]][y]
            length += 1
            if x == 0:
                break
        if length == len(cells):
            return Orientation(rs, cs).to_strings()
    return None
