#!/usr/bin/env python3
"""Cold A/B of two source trees on one relbench workload, in one process.

    python3 scripts/ab_cold.py PARENT CHANGE --workload W [--passes N] [--smoke]

PARENT and CHANGE are the roots of two checkouts. Each tree's src/relheffter
is imported under its own package name, so both sides run in this process on
the same inputs. The inputs, each job's argv and the answer checks come from
relbench/jobs.py of CHANGE, and every timed call is run_cli of CHANGE's
relbench/run.py, pointed at one side's package; both files are read, never
changed. As relbench's timed passes do, each call follows
ceil(REFERENCES_PER_PASS / jobs) runs of reference_work() and a gc.collect():
3 on embed, 1 on knight and construct-verify.
Every pass runs each job once on each side, and the side that goes first
alternates from job to job and from pass to pass. A job whose exit codes or
payloads differ between the sides (compared as relbench's digest compares
them: the exit code and json.dumps(payload, sort_keys=True)), or whose answer
is wrong, fails the run (exit 1). The report is each side's sum of per-job
median CPU times, their difference and how many jobs the change ran faster,
then in how many passes the change's total over all jobs was lower than the
parent's (the in-process analogue of counting the pairs of whole runs that a
change wins), then each job's two medians, in job order. Timings are
run_cli's time.process_time of this process alone.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import statistics
import sys
import tempfile
from pathlib import Path


def load(name: str, path: Path, package: bool = False):
    """The module (or, with package, the package) at path, imported as name."""
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py" if package else path,
        submodule_search_locations=[str(path)] if package else None)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def side_cli(name: str, root: Path):
    """The relheffter.cli of the tree at root, its package imported as name."""
    load(name, root / "src" / "relheffter", package=True)
    return importlib.import_module(f"{name}.cli")


def run_pass(bench, clis, chains, first: int, cpu: list[dict], reps: int) -> list[str]:
    """Run every job once on each side through bench.run_cli; record each
    side's CPU per job and return what went wrong. first picks the side that
    goes first on the first job; reps is the number of reference_work() runs
    before each call."""
    problems = []
    turn = first
    for chain in chains:
        prev: list[dict | None] = [None, None]
        for job in chain:
            answers = [None, None]
            for side in (turn, 1 - turn):
                for _ in range(reps):
                    bench.reference_work()
                gc.collect()
                bench.cli = clis[side]
                rc, prev[side], (_, seconds) = bench.run_cli(job, prev[side])
                cpu[side].setdefault(job.key, []).append(seconds)
                answers[side] = (rc, json.dumps(prev[side], sort_keys=True))
            turn = 1 - turn
            if answers[0] != answers[1]:
                problems.append(f"{job.key}: exit codes or payloads differ: {answers}")
            elif problem := bench.jobs.check(job, answers[0][0], prev[0]):
                problems.append(f"{job.key}: {problem}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the baseline checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--workload", required=True,
                        choices=["construct-verify", "embed", "knight"])
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--smoke", action="store_true", help="relbench's tiny inputs")
    args = parser.parse_args()
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    roots = [args.parent.resolve(), args.change.resolve()]

    bench = load("_ab_relbench_run", roots[1] / "relbench" / "run.py")
    sys.path.insert(0, str(roots[1] / "src"))  # the relheffter that jobs.py imports
    bench.jobs = load("_ab_relbench_jobs", roots[1] / "relbench" / "jobs.py")
    clis = [side_cli("_ab_parent", roots[0]), side_cli("_ab_change", roots[1])]
    conf = bench.SPEC["workloads"][args.workload]
    if args.smoke:
        conf = {**conf, **conf["smoke"]}

    cpu: list[dict[str, list[float]]] = [{}, {}]
    with tempfile.TemporaryDirectory() as work:
        chains, warmup = bench.jobs.setup(args.workload, conf, conf["default_seed"],
                                          Path(work), roots[1])
        reps = -(-bench.REFERENCES_PER_PASS // sum(map(len, chains)))
        problems = run_pass(bench, clis, [warmup], 0, [{}, {}], reps)
        for i in range(args.passes):
            problems += run_pass(bench, clis, chains, i % 2, cpu, reps)
    for line in problems[:20]:
        print(f"FAILED {line}")

    medians = [{key: statistics.median(times) for key, times in side.items()} for side in cpu]
    totals = [sum(side.values()) for side in medians]
    faster = sum(medians[1][key] < medians[0][key] for key in medians[0])
    pass_totals = [[sum(col) for col in zip(*side.values())] for side in cpu]
    won = sum(after < before for before, after in zip(*pass_totals))
    print(f"workload {args.workload} passes {args.passes} jobs {len(medians[0])} "
          f"(each call cold: reference_work() x{reps} and gc.collect() before it)")
    for label, root, total in zip(("parent", "change"), roots, totals):
        print(f"{label} {total:.5f} s CPU (sum of per-job medians) {root}")
    print(f"change - parent {100 * (totals[1] / totals[0] - 1):+.2f}%; "
          f"the change faster on {faster} of {len(medians[0])} jobs")
    print(f"the change's pass total lower in {won} of {args.passes} passes")
    for key, before in medians[0].items():
        after = medians[1][key]
        print(f"  {key}: {1e3 * before:.3f} -> {1e3 * after:.3f} ms "
              f"({100 * (after / before - 1):+.1f}%)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
