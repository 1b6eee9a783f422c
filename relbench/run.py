#!/usr/bin/env python3
"""relheffter benchmark.

    python3 relbench/run.py --workload construct-verify|embed|knight \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the library is imported from its
``src/`` directory and nowhere else. Each job is one in-process
``relheffter.cli.main(argv)`` call, run serially by one client in a closed
loop over the workload's job list (a pass) until ``--seconds`` have gone by.
Every answer is checked; the digest of a pass is compared with the one
recorded in spec.json for the default seed.

``--trace 0`` reports the end-to-end metrics: the CPU time of one pass and
the set-up time, both scaled to a nominal host speed (see REFERENCE_S), and
the peak RSS; measured wall and CPU times and job-latency percentiles are
printed beside them. ``--trace 1`` alternates an untraced pass with a traced
replay of the same jobs (traced.py) and reports per-layer CPU self times and
counts. Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. Inputs, outputs
and the span file live under ``.relbench/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "spec.json").read_text())
SETUP_REPEATS = 9
# On a shared 2-core host, speed drifted by up to a third within minutes, for
# CPU time as much as for wall time. Timed work is therefore reported at a
# nominal host speed: scaled by REFERENCE_S over the median CPU time of
# reference_work(), which runs before the jobs of the same run.
REFERENCE_S = 0.004
REFERENCES_PER_PASS = 40

SPAN_TIMES = [
    "group.sum_elements", "pfarray.row_col", "pfarray.from_json", "pfarray.from_csv",
    "pfarray.to_json", "pfarray.to_csv", "constructions.build",
    "constructions.archdeacon_composite", "heffter.verify_integer", "heffter.verify_archdeacon",
    "orderings.knight_search", "orderings.search_lift_shape", "orderings.lift_solution",
    "orderings.knight_tour", "orderings.is_globally_simple", "orderings.orientation_to_orderings",
    "topology.from_entries", "topology.build_rho0", "topology.trace_faces",
    "topology.two_color_check", "topology.base_cycles", "topology.develop_and_verify",
    "topology.verify_orthogonal", "cli.emit",
]
COUNTS = ["orderings.orientations", "topology.edges", "topology.faces", "pfarray.cells"]
# rate metric -> (count, spans whose self time it is divided by)
RATES = {
    "group.adds_per_s": ("group.adds", ["group.sum_elements"]),
    "pfarray.lines_per_s": ("pfarray.lines", ["pfarray.row_col"]),
    "heffter.cells_per_s": ("heffter.cells", ["heffter.verify_integer", "heffter.verify_archdeacon"]),
    "orderings.orientations_per_s": (
        "orderings.orientations", ["orderings.knight_search", "orderings.search_lift_shape"]),
    "topology.darts_per_s": ("topology.darts", ["topology.trace_faces"]),
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    return parser.parse_args(argv)


def import_library() -> float:
    """Import relheffter from this checkout's src/; return the CPU seconds it took."""
    src = ROOT / "src"
    if not (src / "relheffter" / "__init__.py").is_file():
        raise SystemExit(f"error: no relheffter sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    start = process_time()
    global cli, jobs, traced
    import relheffter.cli as cli
    import jobs
    import traced
    elapsed = process_time() - start
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: relheffter imported from {cli.__file__}, not {src}")
    return elapsed


# -- running passes ------------------------------------------------------------


@dataclass
class Pass:
    attempted: int = 0
    latency: dict[str, float] = field(default_factory=dict)  # job key -> seconds
    cpu: dict[str, float] = field(default_factory=dict)  # job key -> CPU seconds
    answers: dict[str, tuple[int, dict | None]] = field(default_factory=dict)
    failed: dict[str, str] = field(default_factory=dict)  # job key -> what went wrong

    @property
    def wall(self) -> float:
        return sum(self.latency.values())


def run_cli(job, prev: dict | None) -> tuple[int, dict | None, tuple[float, float]]:
    """One CLI call; returns its exit code, payload and (wall, CPU) seconds."""
    out, err = io.StringIO(), io.StringIO()
    argv = jobs.argv_for(job, prev)
    with redirect_stdout(out), redirect_stderr(err):
        start, cpu = perf_counter(), process_time()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            rc = exc.code
        elapsed = perf_counter() - start, process_time() - cpu
    try:
        payload = json.loads(out.getvalue())
    except ValueError:
        payload = None
    return rc, payload, elapsed


def traced_runner(tracer):
    def run(job, prev):
        start, cpu = perf_counter(), process_time()
        rc, payload = traced.replay(job, prev, tracer)
        return rc, payload, (perf_counter() - start, process_time() - cpu)
    return run


def run_pass(chains, runner, refs: list | None = None, ref_reps: int = 1) -> Pass:
    """One pass over the job list; a job's latency is the time of its call alone.
    The answer checks run between calls, and each call starts from a collected
    heap, as a fresh CLI process would, so that a job's time does not depend on
    the garbage the jobs before it left. With refs, the reference work runs
    ref_reps times before each job."""
    result = Pass()
    for chain in chains:
        prev = None
        for job in chain:
            result.attempted += 1
            if refs is not None:
                refs += [reference_work() for _ in range(ref_reps)]
            gc.collect()
            try:
                rc, payload, elapsed = runner(job, prev)
            except Exception as exc:  # a crash fails its chain, not the run
                result.failed[job.key] = f"{type(exc).__name__}: {exc}"
                break
            result.latency[job.key], result.cpu[job.key] = elapsed
            result.answers[job.key] = (rc, payload)
            problem = jobs.check(job, rc, payload)
            if problem:
                result.failed[job.key] = problem
            prev = payload
    return result


def digest(answers: dict, work: Path) -> str:
    """SHA-256 over every exit code and payload, in job-key order, with the
    work directory written as $WORK."""
    h = hashlib.sha256()
    for key in sorted(answers):
        rc, payload = answers[key]
        text = json.dumps(payload, sort_keys=True).replace(str(work), "$WORK")
        h.update(f"{key}\t{rc}\t{text}\n".encode())
    return h.hexdigest()


def reference_work() -> float:
    """CPU time of a fixed pure-Python loop shaped like the library's work: a
    walk over successor lists, tuple-keyed dict updates, a sort and a set of
    frozensets. It tracks host speed; nothing in the library changes it."""
    start = process_time()
    succ = [(i * 7 + 3) % 1009 for i in range(1009)]
    x = 0
    for _ in range(20000):
        x = succ[x]
    counts: dict = {}
    for i in range(4000):
        key = (i % 61, i % 53)
        counts[key] = counts.get(key, 0) + 1
    order = sorted(counts, key=lambda c: (c[1], c[0]))
    {frozenset(pair) for pair in zip(order, order[1:])}
    return process_time() - start


# -- the machine record --------------------------------------------------------


def machine_record() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / "relheffter").glob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "src_relheffter_lines": src_lines,
    }


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# -- reporting -----------------------------------------------------------------


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def describe_latencies(name: str, ms: list[float]) -> str:
    """p50, p90 when there are at least 100 samples, and the highest percentile
    with at least ten samples beyond it."""
    n = len(ms)
    parts = [f"p50 {statistics.median(ms):.4f}"]
    if n >= 100:
        parts.append(f"p90 {percentile(ms, 90):.4f}")
    q = int(100 * (1 - 10 / n)) if n >= 20 else 0
    if q > 50:
        parts.append(f"p{q} {percentile(ms, q):.4f} (the highest with ten samples beyond)")
    return f"{name} over {n} samples: " + ", ".join(parts) + " ms"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(self_times: list[dict], counts: list[dict], overhead: float) -> dict:
    """Per-pass self times and counts, as medians over the traced passes."""
    out = {}
    for name in SPAN_TIMES:
        out[f"{name}_s"] = metric(statistics.median(s.get(name, 0.0) for s in self_times), "s")
    for name in COUNTS:
        out[name] = metric(counts[0].get(name, 0), "count")
    for name, (count, spans) in RATES.items():
        per_pass = []
        for s, c in zip(self_times, counts):
            busy = sum(s.get(span, 0.0) for span in spans)
            per_pass.append(c.get(count, 0) / busy if busy > 0 else 0.0)
        out[name] = metric(statistics.median(per_pass), "1/s")
    out["trace.overhead_frac"] = metric(overhead, "ratio")
    return out


# -- main ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    conf = SPEC["workloads"][args.workload]
    seed = conf["default_seed"] if args.seed is None else args.seed
    recorded = SPEC["recorded"].get(args.workload) if not args.smoke else None
    if recorded and conf["answers_depend_on_seed"] and seed != conf["default_seed"]:
        recorded = None
    if args.smoke:
        conf = {**conf, **conf["smoke"]}

    refs = [reference_work()]
    import_s = import_library()
    work_root = ROOT / ".relbench" / f"work-{args.workload}-{seed}-{os.getpid()}"
    try:
        setups = []
        for i in range(SETUP_REPEATS):
            refs.append(reference_work())
            start = process_time()
            work = work_root / f"setup{i}"
            chains, warmup = jobs.setup(args.workload, conf, seed, work, ROOT)
            run_pass([warmup], run_cli)
            setups.append(process_time() - start)
        setup_cpu = import_s + statistics.median(setups)
        setup = (setup_cpu, setup_cpu * REFERENCE_S / statistics.median(refs))
        measure = trace_run if args.trace else plain_run
        return measure(args, seed, chains, work, setup, recorded)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)


def check_digests(passes: list[Pass], work: Path, recorded: dict | None) -> set[str]:
    """The digests of the passes. When a digest differs from the recorded one,
    every job of that pass counts as failed."""
    digests = set()
    for p in passes:
        d = digest(p.answers, work)
        digests.add(d)
        if recorded and d != recorded["sha256"]:
            for key in p.answers:
                p.failed.setdefault(key, "answers differ from the recorded default-seed answers")
    return digests


def result_line(passes: list[Pass], metrics: dict) -> str:
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failed) for p in passes)
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def print_common(args, seed: int, passes: list[Pass], digests: set[str],
                 recorded: dict | None) -> None:
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failed) for p in passes)
    print("machine " + json.dumps(machine_record(), sort_keys=True))
    print(f"workload {args.workload} seed {seed} trace {args.trace} "
          f"passes {len(passes)} jobs {attempted}")
    print(f"failed_frac {failed / attempted:.4f} ratio ({failed} of {attempted})")
    match = ("none recorded for this seed" if not recorded
             else "matches the recorded digest" if digests == {recorded["sha256"]}
             else f"recorded {recorded['sha256']} differs")
    print(f"digest {' '.join(sorted(digests))} ({match})")
    shown = [f"{key}: {why}" for p in passes for key, why in p.failed.items()]
    for line in shown[:20]:
        print(f"FAILED {line}")


def job_medians(per_job: list[dict[str, float]]) -> list[float]:
    """Each job's median time across the passes. Per-job medians resist a slow
    spell that covers parts of several passes."""
    return [statistics.median(t[key] for t in per_job if key in t) for key in per_job[0]]


def plain_run(args, seed, chains, work, setup, recorded) -> int:
    passes, refs = [], []
    ref_reps = -(-REFERENCES_PER_PASS // sum(map(len, chains)))
    deadline = perf_counter() + args.seconds
    while not passes or perf_counter() < deadline:
        passes.append(run_pass(chains, run_cli, refs, ref_reps))
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    digests = check_digests(passes, work, recorded)
    wall_ms = [x * 1000 for p in passes for x in p.latency.values()]
    cpu_ms = [x * 1000 for p in passes for x in p.cpu.values()]
    wall_s = sum(job_medians([p.latency for p in passes]))
    pass_cpu = sum(job_medians([p.cpu for p in passes]))
    ref = statistics.median(refs)
    setup_cpu, setup_s = setup
    metrics = {
        "pass_cpu_s": metric(pass_cpu * REFERENCE_S / ref, "s"),
        "peak_rss_mib": metric(rss_mib, "MiB"),
        "setup_s": metric(setup_s, "s"),
    }
    print_common(args, seed, passes, digests, recorded)
    print(f"reference_work_ms {ref * 1000:.4f} ms (median of {len(refs)}, min "
          f"{min(refs) * 1000:.4f}, max {max(refs) * 1000:.4f}); timed work below is "
          f"scaled by {REFERENCE_S * 1000:g} ms over it")
    print(f"wall_s {wall_s:.4f} s measured (sum of per-job medians over {len(passes)} passes; "
          "pass walls " + ", ".join(f"{p.wall:.3f}" for p in passes) + ")")
    print(describe_latencies("job_ms", wall_ms))
    print(describe_latencies("job_cpu_ms", cpu_ms))
    print(f"pass_cpu_s {metrics['pass_cpu_s']['value']:.4f} s scaled, {pass_cpu:.4f} s measured "
          "(sum of per-job medians)")
    print(f"peak_rss_mib {rss_mib:.2f} MiB")
    print(f"setup_s {setup_s:.4f} s scaled, {setup_cpu:.4f} s measured (CPU time of the "
          f"imports + median of {SETUP_REPEATS} set-ups)")
    print(result_line(passes, metrics))
    return 0


def trace_run(args, seed, chains, work, setup, recorded) -> int:
    """Until the time is up: a CLI pass, then a replay without spans and a traced
    replay, in alternating order."""
    tracer = traced.Tracer()
    plain, baselines, replays, self_times, counts = [], [], [], [], []
    deadline = perf_counter() + args.seconds
    while not plain or perf_counter() < deadline:
        plain.append(run_pass(chains, run_cli))
        if len(plain) % 2:
            baselines.append(run_pass(chains, traced_runner(traced.NullTracer())))
        first = len(tracer.spans)
        tracer.counts = Counter()
        replays.append(run_pass(chains, traced_runner(tracer)))
        self_times.append(dict(tracer.self_times(first)))
        counts.append(dict(tracer.counts))
        if not len(plain) % 2:
            baselines.append(run_pass(chains, traced_runner(traced.NullTracer())))
        for run in (baselines[-1], replays[-1]):
            for key, answer in run.answers.items():
                if plain[-1].answers.get(key) != answer:
                    run.failed.setdefault(key, "replay answers differ from the CLI")
    # CPU time, per-job medians: the spans' cost, not a slow spell of the host
    overhead = (sum(job_medians([p.cpu for p in replays]))
                / sum(job_medians([p.cpu for p in baselines])) - 1)
    if any(c != counts[0] for c in counts):
        replays[-1].failed["counts"] = f"counts differ between traced passes: {counts}"
    if recorded and counts[0] != recorded["counts"]:
        replays[-1].failed["counts"] = f"counts {counts[0]} differ from the recorded ones"
    passes = plain + baselines + replays
    digests = check_digests(passes, work, recorded)
    metrics = layer_metrics(self_times, counts, overhead)

    out = ROOT / ".relbench" / f"trace-{args.workload}-seed{seed}.json"
    out.write_text(json.dumps({
        "machine": machine_record(), "workload": args.workload, "seed": seed,
        "counts_per_pass": counts, "self_times_per_pass": self_times,
        "spans": tracer.to_json(),
    }) + "\n")
    print_common(args, seed, passes, digests, recorded)
    print(f"counts per pass {json.dumps(counts[0], sort_keys=True)}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"spans written to {out.relative_to(ROOT)}")
    print(result_line(passes, metrics))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
