"""Traced replay: each CLI job re-issued as the public library calls its
command makes, with a span around each call.

The replay builds the same payload as the CLI, so the harness can require the
traced and untraced answers to agree. Beside the CLI's own calls it probes
every array a job checks: ``row(i)``/``col(j)`` for every line (what the CLI's
``_square_params`` does when ``--t`` is given) and ``sum_elements`` over every
line. Replaying with a NullTracer does the same work without spans, which
gives the tracing overhead.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import process_time

from relheffter.constructions import build_archdeacon_composite
from relheffter.group import sum_elements
from relheffter.heffter import HeffterParams, verify_archdeacon, verify_integer
from relheffter.orderings import (
    LiftSpec,
    Orientation,
    is_globally_simple,
    knight_search,
    knight_tour,
    lift_solution,
    orientation_to_orderings,
    search_lift_shape,
)
from relheffter.pfarray import PFArray, Skeleton
from relheffter.topology import (
    CayleyGraph,
    base_cycles,
    build_rho0,
    develop_and_verify,
    heffter_genus_formula,
    trace_faces,
    two_color_check,
    verify_orthogonal,
)

from jobs import FAMILIES, Job


class Tracer:
    """Spans (name, start, end, parent index, job key) kept in memory. Times are
    process CPU seconds, like the end-to-end metrics."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.job: str | None = None

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, 0.0, 0.0, parent, self.job]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = process_time()
        try:
            yield
        finally:
            record[2] = process_time()
            self._stack.pop()

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Per span name: summed duration minus the time its child spans cover."""
        children: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans[first:]:
            if parent is not None:
                children[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans[first:], start=first):
            out[name] += end - start - children[i]
        return out

    def to_json(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "job": j}
                for n, s, e, p, j in self.spans]


class NullTracer(Tracer):
    """The same replay with no spans recorded: the baseline for the overhead."""

    def span(self, name: str):
        return nullcontext()


def replay(job: Job, prev: dict | None, tr: Tracer) -> tuple[int, dict]:
    """Run one job as library calls under a root span; return (exit code, payload)."""
    tr.job = job.key
    with tr.span("job"):
        rc, payload = REPLAYS[job.kind](job.params, prev, tr)
        with tr.span("cli.emit"):
            text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return rc, json.loads(text)


# -- loading, probing, writing ------------------------------------------------


def _load(path: str, tr: Tracer, v: int | None = None) -> PFArray | Skeleton:
    text = Path(path).read_text()
    if path.endswith(".csv"):
        with tr.span("pfarray.from_csv"):
            obj = PFArray.from_csv(text, v)
    else:
        data = json.loads(text)
        with tr.span("pfarray.from_json"):
            obj = PFArray.from_json(data) if "group" in data else Skeleton.from_json(data)
    tr.counts["pfarray.cells"] += len(obj.entries if isinstance(obj, PFArray) else obj.cells)
    return obj


def _probe(array: PFArray, tr: Tracer) -> tuple[list, list]:
    with tr.span("pfarray.row_col"):
        rows = [array.row(i) for i in range(1, array.m + 1)]
        cols = [array.col(j) for j in range(1, array.n + 1)]
    with tr.span("group.sum_elements"):
        for line in rows + cols:
            sum_elements(array.spec, line)
    tr.counts["pfarray.lines"] += len(rows) + len(cols)
    tr.counts["group.adds"] += sum(map(len, rows + cols))
    return rows, cols


def _square_params(array: PFArray, t: int, tr: Tracer) -> HeffterParams:
    rows, cols = _probe(array, tr)
    (s,), (k,) = {len(r) for r in rows}, {len(c) for c in cols}
    return HeffterParams(array.m, array.n, s, k, t)


def _verified(verifier, array: PFArray, *args, tr: Tracer):
    with tr.span(f"heffter.{verifier.__name__}"):
        report = verifier(array, *args)
    tr.counts["heffter.cells"] += len(array.entries)
    return report


def _globally_simple(array: PFArray, tr: Tracer) -> bool:
    with tr.span("orderings.is_globally_simple"):
        return is_globally_simple(array)


def _write_outputs(obj: PFArray, out: str, tr: Tracer) -> list[str]:
    with tr.span("pfarray.to_json"):
        data = obj.to_json()
    json_path = Path(out + ".json")
    json_path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    paths = [str(json_path)]
    if obj.spec.is_cyclic_single:
        with tr.span("pfarray.to_csv"):
            text = obj.to_csv()
        csv_path = Path(out + ".csv")
        csv_path.write_text(text)
        paths.append(str(csv_path))
    return paths


# -- one replay per CLI command ---------------------------------------------


def _construct(p: dict, prev: dict | None, tr: Tracer) -> tuple[int, dict]:
    payload: dict = {"family": p["family"]}
    if p["family"] == "archdeacon-composite":
        base = _load(p["base"], tr)
        with tr.span("constructions.archdeacon_composite"):
            obj = build_archdeacon_composite(base, p["d"])
        tr.counts["pfarray.cells"] += len(obj.entries)
        _probe(obj, tr)
        report = _verified(verify_archdeacon, obj, tr=tr)
    else:
        builder, t_of, _ = FAMILIES[p["family"]]
        with tr.span("constructions.build"):
            obj = builder(p["n"])
        tr.counts["pfarray.cells"] += len(obj.entries)
        t = t_of(p["n"])
        report = _verified(verify_integer, obj, _square_params(obj, t, tr), tr=tr)
        payload["t"] = t
    payload["globally_simple"] = _globally_simple(obj, tr)
    payload["artifacts"] = _write_outputs(obj, p["out"], tr)
    payload["report"] = report.to_json()
    payload["status"] = "ok" if report.valid else "violation"
    return (0 if report.valid else 1), payload


def _verify(p: dict, prev: dict | None, tr: Tracer) -> tuple[int, dict]:
    array = _load(p["input"], tr, p.get("v"))
    payload: dict = {"input": p["input"]}
    violations: list = []
    if p.get("archdeacon"):
        _probe(array, tr)
        report = _verified(verify_archdeacon, array, tr=tr)
        payload["archdeacon"] = report.to_json()
        violations += report.violations
    if "t" in p:
        report = _verified(verify_integer, array, _square_params(array, p["t"], tr), tr=tr)
        payload["integer"] = report.to_json()
        violations += report.violations
    ok = _globally_simple(array, tr)
    payload["globally_simple"] = ok
    if not ok:
        violations.append(("globally-simple", ""))
    payload["status"] = "ok" if not violations else "violation"
    return (0 if not violations else 1), payload


def _knight(p: dict, prev: dict | None, tr: Tracer) -> tuple[int, dict]:
    obj = _load(p["input"], tr)
    skel = obj if isinstance(obj, Skeleton) else obj.skeleton
    payload: dict = {"input": p["input"], "filled_cells": len(skel.cells)}
    if "lift" in p:
        spec = LiftSpec(tuple(p["lift"]))
        with tr.span("orderings.search_lift_shape"):
            sol = search_lift_shape(spec, skel.n)
        free = skel.n - spec.diagonal_indices[-1] + 1
        tr.counts["orderings.orientations"] += _decided(sol and sol.c[:free], free)
    else:
        with tr.span("orderings.knight_search"):
            sol = knight_search(skel)
        tr.counts["orderings.orientations"] += _decided(
            sol and sol.r[1:] + sol.c, skel.m + skel.n - 1, _parity_rejects(skel))
    if sol is None:
        payload.update(status="violation", solution=None)
        return 1, payload
    if "lift" in p:
        with tr.span("orderings.lift_solution"):
            sol = lift_solution(spec, skel.n, sol)
        skel = spec.skeleton(skel.n + spec.M)
        payload["lifted_n"] = skel.n
    with tr.span("orderings.knight_tour"):
        orbit, ok = knight_tour(skel, sol, min(skel.cells))
    rs, cs = sol.to_strings()
    payload.update(orientation_rows=rs, orientation_cols=cs,
                   orbit_length=len(orbit), is_solution=ok)
    payload["status"] = "ok" if ok else "violation"
    return (0 if ok else 1), payload


def _decided(signs: tuple | None, bits: int, rejected: bool = False) -> int:
    """Orientations a lexicographic exhaustive search decides: the 1-based rank of
    the answer, all 2^bits when there is none, 0 when the parity filter rejects."""
    if rejected:
        return 0
    if signs is None:
        return 2 ** bits
    return int("".join("1" if x == -1 else "0" for x in signs) or "0", 2) + 1


def _parity_rejects(skel: Skeleton) -> bool:
    rows = {r for r, _ in skel.cells}
    cols = {c for _, c in skel.cells}
    return (len(rows) == skel.m and len(cols) == skel.n
            and len(skel.cells) % 2 != (skel.m + skel.n - 1) % 2)


def _embed(p: dict, prev: dict | None, tr: Tracer) -> tuple[int, dict]:
    array = _load(p["input"], tr)
    o = Orientation.from_strings(prev["orientation_rows"], prev["orientation_cols"])
    if not _globally_simple(array, tr):
        raise ValueError(f"{p['input']} is not globally simple")
    with tr.span("orderings.orientation_to_orderings"):
        ordering = orientation_to_orderings(array, o)
    with tr.span("topology.build_rho0"):
        rho0 = build_rho0(array, ordering)
    with tr.span("topology.from_entries"):
        graph = CayleyGraph.from_entries(array)
    with tr.span("topology.trace_faces"):
        report = trace_faces(graph, rho0)
    with tr.span("topology.two_color_check"):
        two_colorable = two_color_check(report, array, ordering)
    with tr.span("topology.base_cycles"):
        col_base = base_cycles(array, ordering, by="col")
    with tr.span("topology.develop_and_verify"):
        d_col = develop_and_verify(col_base, graph)
    with tr.span("orderings.orientation_to_orderings"):
        rev_rows = orientation_to_orderings(array, Orientation(tuple(-x for x in o.r), o.c))
    with tr.span("topology.base_cycles"):
        row_base = base_cycles(array, rev_rows, by="row")
    with tr.span("topology.develop_and_verify"):
        d_row = develop_and_verify(row_base, graph)
    with tr.span("topology.verify_orthogonal"):
        orthogonal = verify_orthogonal(d_row, d_col)
    tr.counts["topology.edges"] += graph.num_edges
    tr.counts["topology.darts"] += 2 * graph.num_edges
    tr.counts["topology.faces"] += report.F
    payload = {
        "input": p["input"],
        "embedding": report.to_json(),
        "two_colorable": two_colorable,
        "row_decomposition": d_row.to_json(),
        "col_decomposition": d_col.to_json(),
        "orthogonal": orthogonal,
    }
    if "t" in p:
        params = _square_params(array, p["t"], tr)
        report.formula_genus = heffter_genus_formula(
            params.m, params.n, params.s, params.k, params.t)
        payload["embedding"]["formula_genus"] = report.formula_genus
    else:
        _probe(array, tr)
    ok = two_colorable and orthogonal and (
        report.formula_genus is None or report.formula_genus == report.genus)
    payload["status"] = "ok" if ok else "violation"
    return (0 if ok else 1), payload


REPLAYS = {"construct": _construct, "verify": _verify, "knight": _knight, "embed": _embed}
