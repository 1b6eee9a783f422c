"""Command-line front end: construct, verify, knight, embed, sweep."""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from contextlib import contextmanager
from functools import cache
from pathlib import Path
from typing import Iterator

from . import constructions as cons
from .group import GroupError
from .heffter import (
    HeffterParams,
    VerificationReport,
    verify_archdeacon,
    verify_integer,
    verify_relative_heffter,
)
from .orderings import (
    LiftSpec,
    Orientation,
    is_globally_simple,
    knight_search,
    knight_walk,
    nine_diagonal_orientation,
    lift_solution,
    search_lift_shape,
)
from .pfarray import PFArray, Skeleton, classify_diagonals, support
from .topology import CertificationError, certify_biembedding, heffter_genus_formula

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
SWEEP_MAX_N = 199


class UsageError(Exception):
    pass


@contextmanager
def _parsing(path: Path) -> Iterator[None]:
    """Report a malformed input file as a usage error that names the file."""
    try:
        yield
    except KeyError as exc:
        raise UsageError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _load_array(path: Path, v: int | None = None) -> PFArray:
    text = path.read_text()
    with _parsing(path):
        if path.suffix == ".json":
            data = json.loads(text)
            if "cells" in data and data["cells"] and "v" not in data["cells"][0]:
                raise UsageError(f"{path} looks like a skeleton file, not an array")
            return PFArray.from_json(data)
        if path.suffix == ".csv":
            if v is None:
                raise UsageError("CSV input requires --v (the group order)")
            return PFArray.from_csv(text, v)
    raise UsageError(f"unsupported input format: {path}")


def _load_array_or_skeleton(path: Path, v: int | None = None) -> PFArray | Skeleton:
    if path.suffix == ".json":
        text = path.read_text()
        with _parsing(path):
            data = json.loads(text)
            if "group" not in data:
                return Skeleton.from_json(data)
            return PFArray.from_json(data)
    return _load_array(path, v)


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _write_outputs(obj: PFArray | Skeleton, out: str | None) -> list[str]:
    if out is None:
        return []
    json_path = Path(out + ".json")
    if isinstance(obj, Skeleton):
        json_path.write_text(json.dumps(obj.to_json(), indent=2, sort_keys=True) + "\n")
        return [str(json_path)]
    json_path.write_text(obj.to_json_text())
    paths = [str(json_path)]
    if obj.spec.is_cyclic_single:
        csv_path = Path(out + ".csv")
        csv_path.write_text(obj.to_csv())
        paths.append(str(csv_path))
    return paths


def _square_params(array: PFArray, t: int) -> HeffterParams:
    rows, cols = array.line_codes
    counts_r = {len(rows.get(i, ())) for i in range(1, array.m + 1)}
    counts_c = {len(cols.get(j, ())) for j in range(1, array.n + 1)}
    if len(counts_r) != 1 or len(counts_c) != 1:
        raise UsageError("rows/columns do not have uniform fill counts")
    s, k = counts_r.pop(), counts_c.pop()
    params = HeffterParams(array.m, array.n, s, k, t)
    if not array.spec.is_cyclic_single or array.spec.orders[0] != params.v:
        raise UsageError(
            f"array group {array.spec.orders} is not Z_{{2nk+t}} = Z_{params.v}"
        )
    return params


# -- construct ----------------------------------------------------------


def cmd_construct(args: argparse.Namespace) -> int:
    family = args.family
    report: VerificationReport | None = None
    payload: dict = {"family": family}

    if family in cons.FAMILIES:
        if args.n is None:
            raise UsageError("--n is required")
        try:
            array = cons.FAMILIES[family].builder(args.n)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        t = cons.FAMILIES[family].t(args.n)
        report = verify_integer(array, _square_params(array, t))
        payload["t"] = t
        payload["globally_simple"] = is_globally_simple(array)
        obj: PFArray | Skeleton = array
    elif family == "B":
        required = (args.m, args.n, args.d, args.i1, args.i2, args.j1, args.j2)
        if any(x is None for x in required):
            raise UsageError("B requires --m --n --d --i1 --i2 --j1 --j2")
        try:
            obj = cons.build_B(args.m, args.n, args.d, args.i1, args.i2, args.j1, args.j2)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        # the gadget alone only promises zero row/column sums
        report = verify_archdeacon(obj)
        report.violations = [
            (t, m) for t, m in report.violations if t in ("row-sum", "col-sum")
        ]
    elif family == "archdeacon-composite":
        if args.base is None or args.d is None:
            raise UsageError("archdeacon-composite requires --base and --d")
        base = _load_array(Path(args.base), args.v)
        try:
            obj = cons.build_archdeacon_composite(base, args.d)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        report = verify_archdeacon(obj)
        payload["globally_simple"] = is_globally_simple(obj)
    elif family == "skeleton-cor39":
        if args.n is None or args.k is None:
            raise UsageError("skeleton-cor39 requires --n and --k")
        try:
            obj = cons.build_skeleton_cor39(args.n, args.k)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown family {family}")

    payload["artifacts"] = _write_outputs(obj, args.out)
    if report is not None:
        payload["report"] = report.to_json()
    payload["status"] = "ok" if report is None or report.valid else "violation"
    _emit(payload)
    return EXIT_OK if payload["status"] == "ok" else EXIT_VIOLATION


# -- verify -------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    array = _load_array(Path(args.input), args.v)
    payload: dict = {"input": args.input}
    violations: list = []

    if args.archdeacon:
        report = verify_archdeacon(array)
        payload["archdeacon"] = report.to_json()
        violations.extend(report.violations)
    if args.t is not None:
        params = _square_params(array, args.t)
        report = (verify_integer if args.integer else verify_relative_heffter)(array, params)
        key = "integer" if args.integer else "relative"
        payload[key] = report.to_json()
        violations.extend(report.violations)
    elif args.integer:
        raise UsageError("--integer requires --t")
    if args.globally_simple:
        ok = is_globally_simple(array)
        payload["globally_simple"] = ok
        if not ok:
            violations.append(("globally-simple", "a natural row/column ordering is not simple"))
    if not (args.archdeacon or args.t is not None or args.globally_simple):
        raise UsageError("nothing to verify: pass --t, --archdeacon, or --globally-simple")

    payload["status"] = "ok" if not violations else "violation"
    _emit(payload)
    return EXIT_OK if not violations else EXIT_VIOLATION


# -- knight -------------------------------------------------------------


def _parse_orientation(text: str) -> Orientation:
    try:
        rows, cols = text.split(",")
        return Orientation.from_strings(rows, cols)
    except (ValueError, KeyError) as exc:
        raise UsageError(f"bad orientation {text!r}: expected e.g. '+++,++-'") from exc


def cmd_knight(args: argparse.Namespace) -> int:
    obj = _load_array_or_skeleton(Path(args.input), args.v)
    skel = obj if isinstance(obj, Skeleton) else obj.skeleton
    if not skel.cells:
        raise UsageError(f"{args.input} has no filled cells")
    payload: dict = {"input": args.input, "filled_cells": len(skel.cells)}
    if args.lift:
        try:
            spec = LiftSpec(tuple(int(x) for x in args.lift.split(",")))
            if skel != spec.skeleton(skel.n):
                raise UsageError(f"{args.input} is not the skeleton of diagonals {args.lift}")
        except ValueError as exc:
            raise UsageError(str(exc)) from exc

    if args.search:
        orientation = search_lift_shape(spec, skel.n) if args.lift else knight_search(skel)
        if orientation is None:
            payload.update(status="violation", solution=None)
            _emit(payload)
            return EXIT_VIOLATION
    elif args.lemma410:
        if skel.m != skel.n:
            raise UsageError("--lemma410 requires a square input")
        try:
            orientation = nine_diagonal_orientation(skel.n)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    else:
        orientation = _parse_orientation(args.orientation)
        if len(orientation.r) != skel.m or len(orientation.c) != skel.n:
            raise UsageError("orientation length does not match the array")

    if args.lift:
        try:
            orientation = lift_solution(spec, skel.n, orientation)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        skel = spec.skeleton(skel.n + spec.M)
        payload["lifted_n"] = skel.n
    orbit, ok = knight_walk(skel, orientation)
    rs, cs = orientation.to_strings()
    payload.update(
        orientation_rows=rs, orientation_cols=cs, orbit_length=len(orbit), is_solution=ok,
    )
    if args.emit_orbit:
        payload["orbit"] = [[r, c] for r, c in orbit]
    payload["status"] = "ok" if ok else "violation"
    _emit(payload)
    return EXIT_OK if ok else EXIT_VIOLATION


# -- embed --------------------------------------------------------------


def cmd_embed(args: argparse.Namespace) -> int:
    array = _load_array(Path(args.input), args.v)
    if not array.entry_codes:
        raise UsageError(f"{args.input} has no filled cells")
    orientation = _parse_orientation(args.orientation)
    if len(orientation.r) != array.m or len(orientation.c) != array.n:
        raise UsageError("orientation length does not match the array")
    if not is_globally_simple(array):
        raise UsageError("input array is not globally simple")
    params = None if args.t is None else _square_params(array, args.t)

    try:
        cert = certify_biembedding(array, orientation)
    except CertificationError as exc:
        _emit({"input": args.input, "status": "violation", "error": str(exc)})
        return EXIT_VIOLATION
    except ValueError as exc:  # e.g. repeated entries: no entry-level orderings
        raise UsageError(str(exc)) from exc
    if params is not None:
        cert.embedding.formula_genus = heffter_genus_formula(
            params.m, params.n, params.s, params.k, params.t
        )
    payload = {"input": args.input, **cert.to_json()}
    if args.emit_faces:
        payload["faces"] = [[[list(x.coords) for x in dart] for dart in face]
                            for face in cert.embedding.faces]
    payload["status"] = "ok" if cert.ok else "violation"
    _emit(payload)
    return EXIT_OK if cert.ok else EXIT_VIOLATION


# -- sweep --------------------------------------------------------------


def _sweep_row(family: cons.Family, n: int) -> dict:
    """Build one family member and run the chain on it; the verdict names the
    first stage that fails."""
    k, t = family.k, family.t(n)
    array = family.builder(n)
    row = {"family": family.name, "n": n, "v": array.spec.size, "t": t, "k": k,
           "sha256": hashlib.sha256(array.to_json_text().encode()).hexdigest(),
           "orientation": None, "F": None, "genus": None}
    if not (verify_integer(array, HeffterParams.square(n, k, t)).valid
            and support(array) == family.support(n)
            and classify_diagonals(array).is_k_diagonal):
        return {**row, "verdict": "violation"}
    if not is_globally_simple(array):
        return {**row, "verdict": "not-globally-simple"}
    orientation = knight_search(array)
    if orientation is None:
        return {**row, "verdict": "no-knight-solution"}
    row["orientation"] = ",".join(orientation.to_strings())
    try:
        cert = certify_biembedding(array, orientation)
    except CertificationError:
        return {**row, "verdict": "not-certified"}
    cert.embedding.formula_genus = heffter_genus_formula(n, n, k, k, t)
    row.update(F=cert.embedding.F, genus=cert.embedding.genus,
               verdict="certified" if cert.ok else "not-certified")
    return row


def cmd_sweep(args: argparse.Namespace) -> int:
    rows = [_sweep_row(family, n) for _, family in sorted(cons.FAMILIES.items())
            for n in range(1, SWEEP_MAX_N + 1) if family.admissible(n)]
    sys.stdout.write("[\n%s\n]\n" % ",\n".join(json.dumps(row, sort_keys=True) for row in rows))
    return EXIT_OK if all(row["verdict"] == "certified" for row in rows) else EXIT_VIOLATION


# -- parser -------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after: parsing
    leaves it unchanged, so every call of main can use the one tree."""
    parser = argparse.ArgumentParser(
        prog="relheffter",
        description="Construct, verify, and certify relative Heffter and Archdeacon arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build an array family and verify it")
    p.add_argument("family", choices=[
        *cons.FAMILIES, "B", "archdeacon-composite", "skeleton-cor39",
    ])
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--i1", type=int)
    p.add_argument("--i2", type=int)
    p.add_argument("--j1", type=int)
    p.add_argument("--j2", type=int)
    p.add_argument("--base", help="base array file for archdeacon-composite")
    p.add_argument("--v", type=int, help="group order when the base is CSV")
    p.add_argument("--out", help="output path prefix (writes PREFIX.json and PREFIX.csv)")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="verify an array file")
    p.add_argument("input")
    p.add_argument("--t", type=int, help="subgroup order for the relative Heffter check")
    p.add_argument("--v", type=int, help="group order when the input is CSV")
    p.add_argument("--integer", action="store_true")
    p.add_argument("--archdeacon", action="store_true")
    p.add_argument("--globally-simple", dest="globally_simple", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("knight", help="solve or check the Crazy Knight's Tour Problem")
    p.add_argument("input")
    p.add_argument("--v", type=int)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--search", action="store_true")
    mode.add_argument("--orientation", help="row and column signs, e.g. '+++,++-'")
    mode.add_argument("--lemma410", action="store_true")
    p.add_argument("--lift", help="comma-separated diagonal indices of the family to lift")
    p.add_argument("--emit-orbit", action="store_true")
    p.set_defaults(func=cmd_knight)

    p = sub.add_parser("embed", help="trace and certify the biembedding")
    p.add_argument("input")
    p.add_argument("--v", type=int)
    p.add_argument("--t", type=int, help="subgroup order to cross-check the genus formula")
    p.add_argument("--orientation", required=True)
    p.add_argument("--emit-faces", action="store_true")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("sweep", help=f"certify every family member with n <= {SWEEP_MAX_N}")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, OSError, json.JSONDecodeError, GroupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
