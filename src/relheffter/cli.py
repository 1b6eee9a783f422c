"""Command-line front end: construct, verify, knight, embed, sweep."""

from __future__ import annotations

import argparse
import errno
import json
import os
import stat
import sys
from collections import Counter
from functools import cache, partial

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
    lift_walk,
    nine_diagonal_orientation,
    search_lift_shape_on,
)
from .pfarray import PFArray, Skeleton, classify_diagonals, json_text, skeleton_of
from .topology import CertificationError, certify_biembedding, heffter_genus_formula

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_SOFTWARE = 70  # sysexits.h EX_SOFTWARE: an unexpected exception
SWEEP_MAX_N = 199


class UsageError(Exception):
    pass


def _path_text(path: str) -> str:
    """str(pathlib.Path(path)) on POSIX, without building a Path: repeated
    slashes, '.' parts and a trailing slash dropped, a leading '//' kept."""
    root = "//" if path[:2] == "//" and path[2:3] != "/" else "/" if path[:1] == "/" else ""
    return root + "/".join(part for part in path.split("/") if part and part != ".") or "."


def _read(path: str) -> bytes:
    """The bytes of a regular file, read through its fd, with the OSError texts
    of open(path, "rb"). Any other file is refused before it is opened: a
    directory with the text of its failing read, and a device or FIFO, which
    may never end, as a usage error."""
    mode = os.stat(path).st_mode
    if stat.S_ISDIR(mode):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not stat.S_ISREG(mode):
        raise UsageError(f"not a regular file: {path}")
    fd = os.open(path, os.O_RDONLY)
    try:
        return b"".join(iter(partial(os.read, fd, 1 << 20), b""))
    finally:
        os.close(fd)


def _load(path: str, v: int | None = None, skeletons: bool = False) -> PFArray | Skeleton:
    """The array in a .json or .csv file or, given skeletons, the skeleton in a
    .json file without a group. The format comes from the suffix, and another
    suffix, or a .csv file without v, is a usage error before the file is
    opened. A path that cannot name a file (it holds a NUL), one that names no
    regular file, and a malformed file, undecodable bytes included, are usage
    errors that name the path: a JSON document that is no object among them,
    and an array file whose cells are no list."""
    path = _path_text(path)
    suffix = os.path.splitext(path)[1]
    if suffix not in (".json", ".csv"):
        raise UsageError(f"unsupported input format: {path}")
    if suffix == ".csv" and v is None:
        raise UsageError("CSV input requires --v (the group order)")
    try:
        data = _read(path)
        if suffix == ".csv":
            return PFArray.from_csv(data.decode(), v)
        doc = json.loads(data.decode())
        if type(doc) is not dict:
            raise UsageError(f"{path}: not a JSON object")
        if skeletons and "group" not in doc:
            return Skeleton.from_json(doc)
        cells = doc.get("cells")
        if not skeletons and type(cells) is list and cells and "v" not in cells[0]:
            raise UsageError(f"{path} looks like a skeleton file, not an array")
        return PFArray.from_json(doc)
    except KeyError as exc:
        raise UsageError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _finish(payload: dict, ok: bool) -> int:
    """The one end of a command: the payload's status, its one write to stdout,
    and the exit code, 0 when ok and 1 for a violation."""
    payload["status"] = "ok" if ok else "violation"
    sys.stdout.write(json_text(payload))
    return EXIT_OK if ok else EXIT_VIOLATION


def _usage(call, *args):
    """call(*args), with a ValueError it raises on the command's input turned
    into a usage error (exit 2)."""
    try:
        return call(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _orientation(text: str, m: int, n: int) -> Orientation:
    """The orientation written as 'ROWS,COLS', of an m x n array."""
    try:
        rows, cols = text.split(",")
        orientation = Orientation.from_strings(rows, cols)
    except (ValueError, KeyError) as exc:
        raise UsageError(f"bad orientation {text!r}: expected e.g. '+++,++-'") from exc
    if len(orientation.r) != m or len(orientation.c) != n:
        raise UsageError("orientation length does not match the array")
    return orientation


def _write(path: str, text: str) -> str:
    """Write the text's bytes through the fd of the file, with the OSError
    texts of open(path, "w"). An existing file is rewritten in place, which
    costs less CPU than truncating it first, and then cut to the new size if
    it is longer; a device or a FIFO (size 0) is never cut. The open does
    not block, so a FIFO with no reader fails at once (ENXIO) rather than
    waiting for one; the writes block as usual."""
    path = _path_text(path)
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_NONBLOCK, 0o666)
    except ValueError as exc:  # a NUL in the path
        raise UsageError(f"{path}: {exc}") from exc
    try:
        os.set_blocking(fd, True)
        data = memoryview(text.encode())
        size = len(data)
        while data:
            data = data[os.write(fd, data):]
        if os.fstat(fd).st_size > size:
            os.ftruncate(fd, size)
    finally:
        os.close(fd)
    return path


def _write_outputs(obj: PFArray | Skeleton, out: str | None) -> list[str]:
    if out is None:
        return []
    paths = [_write(out + ".json", obj.to_json_text())]
    if isinstance(obj, PFArray) and obj.spec.is_cyclic_single:
        paths.append(_write(out + ".csv", obj.to_csv()))
    return paths


def _modal_length(lines: list) -> int:
    """The most common length of the lines, the larger one on a tie: one pass
    over the lines when they all have one length."""
    lengths = set(map(len, lines))
    if len(lengths) > 1:
        counts = Counter(map(len, lines))
        return max(lengths, key=lambda x: (counts[x], x))
    return lengths.pop()


def _square_params(array: PFArray, t: int) -> HeffterParams:
    """The parameters with s and k the modal row and column lengths: the
    verifier reports each line of another length."""
    lines = array.index[1]
    s, k = _modal_length(lines[:array.m]), _modal_length(lines[array.m:])
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
        record = cons.FAMILIES[family]
        array = _usage(record.builder, args.n)
        t = record.t(args.n)
        report = verify_integer(array, HeffterParams.square(args.n, record.k, t))
        payload["t"] = t
        payload["globally_simple"] = is_globally_simple(array)
        obj: PFArray | Skeleton = array
    elif family == "archdeacon-composite":
        if args.base is None or args.d is None:
            raise UsageError("archdeacon-composite requires --base and --d")
        obj = _usage(cons.build_archdeacon_composite, _load(args.base, args.v), args.d)
        report = verify_archdeacon(obj)
        payload["globally_simple"] = is_globally_simple(obj)
    else:  # skeleton-cor39: argparse restricts the choices
        if args.n is None or args.k is None:
            raise UsageError("skeleton-cor39 requires --n and --k")
        obj = _usage(cons.build_skeleton_cor39, args.n, args.k)

    payload["artifacts"] = _write_outputs(obj, args.out)
    if report is not None:
        payload["report"] = report.to_json()
    return _finish(payload, report is None or report.valid)


# -- verify -------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    array = _load(args.input, args.v)
    payload: dict = {"input": args.input}
    ok = True

    if args.archdeacon:
        report = verify_archdeacon(array)
        payload["archdeacon"] = report.to_json()
        ok = report.valid
    if args.t is not None:
        params = _square_params(array, args.t)
        report = (verify_integer if args.integer else verify_relative_heffter)(array, params)
        key = "integer" if args.integer else "relative"
        payload[key] = report.to_json()
        ok = ok and report.valid
    elif args.integer:
        raise UsageError("--integer requires --t")
    if args.globally_simple:
        payload["globally_simple"] = is_globally_simple(array)
        ok = ok and payload["globally_simple"]
    if not (args.archdeacon or args.t is not None or args.globally_simple):
        raise UsageError("nothing to verify: pass --t, --archdeacon, or --globally-simple")

    return _finish(payload, ok)


# -- knight -------------------------------------------------------------


def cmd_knight(args: argparse.Namespace) -> int:
    """Walk the input orientation (searched, closed form or given). With --lift
    the input must be A_n(L1, ..., Lk) and the orientation of the liftable
    shape (else exit 2); only a walk that is a solution is lifted, and the
    verdict is then that of the walk on A_{n+M}."""
    skel = skeleton_of(_load(args.input, args.v, skeletons=True))
    if not skel.cells:
        raise UsageError(f"{args.input} has no filled cells")
    payload: dict = {"input": args.input, "filled_cells": len(skel.cells)}
    lift = args.lift is not None  # an empty --lift is a bad one, not none
    if lift:
        spec = _usage(lambda: LiftSpec(tuple(int(x) for x in args.lift.split(","))))
        if skel != _usage(spec.skeleton, skel.n):
            raise UsageError(f"{args.input} is not the skeleton of diagonals {args.lift}")

    if args.search:
        orientation = search_lift_shape_on(spec, skel) if lift else knight_search(skel)
        if orientation is None:
            payload["solution"] = None
            return _finish(payload, False)
    elif args.lemma410:
        if skel.m != skel.n:
            raise UsageError("--lemma410 requires a square input")
        orientation = _usage(nine_diagonal_orientation, skel.n)
    else:
        orientation = _orientation(args.orientation, skel.m, skel.n)

    if lift:  # skel is spec.skeleton(n)
        big, orientation, orbit, ok = _usage(lift_walk, spec, skel, orientation)
        if big is not skel:
            payload["lifted_n"] = big.n
    else:
        orbit, ok = knight_walk(skel, orientation)
    rs, cs = orientation.to_strings()
    payload.update(
        orientation_rows=rs, orientation_cols=cs, orbit_length=len(orbit), is_solution=ok,
    )
    if args.emit_orbit:
        payload["orbit"] = [[r, c] for r, c in orbit]
    return _finish(payload, ok)


# -- embed --------------------------------------------------------------


def cmd_embed(args: argparse.Namespace) -> int:
    array = _load(args.input, args.v)
    if not array.entry_codes:
        raise UsageError(f"{args.input} has no filled cells")
    orientation = _orientation(args.orientation, array.m, array.n)
    if not is_globally_simple(array):
        raise UsageError("input array is not globally simple")
    genus = None
    if args.t is not None:
        params = _square_params(array, args.t)
        genus = _usage(heffter_genus_formula, params.m, params.n, params.s, params.k, params.t)

    try:
        cert = certify_biembedding(array, orientation)
    except CertificationError as exc:
        return _finish({"input": args.input, "error": str(exc)}, False)
    except ValueError as exc:  # e.g. repeated entries: no entry-level orderings
        raise UsageError(str(exc)) from exc
    cert.embedding.formula_genus = genus
    payload = {"input": args.input, **cert.to_json()}
    if args.emit_faces:
        payload["faces"] = [[[list(x) for x in dart] for dart in face]
                            for face in cert.embedding.faces]
    return _finish(payload, cert.ok)


# -- sweep --------------------------------------------------------------


def _sweep_row(family: cons.Family, n: int) -> dict:
    """Build one family member and run the chain on it; the verdict names the
    first stage that fails."""
    import hashlib  # only here: no other command hashes

    k, t = family.k, family.t(n)
    array = family.builder(n)
    row = {"family": family.name, "n": n, "v": array.spec.size, "t": t, "k": k,
           "sha256": hashlib.sha256(array.to_json_text().encode()).hexdigest(),
           "orientation": None, "F": None, "genus": None}
    if not (verify_integer(array, HeffterParams.square(n, k, t)).valid
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
    leaves it unchanged, so every call of main can use the one tree. Its
    ``commands`` maps each command name to that command's own parser."""
    parser = argparse.ArgumentParser(
        prog="relheffter",
        description="Construct, verify, and certify relative Heffter and Archdeacon arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # the name -> subparser map the tree dispatches on

    p = sub.add_parser("construct", help="build an array family and verify it")
    p.add_argument("family", choices=[
        *cons.FAMILIES, "archdeacon-composite", "skeleton-cor39",
    ])
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--d", type=int)
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


@cache
def _argv_table(command: argparse.ArgumentParser) -> tuple:
    """What _read_argv needs of a command's parser, derived once from it: the
    options by exact name, the positionals in order, the namespace defaults,
    the required actions and the mutually exclusive groups. -h is left out, so
    it is never read. Every action of the tree takes one value or none and has
    no str default (which argparse would convert); the reader models only those."""
    actions = [a for a in command._actions if "-h" not in a.option_strings]
    return (
        {s: a for a in actions for s in a.option_strings},
        [a for a in actions if not a.option_strings],
        {**command._defaults, **{a.dest: a.default for a in actions}},
        [a for a in actions if a.required],
        [(g.required, g._group_actions) for g in command._mutually_exclusive_groups],
    )


def _read_argv(command: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace | None:
    """The namespace of command.parse_known_args(argv) for a well-formed argv, or
    None. Well formed: each option named exactly (no abbreviation, -h, '=' or
    '--') and at most once, each value and positional not starting with '-' and
    of its type and choices, as many positionals as the command takes, every
    required option given, and of each exclusive group at most one option (one
    if the group is required)."""
    options, positionals, defaults, required, groups = _argv_table(command)
    namespace = argparse.Namespace(**defaults)
    seen = set()
    free, tokens = iter(positionals), iter(argv)
    for token in tokens:
        option = None
        if token[:1] == "-":
            option, action = token, options.get(token)
            if action is None or action in seen:
                return None
            token = None if action.nargs == 0 else next(tokens, "-")
        elif (action := next(free, None)) is None:
            return None
        if token is None:
            values = []
        elif token[:1] == "-":
            return None
        else:
            try:
                values = (action.type or str)(token)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
            if action.choices is not None and values not in action.choices:
                return None
        seen.add(action)
        action(command, namespace, values, option)
    if not seen.issuperset(required):
        return None
    for group_required, actions in groups:
        count = len(seen.intersection(actions))
        if count > 1 or group_required and not count:
            return None
    return namespace


def main(argv: list[str] | None = None) -> int:
    """Run one command. A well-formed argv that starts with a command name is
    read from that command's tables (_read_argv); any other argv (help, none,
    an unknown command, anything the reader declines) is parsed by the whole
    tree, which writes every help and error text. An exception that is no
    usage error is a crash: its traceback goes to stderr, and the exit code is
    EXIT_SOFTWARE, never that of a violation."""
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    args = None if command is None else _read_argv(command, argv[1:])
    if args is None:
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, OSError, GroupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:  # a crash, never a verdict
        import traceback  # only here: no command imports it

        traceback.print_exc()
        return EXIT_SOFTWARE


if __name__ == "__main__":
    raise SystemExit(main())
