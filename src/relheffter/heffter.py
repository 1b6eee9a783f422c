"""Verification of relative Heffter arrays, the integer strengthening, and Archdeacon arrays."""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, NamedTuple, Sequence

from .group import subgroup_step, symmetric_residue
from .pfarray import PFArray


class HeffterParams(NamedTuple):
    """The parameters (m, n, s, k, t) of a putative H_t(m, n; s, k); v = 2nk + t."""

    m: int
    n: int
    s: int
    k: int
    t: int

    @classmethod
    def square(cls, n: int, k: int, t: int) -> "HeffterParams":
        return cls(n, n, k, k, t)

    @property
    def v(self) -> int:
        return 2 * self.n * self.k + self.t


class VerificationReport:
    """Outcome of a verifier: valid iff no violations were recorded."""

    def __init__(self) -> None:
        self.violations: list[tuple[str, str]] = []

    @property
    def valid(self) -> bool:
        return not self.violations

    def flag(self, tag: str, message: str) -> None:
        self.violations.append((tag, message))

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "violations": [{"tag": t, "message": m} for t, m in self.violations],
        }


def _flag_lines(report: VerificationReport, tag: str, keys: Iterable[int],
                values: Sequence[int], message: Callable[[int, int], str]) -> None:
    """Flag message(i, x) for each line i whose value x is nonzero, in line
    order. The values come from one pass over all lines; the lines are
    scanned only when one is nonzero."""
    if any(values):
        for i, x in zip(keys, values):
            if x:
                report.flag(tag, message(i, x))


def _entry_set(report: VerificationReport, array: PFArray,
               name: Callable[[int], object]) -> set[int]:
    """The set of entry codes. When it is smaller than |E(A)|, each repeated
    entry is flagged, named by name(code), in code order."""
    values = array.entry_codes.values()
    present = set(values)
    if len(present) != len(values):
        counts = Counter(values)
        for x in sorted(counts):
            if counts[x] > 1:
                report.flag("duplicate", f"entry {name(x)} appears {counts[x]} times")
    return present


def verify_relative_heffter(array: PFArray, params: HeffterParams) -> VerificationReport:
    """Check conditions (a), (b), (c) of the relative Heffter array definition,
    on the residue lines of the array's index. Each condition is checked over
    the whole array at once; a witness is looked for only when one fails."""
    if (array.m, array.n) != (params.m, params.n):
        raise ValueError(
            f"array is {array.m}x{array.n}, params expect {params.m}x{params.n}"
        )
    if not array.spec.is_cyclic_single or array.spec.orders[0] != params.v:
        raise ValueError(f"array group {array.spec.orders} != Z_{params.v}")

    report = VerificationReport()
    v, t, s, k = params.v, params.t, params.s, params.k
    step = subgroup_step(v, t)
    lines = array.index[1]  # residues: the codes of Z_v
    rows, cols = lines[:params.m], lines[params.m:]
    row_keys, col_keys = range(1, params.m + 1), range(1, params.n + 1)

    _flag_lines(report, "row-count", row_keys, [len(row) - s for row in rows],
                lambda i, x: f"row {i} has {x + s} filled cells, expected {s}")
    _flag_lines(report, "col-count", col_keys, [len(col) - k for col in cols],
                lambda j, x: f"column {j} has {x + k} filled cells, expected {k}")

    present = _entry_set(report, array, lambda x: symmetric_residue(x, v))
    hits = present.intersection(range(0, v, step))
    pairs = present & {v - x for x in present}  # x whose negative appears; v/2 is its own
    for x in sorted(hits | pairs):
        rep = symmetric_residue(x, v)
        if x in hits:
            report.flag("subgroup-hit", f"entry {rep} lies in the order-{t} subgroup")
        if 2 * x == v:
            # a self-negative entry (v/2) makes |±E(A)| < 2nk, breaking coverage
            report.flag("coverage", f"self-negative entry {rep}")
        elif rep > 0 and x in pairs:  # flag each pair once
            report.flag("coverage", f"both {rep} and its negative appear")
    total = len(array.entry_codes)
    if total != params.n * params.k:
        report.flag("coverage", f"|E(A)| = {total}, expected nk = {params.n * params.k}")

    totals = array.spec.codes.totals
    _flag_lines(report, "row-sum", row_keys, totals(rows),
                lambda i, _: f"row {i} does not sum to 0 in Z_{v}")
    _flag_lines(report, "col-sum", col_keys, totals(cols),
                lambda j, _: f"column {j} does not sum to 0 in Z_{v}")
    return report


def verify_integer(array: PFArray, params: HeffterParams) -> VerificationReport:
    """verify_relative_heffter plus zero row/column sums over the integers."""
    report = verify_relative_heffter(array, params)
    v, m = params.v, params.m
    half = v // 2  # the symmetric residue of x is x - v above v/2
    sums = [sum(line) - v * len([x for x in line if x > half]) for line in array.index[1]]
    _flag_lines(report, "integer-sum", range(1, m + 1), sums[:m],
                lambda i, x: f"row {i} sums to {x} over Z")
    _flag_lines(report, "integer-sum", range(1, params.n + 1), sums[m:],
                lambda j, x: f"column {j} sums to {x} over Z")
    return report


def verify_archdeacon(array: PFArray) -> VerificationReport:
    """Check the Archdeacon array conditions over an arbitrary abelian group.

    A zero entry is rejected with its own tag: condition (b) applied to g = 0
    would forbid it since 0 = -0. Each condition is checked over the whole
    array at once; a witness is looked for only when one fails.
    """
    report = VerificationReport()
    codes = array.spec.codes
    # codes sort as coordinate tuples do, and a witness is named by its tuple
    present = _entry_set(report, array, codes.coords)
    negatives = codes.from_columns([[-c % o for c in col]
                                    for col, o in zip(codes.columns(present), array.spec.orders)])
    for x in sorted(present.intersection(negatives)):  # x whose negative appears; 0 is its own
        if x == 0:
            report.flag("zero-entry", "the identity appears as an entry")
        elif x <= codes.neg(x):  # flag each pair once
            report.flag("antisymmetric", f"both {codes.coords(x)} and its negative appear")
    m, lines = array.m, array.index[1]
    _flag_lines(report, "row-sum", range(1, m + 1), codes.totals(lines[:m]),
                lambda i, _: f"row {i} does not sum to 0")
    _flag_lines(report, "col-sum", range(1, array.n + 1), codes.totals(lines[m:]),
                lambda j, _: f"column {j} does not sum to 0")
    return report

