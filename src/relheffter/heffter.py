"""Verification of relative Heffter arrays, the integer strengthening, and Archdeacon arrays."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .group import subgroup_of_order, sum_coords, symmetric_residue
from .pfarray import PFArray, Skeleton


@dataclass(frozen=True)
class HeffterParams:
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

    def check_trivial(self) -> list[str]:
        """The trivial necessary conditions; empty list when they all hold."""
        problems = []
        if (2 * self.n * self.k) % self.t != 0:
            problems.append(f"t={self.t} does not divide 2nk={2 * self.n * self.k}")
        if self.n * self.k != self.m * self.s:
            problems.append(f"nk={self.n * self.k} != ms={self.m * self.s}")
        if not 3 <= self.s <= self.n:
            problems.append(f"s={self.s} outside [3, n={self.n}]")
        if not 3 <= self.k <= self.m:
            problems.append(f"k={self.k} outside [3, m={self.m}]")
        return problems


@dataclass
class VerificationReport:
    """Outcome of a verifier: valid iff no violations were recorded."""

    violations: list[tuple[str, str]] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return not self.violations

    def flag(self, tag: str, message: str) -> None:
        self.violations.append((tag, message))

    @property
    def tags(self) -> set[str]:
        return {t for t, _ in self.violations}

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "violations": [{"tag": t, "message": m} for t, m in self.violations],
        }


def _relative_heffter(
    array: PFArray, params: HeffterParams
) -> tuple[VerificationReport, list[list[int]], list[list[int]]]:
    """The report of verify_relative_heffter and the residue lines it checked."""
    if (array.m, array.n) != (params.m, params.n):
        raise ValueError(
            f"array is {array.m}x{array.n}, params expect {params.m}x{params.n}"
        )
    if not array.spec.is_cyclic_single or array.spec.orders[0] != params.v:
        raise ValueError(f"array group {array.spec.orders} != Z_{params.v}")

    report = VerificationReport()
    v, t = params.v, params.t
    forbidden = {e.coords[0] for e in subgroup_of_order(v, t)}
    rows = [[e.coords[0] for e in array.row(i)] for i in range(1, params.m + 1)]
    cols = [[e.coords[0] for e in array.col(j)] for j in range(1, params.n + 1)]

    for i, row in enumerate(rows, start=1):
        if len(row) != params.s:
            report.flag("row-count", f"row {i} has {len(row)} filled cells, expected {params.s}")
    for j, col in enumerate(cols, start=1):
        if len(col) != params.k:
            report.flag("col-count", f"column {j} has {len(col)} filled cells, expected {params.k}")

    counts = Counter(x for row in rows for x in row)
    present = sorted(counts)
    for x in present:
        if counts[x] > 1:
            report.flag("duplicate", f"entry {symmetric_residue(x, v)} appears {counts[x]} times")
    for x in present:
        rep = symmetric_residue(x, v)
        if x in forbidden:
            report.flag("subgroup-hit", f"entry {rep} lies in the order-{t} subgroup")
        if 2 * x == v:
            # a self-negative entry (v/2) makes |±E(A)| < 2nk, breaking coverage
            report.flag("coverage", f"self-negative entry {rep}")
        elif rep > 0 and v - x in counts:  # flag each pair once
            report.flag("coverage", f"both {rep} and its negative appear")
    total = sum(counts.values())
    if total != params.n * params.k:
        report.flag("coverage", f"|E(A)| = {total}, expected nk = {params.n * params.k}")

    for i, row in enumerate(rows, start=1):
        if row and sum(row) % v:
            report.flag("row-sum", f"row {i} does not sum to 0 in Z_{v}")
    for j, col in enumerate(cols, start=1):
        if col and sum(col) % v:
            report.flag("col-sum", f"column {j} does not sum to 0 in Z_{v}")
    return report, rows, cols


def verify_relative_heffter(array: PFArray, params: HeffterParams) -> VerificationReport:
    """Check conditions (a), (b), (c) of the relative Heffter array definition."""
    return _relative_heffter(array, params)[0]


def verify_integer(array: PFArray, params: HeffterParams) -> VerificationReport:
    """verify_relative_heffter plus zero row/column sums over the integers."""
    report, rows, cols = _relative_heffter(array, params)
    v = params.v
    for i, row in enumerate(rows, start=1):
        total = sum(symmetric_residue(x, v) for x in row)
        if total != 0:
            report.flag("integer-sum", f"row {i} sums to {total} over Z")
    for j, col in enumerate(cols, start=1):
        total = sum(symmetric_residue(x, v) for x in col)
        if total != 0:
            report.flag("integer-sum", f"column {j} sums to {total} over Z")
    return report


def check_support(array: PFArray, expected: set[int]) -> VerificationReport:
    """Compare the support of an integer array against an expected set."""
    from .pfarray import support

    report = VerificationReport()
    got = set(support(array))
    if got != expected:
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        report.flag("support", f"missing={missing[:10]} extra={extra[:10]}")
    return report


def check_necessary_conditions(n: int, k: int, t: int) -> dict[str, str]:
    """Evaluate the three necessary-condition clauses for an integer H_t(n; k).

    Returns a clause -> {'pass', 'fail', 'not-applicable'} map. The conditions
    are necessary, never sufficient.
    """
    if n < k or k < 3:
        raise ValueError(f"need n >= k >= 3, got n={n}, k={k}")
    if (2 * n * k) % t != 0:
        raise ValueError(f"t={t} does not divide 2nk={2 * n * k}")

    nk = n * k
    result: dict[str, str] = {}

    if nk % t == 0:
        ok = nk % 4 == 0 or (nk % 4 == (-t) % 4 and nk % 4 in (1, 3))
        result["divides-nk"] = "pass" if ok else "fail"
    else:
        result["divides-nk"] = "not-applicable"

    if t == 2 * nk:
        result["t-equals-2nk"] = "pass" if k % 2 == 0 else "fail"
    else:
        result["t-equals-2nk"] = "not-applicable"

    if t != 2 * nk and nk % t != 0:
        result["mod-8"] = "pass" if (t + 2 * nk) % 8 == 0 else "fail"
    else:
        result["mod-8"] = "not-applicable"

    return result


def necessary_conditions_pass(n: int, k: int, t: int) -> bool:
    return "fail" not in check_necessary_conditions(n, k, t).values()


def verify_archdeacon(array: PFArray) -> VerificationReport:
    """Check the Archdeacon array conditions over an arbitrary abelian group.

    A zero entry is rejected with its own tag: condition (b) applied to g = 0
    would forbid it since 0 = -0.
    """
    report = VerificationReport()
    orders = array.spec.orders
    rows = [[e.coords for e in array.row(i)] for i in range(1, array.m + 1)]
    cols = [[e.coords for e in array.col(j)] for j in range(1, array.n + 1)]
    counts = Counter(c for row in rows for c in row)
    present = sorted(counts)
    for c in present:
        if counts[c] > 1:
            report.flag("duplicate", f"entry {c} appears {counts[c]} times")
    for c in present:
        negative = tuple(-x % o for x, o in zip(c, orders))
        if not any(c):
            report.flag("zero-entry", "the identity appears as an entry")
        elif negative in counts and c <= negative:  # flag each pair once
            report.flag("antisymmetric", f"both {c} and its negative appear")
    for i, row in enumerate(rows, start=1):
        if row and any(sum_coords(orders, row)):
            report.flag("row-sum", f"row {i} does not sum to 0")
    for j, col in enumerate(cols, start=1):
        if col and any(sum_coords(orders, col)):
            report.flag("col-sum", f"column {j} does not sum to 0")
    return report


def check_compatibility_parity(m: int, n: int, s: int, k: int, t: int) -> bool:
    """Necessary parity condition for compatible simple orderings of an H_t(m,n;s,k)."""
    if m % 2 == 1 and n % 2 == 1 and s % 2 == 1 and k % 2 == 1:
        return True
    if m % 2 == 1 and n % 2 == 0 and k % 2 == 0:
        return True
    if n % 2 == 1 and m % 2 == 0 and t % 2 == 0:
        return True
    return False


def skeleton_parity_ok(array: PFArray | Skeleton) -> bool:
    """|skel(A)| == m + n - 1 (mod 2): required for compatible orderings when no
    row or column of A is empty, so True whenever one is."""
    cells = array.cells if isinstance(array, Skeleton) else array.entries
    if len({r for r, _ in cells}) < array.m or len({c for _, c in cells}) < array.n:
        return True
    return len(cells) % 2 == (array.m + array.n - 1) % 2
