"""Object-level reference implementations of the verifiers.

These are the straightforward versions of ``verify_relative_heffter``,
``verify_integer``, ``verify_archdeacon`` and ``is_globally_simple`` over
``GroupElement`` values: rows and columns found by sorting every cell on each
call, sums folded with ``+``, and lookups by element and ``neg()``. The library
runs the same checks on residues read from a row/column index built once; the
tests compare the two on the same inputs.
"""

from __future__ import annotations

from collections import Counter

from relheffter.group import GroupElement, neg, subgroup_of_order, symmetric_rep
from relheffter.heffter import HeffterParams, VerificationReport
from relheffter.orderings import partial_sums
from relheffter.pfarray import PFArray


def tags(report: VerificationReport) -> set[str]:
    """The tags of a report's violations."""
    return {t for t, _ in report.violations}


def entry_list(array: PFArray) -> list[GroupElement]:
    """E(A): the entries in row-major cell order."""
    return [array.entries[c] for c in sorted(array.entries)]


def is_identity(e: GroupElement) -> bool:
    return not any(e.coords)


def row(array: PFArray, i: int) -> list[GroupElement]:
    return [array.entries[c] for c in sorted(array.entries) if c[0] == i]


def col(array: PFArray, j: int) -> list[GroupElement]:
    return [array.entries[c] for c in sorted(array.entries, key=lambda c: (c[1], c[0]))
            if c[1] == j]


def is_zero_sum(line: list[GroupElement]) -> bool:
    total = line[0].spec.identity
    for e in line:
        total = total + e
    return is_identity(total)


def verify_relative_heffter(array: PFArray, params: HeffterParams) -> VerificationReport:
    if (array.m, array.n) != (params.m, params.n):
        raise ValueError(
            f"array is {array.m}x{array.n}, params expect {params.m}x{params.n}"
        )
    if not array.spec.is_cyclic_single or array.spec.orders[0] != params.v:
        raise ValueError(f"array group {array.spec.orders} != Z_{params.v}")

    report = VerificationReport()
    v, t = params.v, params.t
    forbidden = subgroup_of_order(v, t)

    for i in range(1, params.m + 1):
        r = row(array, i)
        if len(r) != params.s:
            report.flag("row-count", f"row {i} has {len(r)} filled cells, expected {params.s}")
    for j in range(1, params.n + 1):
        c = col(array, j)
        if len(c) != params.k:
            report.flag("col-count", f"column {j} has {len(c)} filled cells, expected {params.k}")

    entries = entry_list(array)
    counts = Counter(entries)
    for e, c in sorted(counts.items(), key=lambda ec: ec[0].coords):
        if c > 1:
            report.flag("duplicate", f"entry {symmetric_rep(e)} appears {c} times")
    present = set(counts)
    for e in sorted(present, key=lambda e: e.coords):
        if e in forbidden:
            report.flag("subgroup-hit", f"entry {symmetric_rep(e)} lies in the order-{t} subgroup")
        if neg(e) == e and not is_identity(e):
            report.flag("coverage", f"self-negative entry {symmetric_rep(e)}")
        elif neg(e) in present and not is_identity(e):
            if symmetric_rep(e) > 0:
                report.flag("coverage", f"both {symmetric_rep(e)} and its negative appear")
    if len(entries) != params.n * params.k:
        report.flag("coverage", f"|E(A)| = {len(entries)}, expected nk = {params.n * params.k}")

    for i in range(1, params.m + 1):
        r = row(array, i)
        if r and not is_zero_sum(r):
            report.flag("row-sum", f"row {i} does not sum to 0 in Z_{v}")
    for j in range(1, params.n + 1):
        c = col(array, j)
        if c and not is_zero_sum(c):
            report.flag("col-sum", f"column {j} does not sum to 0 in Z_{v}")
    return report


def verify_integer(array: PFArray, params: HeffterParams) -> VerificationReport:
    report = verify_relative_heffter(array, params)
    for i in range(1, params.m + 1):
        total = sum(symmetric_rep(e) for e in row(array, i))
        if total != 0:
            report.flag("integer-sum", f"row {i} sums to {total} over Z")
    for j in range(1, params.n + 1):
        total = sum(symmetric_rep(e) for e in col(array, j))
        if total != 0:
            report.flag("integer-sum", f"column {j} sums to {total} over Z")
    return report


def verify_archdeacon(array: PFArray) -> VerificationReport:
    report = VerificationReport()
    entries = entry_list(array)
    counts = Counter(entries)
    for e, c in sorted(counts.items(), key=lambda ec: ec[0].coords):
        if c > 1:
            report.flag("duplicate", f"entry {e.coords} appears {c} times")
    present = set(counts)
    for e in sorted(present, key=lambda e: e.coords):
        if is_identity(e):
            report.flag("zero-entry", "the identity appears as an entry")
        elif neg(e) in present:
            if neg(e) == e or e.coords < neg(e).coords:
                report.flag("antisymmetric", f"both {e.coords} and its negative appear")
    for i in range(1, array.m + 1):
        r = row(array, i)
        if r and not is_zero_sum(r):
            report.flag("row-sum", f"row {i} does not sum to 0")
    for j in range(1, array.n + 1):
        c = col(array, j)
        if c and not is_zero_sum(c):
            report.flag("col-sum", f"column {j} does not sum to 0")
    return report


def is_simple(seq: list[GroupElement]) -> bool:
    sums = partial_sums(seq)
    return len(set(sums)) == len(sums)


def is_globally_simple(array: PFArray) -> bool:
    lines = [row(array, i) for i in range(1, array.m + 1)]
    lines += [col(array, j) for j in range(1, array.n + 1)]
    return all(is_simple(line) for line in lines if line)
