"""Object-level reference implementations of the verifiers.

These are the straightforward versions of ``verify_relative_heffter``,
``verify_integer``, ``verify_archdeacon`` and ``is_globally_simple`` over
``GroupElement`` values: rows and columns found by sorting every cell on each
call, sums folded with ``+``, and lookups by element and ``neg()``. The library
runs the same checks on residues read from a row/column index built once; the
tests compare the two on the same inputs.

``symmetric_rep`` and ``subgroup_of_order`` are the element-level forms of
``symmetric_residue`` and ``subgroup_step``, and ``support`` is the set of
absolute values of an integer array's entries. ``check_necessary_conditions``
evaluates the necessary conditions for an integer H_t(n; k), and
``check_compatibility_parity`` the parity condition for compatible simple
orderings: the library checks arrays, not parameters, so only tests call them.
"""

from __future__ import annotations

from collections import Counter

from group_oracle import GroupElement, decode, neg, zero
from knight_oracle import partial_sums
from pfarray_oracle import entries
from relheffter.group import GroupError, GroupSpec, subgroup_step, symmetric_residue
from relheffter.heffter import HeffterParams, VerificationReport
from relheffter.pfarray import PFArray


def symmetric_rep(a: GroupElement) -> int:
    """The representative of a in [-floor(v/2), floor(v/2)]; v/2 maps to +v/2 for even v."""
    if not a.spec.is_cyclic_single:
        raise GroupError("symmetric representatives are defined for single-factor groups only")
    return symmetric_residue(a.coords[0], a.spec.orders[0])


def subgroup_of_order(v: int, t: int) -> frozenset[GroupElement]:
    """The unique subgroup {0, v/t, 2v/t, ...} of order t in Z_v."""
    step = subgroup_step(v, t)
    spec = GroupSpec.cyclic(v)
    return frozenset(decode(spec, i * step) for i in range(t))


def support(array: PFArray) -> frozenset[int]:
    """Absolute values of the symmetric representatives of the entries."""
    if not array.spec.is_cyclic_single:
        raise GroupError("support is defined for single-factor groups only")
    v = array.spec.orders[0]
    return frozenset(abs(symmetric_residue(x, v)) for x in array.entry_codes.values())


def tags(report: VerificationReport) -> set[str]:
    """The tags of a report's violations."""
    return {t for t, _ in report.violations}


def entry_list(array: PFArray) -> list[GroupElement]:
    """E(A): the entries in row-major cell order."""
    es = entries(array)
    return [es[c] for c in sorted(es)]


def is_identity(e: GroupElement) -> bool:
    return not any(e.coords)


def row(array: PFArray, i: int) -> list[GroupElement]:
    es = entries(array)
    return [es[c] for c in sorted(es) if c[0] == i]


def col(array: PFArray, j: int) -> list[GroupElement]:
    es = entries(array)
    return [es[c] for c in sorted(es, key=lambda c: (c[1], c[0])) if c[1] == j]


def is_zero_sum(line: list[GroupElement]) -> bool:
    total = zero(line[0].spec)
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


def check_compatibility_parity(m: int, n: int, s: int, k: int, t: int) -> bool:
    """Necessary parity condition for compatible simple orderings of an H_t(m,n;s,k)."""
    if m % 2 == 1 and n % 2 == 1 and s % 2 == 1 and k % 2 == 1:
        return True
    if m % 2 == 1 and n % 2 == 0 and k % 2 == 0:
        return True
    if n % 2 == 1 and m % 2 == 0 and t % 2 == 0:
        return True
    return False
