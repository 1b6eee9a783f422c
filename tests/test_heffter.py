"""Verifiers: relative/integer Heffter conditions, necessary conditions, Archdeacon arrays."""

import pytest
from hypothesis import given, strategies as st

import pfarray_oracle
from heffter_oracle import check_compatibility_parity, check_necessary_conditions, tags
from pfarray_oracle import element, from_elements
from relheffter.constructions import build_h_n_3
from relheffter.group import GroupSpec
from relheffter.heffter import (
    HeffterParams,
    verify_archdeacon,
    verify_integer,
    verify_relative_heffter,
)
from relheffter.orderings import skeleton_parity_ok


def small_heffter():
    """H_3(3;3) over Z_21 via the direct construction (independently verified)."""
    return build_h_n_3(3)


def check_trivial(p: HeffterParams) -> list[str]:
    """The trivial necessary conditions on (m, n, s, k, t); empty when they all hold."""
    problems = []
    if (2 * p.n * p.k) % p.t != 0:
        problems.append(f"t={p.t} does not divide 2nk={2 * p.n * p.k}")
    if p.n * p.k != p.m * p.s:
        problems.append(f"nk={p.n * p.k} != ms={p.m * p.s}")
    if not 3 <= p.s <= p.n:
        problems.append(f"s={p.s} outside [3, n={p.n}]")
    if not 3 <= p.k <= p.m:
        problems.append(f"k={p.k} outside [3, m={p.m}]")
    return problems


def perturb(array, cell, value):
    entries = pfarray_oracle.entries(array)
    entries[cell] = element(array.spec, value)
    return from_elements(array.m, array.n, array.spec, entries)


def test_params():
    p = HeffterParams.square(9, 3, 9)
    assert (p.m, p.n, p.s, p.k, p.v) == (9, 9, 3, 3, 63)
    assert check_trivial(p) == []
    assert check_trivial(HeffterParams(3, 3, 3, 3, 4)) == ["t=4 does not divide 2nk=18"]
    assert check_trivial(HeffterParams(3, 4, 5, 3, 24)) == [
        "nk=12 != ms=15", "s=5 outside [3, n=4]"]


def test_valid_array_passes():
    a = small_heffter()
    assert verify_relative_heffter(a, HeffterParams.square(3, 3, 3)).valid
    assert verify_integer(a, HeffterParams.square(3, 3, 3)).valid


def test_row_sum_violation_flagged():
    a = small_heffter()
    cell = min(a.entry_codes)
    bad = perturb(a, cell, a.entry_codes[cell] + 1)  # codes of Z_21: the residues
    report = verify_relative_heffter(bad, HeffterParams.square(3, 3, 3))
    assert "row-sum" in tags(report) and "col-sum" in tags(report)


def test_subgroup_hit_flagged():
    a = small_heffter()
    # 7 generates the order-3 subgroup of Z_21
    bad = perturb(a, min(a.entry_codes), 7)
    report = verify_relative_heffter(bad, HeffterParams.square(3, 3, 3))
    assert "subgroup-hit" in tags(report)


def test_coverage_violation_flagged():
    a = small_heffter()
    cells = sorted(a.entry_codes)
    # duplicate an existing entry and plant a +-pair
    bad = perturb(a, cells[0], a.entry_codes[cells[1]])
    report = verify_relative_heffter(bad, HeffterParams.square(3, 3, 3))
    assert "duplicate" in tags(report)
    bad = perturb(a, cells[0], -a.entry_codes[cells[1]])
    report = verify_relative_heffter(bad, HeffterParams.square(3, 3, 3))
    assert "coverage" in tags(report)


def test_self_negative_entry_flagged():
    # 14 = -14 in Z_28: |+-E(A)| silently drops below 2nk without a +- pair
    spec = GroupSpec.cyclic(28)
    values = list(range(1, 12)) + [14]
    a = from_elements(3, 4, spec, {
        (i, j): element(spec, values[(i - 1) * 4 + (j - 1)])
        for i in range(1, 4) for j in range(1, 5)
    })
    report = verify_relative_heffter(a, HeffterParams(3, 4, 4, 3, 4))
    assert any("self-negative" in msg for tag, msg in report.violations if tag == "coverage")


def test_fill_count_violations():
    a = small_heffter()
    entries = pfarray_oracle.entries(a)
    del entries[min(entries)]
    report = verify_relative_heffter(
        from_elements(3, 3, a.spec, entries), HeffterParams.square(3, 3, 3)
    )
    assert "row-count" in tags(report) and "col-count" in tags(report)


def test_integer_violation_without_modular_violation():
    # scaling by a unit of Z_21 preserves every modular condition but breaks
    # the integer row/column sums
    a = small_heffter()
    scaled = from_elements(a.m, a.n, a.spec, {
        cell: element(a.spec, x * 2) for cell, x in a.entry_codes.items()
    })
    report = verify_integer(scaled, HeffterParams.square(3, 3, 3))
    assert tags(report) == {"integer-sum"}


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        verify_relative_heffter(small_heffter(), HeffterParams.square(4, 3, 3))


# -- necessary conditions ------------------------------------------------


def test_necessary_conditions_cases():
    assert check_necessary_conditions(9, 3, 9) == {
        "divides-nk": "pass", "t-equals-2nk": "not-applicable", "mod-8": "not-applicable",
    }
    assert check_necessary_conditions(4, 3, 8) == {
        "divides-nk": "not-applicable", "t-equals-2nk": "not-applicable", "mod-8": "pass",
    }
    # t = 2nk with odd k fails
    assert check_necessary_conditions(5, 3, 30)["t-equals-2nk"] == "fail"
    # k = t = 5, n = 5 over Z_55: the support {1, ..., 27} minus {11, 22} sums
    # to 345, an odd number, so no integer H_5(5; 5) exists
    assert check_necessary_conditions(5, 5, 5)["divides-nk"] == "fail"
    assert "fail" in check_necessary_conditions(5, 5, 5).values()
    assert "fail" in check_necessary_conditions(5, 3, 30).values()
    with pytest.raises(ValueError):
        check_necessary_conditions(9, 3, 5)  # t does not divide 2nk


@given(st.integers(3, 25), st.integers(3, 25), st.data())
def test_necessary_conditions_against_direct_oracle(n, k, data):
    if n < k:
        n, k = k, n
    divisors = [t for t in range(1, 2 * n * k + 1) if (2 * n * k) % t == 0]
    t = data.draw(st.sampled_from(divisors))
    got = check_necessary_conditions(n, k, t)
    nk = n * k
    if nk % t == 0:
        expected = nk % 4 == 0 or (nk % 4 in (1, 3) and (nk + t) % 4 == 0)
        assert got["divides-nk"] == ("pass" if expected else "fail")
    if t == 2 * nk:
        assert got["t-equals-2nk"] == ("pass" if k % 2 == 0 else "fail")
    if t != 2 * nk and nk % t != 0:
        assert got["mod-8"] == ("pass" if (t + 2 * nk) % 8 == 0 else "fail")
    assert sum(v != "not-applicable" for v in got.values()) >= 1


# -- Archdeacon ----------------------------------------------------------


def archdeacon_example():
    """Zero row/column sums over Z_23, distinct entries, no +- pair."""
    spec = GroupSpec.cyclic(23)
    rows = [[1, 2, 20], [4, 9, 10], [18, 12, 16]]
    return from_elements(3, 3, spec, {
        (i, j): element(spec, x)
        for i, row in enumerate(rows, 1) for j, x in enumerate(row, 1)
    })


def test_archdeacon_valid():
    assert verify_archdeacon(archdeacon_example()).valid


def test_archdeacon_zero_entry_has_distinct_tag():
    spec = GroupSpec.cyclic(9)
    a = from_elements(1, 4, spec, {(1, 1): element(spec, 0), (1, 2): element(spec, 1),
                                   (1, 3): element(spec, 2), (1, 4): element(spec, 6)})
    report = verify_archdeacon(a)
    assert "zero-entry" in tags(report)
    assert "antisymmetric" not in tags(report)


def test_archdeacon_negative_pair_flagged():
    spec = GroupSpec.cyclic(9)
    a = from_elements(2, 2, spec, {(1, 1): element(spec, 4), (1, 2): element(spec, 5),
                                   (2, 1): element(spec, 5), (2, 2): element(spec, 4)})
    report = verify_archdeacon(a)
    assert "antisymmetric" in tags(report) and "duplicate" in tags(report)


def test_archdeacon_empty_rows_vacuous():
    spec = GroupSpec.cyclic(13)
    a = from_elements(3, 3, spec, {
        (1, 1): element(spec, 1), (1, 2): element(spec, 3), (1, 3): element(spec, 9),
        (3, 1): element(spec, 2), (3, 2): element(spec, 5), (3, 3): element(spec, 6),
    })
    report = verify_archdeacon(a)
    assert tags(report) == {"col-sum"}  # all columns fail; empty row 2 passes vacuously


# -- ordering parity -----------------------------------------------------


def test_compatibility_parity_clauses():
    assert check_compatibility_parity(3, 3, 3, 3, 3)           # all odd
    assert check_compatibility_parity(3, 4, 3, 4, 1) is True   # m odd, n even, k even
    assert check_compatibility_parity(3, 4, 4, 3, 24) is False  # k odd breaks clause 2
    assert check_compatibility_parity(4, 3, 3, 4, 2) is True   # n odd, m even, t even
    assert check_compatibility_parity(4, 4, 4, 4, 4) is False
    assert check_compatibility_parity(4, 3, 3, 4, 1) is False  # t odd breaks clause 3


def test_skeleton_parity():
    assert skeleton_parity_ok(small_heffter())  # 9 filled cells, 3+3-1 odd
    spec = GroupSpec.cyclic(50)
    a = from_elements(2, 2, spec, {(1, 1): element(spec, 1), (2, 2): element(spec, 2)})
    assert not skeleton_parity_ok(a)  # 2 filled vs 2+2-1 odd
    # no obstruction when a row or column is empty, for arrays and skeletons
    empty_row = from_elements(2, 2, spec, {(1, 1): element(spec, 1), (1, 2): element(spec, 2)})
    assert skeleton_parity_ok(empty_row) and skeleton_parity_ok(empty_row.skeleton)
    assert not skeleton_parity_ok(a.skeleton)
