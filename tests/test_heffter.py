"""Verifiers: relative/integer Heffter conditions, necessary conditions, Archdeacon arrays."""

import pytest
from hypothesis import given, strategies as st

from relheffter.constructions import build_h_n_3
from relheffter.group import GroupSpec
from relheffter.heffter import (
    HeffterParams,
    check_compatibility_parity,
    check_necessary_conditions,
    check_support,
    necessary_conditions_pass,
    skeleton_parity_ok,
    verify_archdeacon,
    verify_integer,
    verify_relative_heffter,
)
from relheffter.pfarray import PFArray


def small_heffter():
    """H_3(3;3) over Z_21 via the direct construction (independently verified)."""
    return build_h_n_3(3)


def perturb(array, cell, value):
    entries = dict(array.entries)
    entries[cell] = array.spec.element(value)
    return PFArray(array.m, array.n, array.spec, entries)


def test_params():
    p = HeffterParams.square(9, 3, 9)
    assert (p.m, p.n, p.s, p.k, p.v) == (9, 9, 3, 3, 63)
    assert p.check_trivial() == []
    assert HeffterParams(3, 3, 3, 3, 4).check_trivial() == ["t=4 does not divide 2nk=18"]
    assert HeffterParams(3, 4, 5, 3, 24).check_trivial() == ["nk=12 != ms=15", "s=5 outside [3, n=4]"]


def test_valid_array_passes():
    a = small_heffter()
    assert verify_relative_heffter(a, HeffterParams.square(3, 3, 3)).valid
    assert verify_integer(a, HeffterParams.square(3, 3, 3)).valid


def test_row_sum_violation_flagged():
    a = small_heffter()
    cell = min(a.entries)
    bad = perturb(a, cell, a.entries[cell].coords[0] + 1)
    report = verify_relative_heffter(bad, HeffterParams.square(3, 3, 3))
    assert "row-sum" in report.tags and "col-sum" in report.tags


def test_subgroup_hit_flagged():
    a = small_heffter()
    # 7 generates the order-3 subgroup of Z_21
    bad = perturb(a, min(a.entries), 7)
    report = verify_relative_heffter(bad, HeffterParams.square(3, 3, 3))
    assert "subgroup-hit" in report.tags


def test_coverage_violation_flagged():
    a = small_heffter()
    cells = sorted(a.entries)
    # duplicate an existing entry and plant a +-pair
    bad = perturb(a, cells[0], a.entries[cells[1]].coords[0])
    report = verify_relative_heffter(bad, HeffterParams.square(3, 3, 3))
    assert "duplicate" in report.tags
    bad = perturb(a, cells[0], -a.entries[cells[1]].coords[0])
    report = verify_relative_heffter(bad, HeffterParams.square(3, 3, 3))
    assert "coverage" in report.tags


def test_self_negative_entry_flagged():
    # 14 = -14 in Z_28: |+-E(A)| silently drops below 2nk without a +- pair
    spec = GroupSpec.cyclic(28)
    values = list(range(1, 12)) + [14]
    a = PFArray(3, 4, spec, {
        (i, j): spec.element(values[(i - 1) * 4 + (j - 1)])
        for i in range(1, 4) for j in range(1, 5)
    })
    report = verify_relative_heffter(a, HeffterParams(3, 4, 4, 3, 4))
    assert any("self-negative" in msg for tag, msg in report.violations if tag == "coverage")


def test_fill_count_violations():
    a = small_heffter()
    entries = dict(a.entries)
    del entries[min(entries)]
    report = verify_relative_heffter(
        PFArray(3, 3, a.spec, entries), HeffterParams.square(3, 3, 3)
    )
    assert "row-count" in report.tags and "col-count" in report.tags


def test_integer_violation_without_modular_violation():
    # scaling by a unit of Z_21 preserves every modular condition but breaks
    # the integer row/column sums
    a = small_heffter()
    scaled = PFArray(a.m, a.n, a.spec, {
        cell: a.spec.element(e.coords[0] * 2) for cell, e in a.entries.items()
    })
    report = verify_integer(scaled, HeffterParams.square(3, 3, 3))
    assert report.tags == {"integer-sum"}


def test_check_support():
    assert check_support(small_heffter(), {1, 2, 3, 4, 5, 6, 8, 9, 10}).valid
    assert not check_support(small_heffter(), {1, 2, 3}).valid


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
    assert not necessary_conditions_pass(5, 3, 30)
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
    return PFArray(3, 3, spec, {
        (i, j): spec.element(x)
        for i, row in enumerate(rows, 1) for j, x in enumerate(row, 1)
    })


def test_archdeacon_valid():
    assert verify_archdeacon(archdeacon_example()).valid


def test_archdeacon_zero_entry_has_distinct_tag():
    spec = GroupSpec.cyclic(9)
    a = PFArray(1, 4, spec, {(1, 1): spec.element(0), (1, 2): spec.element(1),
                             (1, 3): spec.element(2), (1, 4): spec.element(6)})
    report = verify_archdeacon(a)
    assert "zero-entry" in report.tags
    assert "antisymmetric" not in report.tags


def test_archdeacon_negative_pair_flagged():
    spec = GroupSpec.cyclic(9)
    a = PFArray(2, 2, spec, {(1, 1): spec.element(4), (1, 2): spec.element(5),
                             (2, 1): spec.element(5), (2, 2): spec.element(4)})
    report = verify_archdeacon(a)
    assert "antisymmetric" in report.tags and "duplicate" in report.tags


def test_archdeacon_empty_rows_vacuous():
    spec = GroupSpec.cyclic(13)
    a = PFArray(3, 3, spec, {
        (1, 1): spec.element(1), (1, 2): spec.element(3), (1, 3): spec.element(9),
        (3, 1): spec.element(2), (3, 2): spec.element(5), (3, 3): spec.element(6),
    })
    report = verify_archdeacon(a)
    assert report.tags == {"col-sum"}  # all columns fail; empty row 2 passes vacuously


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
    a = PFArray(2, 2, spec, {(1, 1): spec.element(1), (2, 2): spec.element(2)})
    assert not skeleton_parity_ok(a)  # 2 filled vs 2+2-1 odd
    # no obstruction when a row or column is empty, for arrays and skeletons
    empty_row = PFArray(2, 2, spec, {(1, 1): spec.element(1), (1, 2): spec.element(2)})
    assert skeleton_parity_ok(empty_row) and skeleton_parity_ok(empty_row.skeleton)
    assert not skeleton_parity_ok(a.skeleton)
