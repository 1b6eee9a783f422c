"""Direct constructions: fixture agreement, verification, diagonal structure, composites."""

from collections import Counter
from pathlib import Path

import pytest

import heffter_oracle
import pfarray_oracle
from heffter_oracle import support, symmetric_rep
from pfarray_oracle import build_B
from relheffter.constructions import (
    build_archdeacon_composite,
    FAMILIES,
    build_h7,
    build_h9,
    build_h_2n_3,
    build_h_n_3,
    build_skeleton_cor39,
    cor39_diagonal_indices,
)
from relheffter.heffter import HeffterParams, verify_archdeacon, verify_integer
from relheffter.orderings import is_globally_simple
from relheffter.pfarray import PFArray, classify_diagonals

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# The supports the paper states for the four direct families.
def h_n_3_support(n: int) -> set[int]:
    return set(range(1, (7 * n - 1) // 2 + 1)) - set(range(7, 7 * n // 2, 7))


def h_2n_3_support(n: int) -> set[int]:
    return set(range(1, 4 * n)) - set(range(4, 4 * n - 3, 4))


def h7_support(n: int) -> set[int]:
    return set(range(1, 7 * n + 4)) - {2 * n + 1, 4 * n + 2, 6 * n + 3}


def h9_support(n: int) -> set[int]:
    return set(range(1, 9 * n + 5)) - {2 * n + 1, 4 * n + 2, 6 * n + 3, 8 * n + 4}


STATED_SUPPORTS = {"h-n-3": h_n_3_support, "h-2n-3": h_2n_3_support,
                   "h7": h7_support, "h9": h9_support}


def test_stated_supports_are_the_halves_outside_the_subgroup():
    # An array that passes verify_relative_heffter has nk distinct entries,
    # none in the order-t subgroup H and none the negative of another, so
    # +-E(A) = Z_v \ H and its support is {1..v/2} minus the multiples of v/t:
    # the stated support, which is why sweep does not check it separately.
    assert STATED_SUPPORTS.keys() == FAMILIES.keys()
    for name, family in FAMILIES.items():
        for n in range(1, 200):
            if family.admissible(n):
                v = 2 * n * family.k + family.t(n)
                step = v // family.t(n)
                expected = set(range(1, v // 2 + 1)) - set(range(step, v // 2 + 1, step))
                assert STATED_SUPPORTS[name](n) == expected, (name, n)


@pytest.mark.parametrize("builder,n,v,fixture", [
    (build_h_n_3, 9, 63, "h9_9_3.csv"),
    (build_h_2n_3, 9, 72, "h18_9_3.csv"),
    (build_h7, 11, 161, "h7_11_7.csv"),
    (build_h9, 15, 279, "h9_15_9.csv"),
])
def test_builders_match_fixtures_byte_exactly(builder, n, v, fixture):
    assert builder(n).to_csv() == (FIXTURES / fixture).read_text()


@pytest.mark.parametrize("builder,n,v,fixture", [
    (build_h_n_3, 9, 63, "h9_9_3.csv"),
    (build_h_2n_3, 9, 72, "h18_9_3.csv"),
    (build_h7, 11, 161, "h7_11_7.csv"),
    (build_h9, 15, 279, "h9_15_9.csv"),
])
def test_fixtures_round_trip(builder, n, v, fixture):
    a = PFArray.from_csv((FIXTURES / fixture).read_text(), v)
    assert a == builder(n)


@pytest.mark.parametrize("n", [3, 5, 13, 27])
def test_h_n_3_verifies(n):
    a = build_h_n_3(n)
    assert verify_integer(a, HeffterParams.square(n, 3, n)).valid
    assert support(a) == h_n_3_support(n)
    rep = classify_diagonals(a)
    assert rep.is_cyclically_k_diagonal
    assert rep.filled_diagonal_indices == {1, 2, n}


@pytest.mark.parametrize("n", [3, 5, 13, 27])
def test_h_2n_3_verifies(n):
    a = build_h_2n_3(n)
    assert verify_integer(a, HeffterParams.square(n, 3, 2 * n)).valid
    assert support(a) == h_2n_3_support(n)
    assert classify_diagonals(a).is_cyclically_k_diagonal


@pytest.mark.parametrize("n", [7, 11, 19])
def test_h7_verifies(n):
    a = build_h7(n)
    assert verify_integer(a, HeffterParams.square(n, 7, 7)).valid
    assert support(a) == h7_support(n)
    assert is_globally_simple(a)
    rep = classify_diagonals(a)
    assert rep.is_cyclically_k_diagonal
    assert len(rep.filled_diagonal_indices) == 7


@pytest.mark.parametrize("n", [11, 15, 23])
def test_h9_verifies(n):
    a = build_h9(n)
    assert verify_integer(a, HeffterParams.square(n, 9, 9)).valid
    assert support(a) == h9_support(n)
    assert is_globally_simple(a)
    rep = classify_diagonals(a)
    assert rep.is_k_diagonal
    assert len(rep.filled_diagonal_indices) == 9
    assert set(pfarray_oracle.strip_widths(rep, n)) == {(n - 9) // 2}


def test_h9_15_diagonal_indices():
    rep = classify_diagonals(build_h9(15))
    assert rep.filled_diagonal_indices == {1, 2, 3, 4, 8, 9, 13, 14, 15}


def test_h7_11_first_row():
    row = [symmetric_rep(e) for e in heffter_oracle.row(build_h7(11), 1)]
    assert row == [11, -65, 20, 77, 40, -31, -52]


def test_domain_validation():
    with pytest.raises(ValueError):
        build_h_n_3(4)
    with pytest.raises(ValueError):
        build_h7(6)
    with pytest.raises(ValueError):
        build_h7(9)  # 9 = 1 (mod 4)
    with pytest.raises(ValueError):
        build_h9(7)


def test_build_B():
    b = build_B(5, 5, 4, 1, 3, 2, 4)
    assert {cell: symmetric_rep(e) for cell, e in pfarray_oracle.entries(b).items()} == {
        (1, 2): 1, (3, 4): 1, (3, 2): -1, (1, 4): -1,
    }
    assert heffter_oracle.tags(verify_archdeacon(b)) == {"duplicate", "antisymmetric"}  # rows/cols still sum to 0
    with pytest.raises(ValueError):
        build_B(5, 5, 2, 1, 3, 2, 4)
    with pytest.raises(ValueError):
        build_B(5, 5, 4, 1, 1, 2, 4)


def test_relabel_to_leading_diagonals():
    a = build_h_n_3(7)  # diagonals {1, 2, 7}
    relabeled = pfarray_oracle.relabel_to_leading_diagonals(a)
    assert classify_diagonals(relabeled).filled_diagonal_indices == {1, 2, 3}
    assert sorted(symmetric_rep(e) for e in heffter_oracle.entry_list(relabeled)) == sorted(
        symmetric_rep(e) for e in heffter_oracle.entry_list(a)
    )
    composite = build_archdeacon_composite(a, 3)
    assert composite == pfarray_oracle.direct_sum(relabeled, build_B(7, 7, 3, 1, 2, 1, 2))


def test_archdeacon_composite():
    for d in (3, 4, 5):
        base = build_h_n_3(5)
        comp = build_archdeacon_composite(base, d)
        assert "skeleton" not in vars(base)  # its diagonals are counted off its cells
        assert comp.spec.orders == (35, d)
        assert verify_archdeacon(comp).valid
        assert is_globally_simple(comp)
        # skeleton is D_1 u D_2 u D_3 plus the gadget corner (1, 2)
        base_cells = set()
        for i in (1, 2, 3):
            from relheffter.pfarray import diagonal_cells
            base_cells.update(diagonal_cells(5, i))
        assert set(comp.entry_codes) == base_cells | {(1, 2)}


def test_composite_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_archdeacon_composite(build_h_n_3(5), 2)
    full = build_h_n_3(3)  # 3x3 fully filled: k = n
    with pytest.raises(ValueError):
        build_archdeacon_composite(full, 3)


def test_composite_matches_the_oracle_chain():
    # every admissible family member with n < 60, as built and with its rows
    # shifted by 3: the one-pass composite is the shift, the gadget and the
    # direct sum, and where it refuses a base the chain refuses it with the
    # same text
    def outcome(build, base, d):
        try:
            return build(base, d)
        except ValueError as exc:
            return str(exc)

    built, refused = 0, Counter()
    for family in FAMILIES.values():
        for n in filter(family.admissible, range(1, 60)):
            array = family.builder(n)
            for base in (array, pfarray_oracle.cyclic_row_shift(array, 3)):
                for d in (3, 4, 5):
                    got = outcome(build_archdeacon_composite, base, d)
                    assert got == outcome(pfarray_oracle.archdeacon_composite, base, d)
                    if isinstance(got, str):
                        refused[got] += 1
                    else:
                        built += 1
    # h9 is not cyclically 9-diagonal, and h-n-3, h-2n-3 (n = 3) and h7 (n = 7) have k = n
    assert built == 414
    assert refused == {"input is not cyclically k-diagonal": 13 * 6, "need k < n": 3 * 6}


def test_skeleton_cor39():
    assert cor39_diagonal_indices(3) == [2, 3, 4]
    assert cor39_diagonal_indices(7) == [1, 2, 3, 4, 6, 7, 8]
    skel = build_skeleton_cor39(9, 7)
    assert len(skel.cells) == 63
    assert classify_diagonals(skel).filled_diagonal_indices == {1, 2, 3, 4, 6, 7, 8}
    with pytest.raises(ValueError):
        build_skeleton_cor39(8, 7)
    with pytest.raises(ValueError):
        build_skeleton_cor39(9, 5)
