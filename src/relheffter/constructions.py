"""Direct constructions of globally simple relative Heffter arrays and Archdeacon composites."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .group import GroupSpec
from .pfarray import (
    Cell,
    DiagSpec,
    PFArray,
    Skeleton,
    classify_diagonals,
    cyclic_row_shift,
    cyclic_runs,
    diag,
    direct_sum,
    skeleton_from_diagonals,
)


def _apply(array: PFArray, procedures: list[DiagSpec]) -> PFArray:
    for d in procedures:
        array = diag(array, d)
    return array


def _ad_hoc(array: PFArray, cells: dict[Cell, int]) -> PFArray:
    return array.with_entries(
        {cell: array.spec.element(value) for cell, value in cells.items()}
    )


def build_h_n_3(n: int) -> PFArray:
    """An integer cyclically 3-diagonal H_n(n; 3) over Z_{7n}, n odd >= 3."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 3, got {n}")
    array = PFArray(n, n, GroupSpec.cyclic(7 * n))
    return _apply(array, [
        DiagSpec(1, 1, -(7 * n - 9) // 2, 1, 7, n),
        DiagSpec(1, 2, (7 * n - 3) // 2, 2, -7, (n + 1) // 2),
        DiagSpec(2, 3, -5, 2, -7, (n - 1) // 2),
        DiagSpec(2, 1, (7 * n - 13) // 2, 2, -7, (n + 1) // 2),
        DiagSpec(3, 2, -10, 2, -7, (n - 1) // 2),
    ])


def h_n_3_support(n: int) -> set[int]:
    return set(range(1, (7 * n - 1) // 2 + 1)) - set(range(7, 7 * n // 2, 7))


def build_h_2n_3(n: int) -> PFArray:
    """An integer cyclically 3-diagonal H_2n(n; 3) over Z_{8n}, n odd >= 3."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 3, got {n}")
    array = PFArray(n, n, GroupSpec.cyclic(8 * n))
    return _apply(array, [
        DiagSpec(1, 1, -(4 * n - 5), 1, 8, n),
        DiagSpec(1, 2, 4 * n - 2, 2, -8, (n + 1) // 2),
        DiagSpec(2, 3, -6, 2, -8, (n - 1) // 2),
        DiagSpec(2, 1, 4 * n - 7, 2, -8, (n + 1) // 2),
        DiagSpec(3, 2, -11, 2, -8, (n - 1) // 2),
    ])


def h_2n_3_support(n: int) -> set[int]:
    return set(range(1, 4 * n)) - set(range(4, 4 * n - 3, 4))


def build_h7(n: int) -> PFArray:
    """An integer cyclically 7-diagonal globally simple H_7(n; 7) over Z_{14n+7},
    n = 3 (mod 4), n >= 7."""
    if n < 7 or n % 4 != 3:
        raise ValueError(f"n must be 3 (mod 4) and >= 7, got {n}")
    array = PFArray(n, n, GroupSpec.cyclic(14 * n + 7))
    array = _apply(array, [
        DiagSpec(3, 3, -(n + 1) // 2, 2, -1, (n - 1) // 2),
        DiagSpec(4, 4, 1, 2, 1, (n - 3) // 2),
        DiagSpec(n - 2, n - 1, -(5 * n + 3), 2, -1, n),
        DiagSpec(2, 1, -(4 * n + 3), 2, -1, n),
        DiagSpec(1, 3, (7 * n + 3) // 4, 4, 1, (n + 1) // 4),
        DiagSpec(2, 4, (3 * n + 1) // 2, 4, -1, (n + 1) // 4),
        DiagSpec(3, 5, (11 * n + 7) // 4, 4, 1, (n + 1) // 4),
        DiagSpec(4, 6, (5 * n + 1) // 2, 4, -1, (n - 3) // 4),
        DiagSpec(3, 1, -(9 * n + 5) // 4, 4, 1, (n + 1) // 4),
        DiagSpec(4, 2, -(5 * n + 3) // 2, 4, -1, (n + 1) // 4),
        DiagSpec(5, 3, -(5 * n + 1) // 4, 4, 1, (n + 1) // 4),
        DiagSpec(6, 4, -(3 * n + 3) // 2, 4, -1, (n - 3) // 4),
        DiagSpec(n - 2, 1, 6 * n + 4, 2, 1, n),
        DiagSpec(2, n - 1, 3 * n + 2, 2, 1, n),
    ])
    return _ad_hoc(array, {(1, 1): n, (2, 2): -(n - 1) // 2})


def h7_support(n: int) -> set[int]:
    return set(range(1, 7 * n + 4)) - {2 * n + 1, 4 * n + 2, 6 * n + 3}


def build_h9(n: int) -> PFArray:
    """An integer 9-diagonal globally simple H_9(n; 9) over Z_{18n+9} with empty
    strips of width (n-9)/2; n = 3 (mod 4), n >= 11."""
    if n < 11 or n % 4 != 3:
        raise ValueError(f"n must be 3 (mod 4) and >= 11, got {n}")
    half = (n + 1) // 2
    array = PFArray(n, n, GroupSpec.cyclic(18 * n + 9))
    array = _apply(array, [
        DiagSpec(3, 1, 5 * n + 3, 1, 1, n),
        DiagSpec(4, 1, -(6 * n + 4), 1, -1, n),
        DiagSpec(3, 6, -(7 * n + 4), 1, -1, n),
        DiagSpec(4, 6, 8 * n + 5, 1, 1, n),
        DiagSpec(1, half + 1, -2 * n, 1, 2, (n - 1) // 2),
        DiagSpec(half + 1, 1, 2 * n + 2, 1, 2, (n - 1) // 2),
        DiagSpec(2, 2, -(n - 2), 1, 1, (n - 3) // 2),
        DiagSpec(half + 1, 2, -(2 * n + 3), 1, -2, (n - 3) // 2),
        DiagSpec(2, half + 1, 2 * n - 1, 1, -2, (n - 3) // 2),
        DiagSpec(half + 1, half + 1, (n - 3) // 2, 1, -1, (n - 5) // 2),
        DiagSpec(2, 1, -(3 * n + 4), 2, -1, (n + 1) // 4),
        DiagSpec(1, 2, 5 * n, 2, -1, (n + 1) // 4),
        DiagSpec(3, 2, -(4 * n + 3), 2, -1, (n - 3) // 4),
        DiagSpec(2, 3, 4 * n + 1, 2, -1, (n - 3) // 4),
        DiagSpec(half, half + 1, (17 * n + 9) // 4, 2, 1, (n - 3) // 4),
        DiagSpec(half + 1, half, -(15 * n + 7) // 4, 2, 1, (n - 3) // 4),
        DiagSpec(half + 1, half + 2, (13 * n + 17) // 4, 2, 1, (n - 3) // 4),
        DiagSpec(half + 2, half + 1, -(19 * n - 1) // 4, 2, 1, (n - 3) // 4),
    ])
    return _ad_hoc(array, {
        (1, 1): n - 1,
        (1, half): n + 2,
        (1, n): -(5 * n + 1),
        (half, 1): -3 * n,
        (half, half): n,
        (half, n): n + 1,
        (n - 1, n - 1): -(n - 1) // 2,
        (n - 1, n): 5 * n + 2,
        (n, 1): 3 * n + 3,
        (n, half): -(3 * n + 1),
        (n, n - 1): -(3 * n + 2),
        (n, n): 1,
    })


def h9_support(n: int) -> set[int]:
    return set(range(1, 9 * n + 5)) - {2 * n + 1, 4 * n + 2, 6 * n + 3, 8 * n + 4}


@dataclass(frozen=True)
class Family:
    """A direct family of integer globally simple H_t(n; k) over Z_{2nk+t}."""

    name: str
    builder: Callable[[int], PFArray]
    support: Callable[[int], set[int]]
    k: int
    t: Callable[[int], int]
    admissible: Callable[[int], bool]


FAMILIES = {f.name: f for f in (
    Family("h-n-3", build_h_n_3, h_n_3_support, 3,
           lambda n: n, lambda n: n >= 3 and n % 2 == 1),
    Family("h-2n-3", build_h_2n_3, h_2n_3_support, 3,
           lambda n: 2 * n, lambda n: n >= 3 and n % 2 == 1),
    Family("h7", build_h7, h7_support, 7, lambda n: 7, lambda n: n >= 7 and n % 4 == 3),
    Family("h9", build_h9, h9_support, 9, lambda n: 9, lambda n: n >= 11 and n % 4 == 3),
)}


def build_B(m: int, n: int, d: int, i1: int, i2: int, j1: int, j2: int) -> PFArray:
    """The four-cell gadget B_{m,n,d}(i1, i2; j1, j2) over Z_d with entries +-1."""
    if d <= 2:
        raise ValueError(f"d must be > 2, got {d}")
    if i1 == i2 or not (1 <= i1 <= m and 1 <= i2 <= m):
        raise ValueError(f"need distinct row indices in [1, {m}], got {i1}, {i2}")
    if j1 == j2 or not (1 <= j1 <= n and 1 <= j2 <= n):
        raise ValueError(f"need distinct column indices in [1, {n}], got {j1}, {j2}")
    spec = GroupSpec.cyclic(d)
    return PFArray(m, n, spec, {
        (i1, j1): spec.element(1),
        (i2, j2): spec.element(1),
        (i2, j1): spec.element(-1),
        (i1, j2): spec.element(-1),
    })


def relabel_to_leading_diagonals(array: PFArray) -> PFArray:
    """Cyclically shift rows so the k consecutive filled diagonals become D_1..D_k."""
    report = classify_diagonals(array)
    if not report.is_cyclically_k_diagonal:
        raise ValueError("array is not cyclically k-diagonal")
    (run,) = cyclic_runs(report.filled_diagonal_indices, array.n)
    return cyclic_row_shift(array, 1 - run[0])


def build_archdeacon_composite(array: PFArray, d: int) -> PFArray:
    """A (+) B_{n,n,d}(1,2;1,2) for a globally simple cyclically k-diagonal
    H_t(n; k) with k < n, relabeled so the filled diagonals are D_1..D_k."""
    if d <= 2:
        raise ValueError(f"d must be > 2, got {d}")
    report = classify_diagonals(array)
    if not report.is_cyclically_k_diagonal:
        raise ValueError("input is not cyclically k-diagonal")
    if len(report.filled_diagonal_indices) >= array.n:
        raise ValueError("need k < n")
    base = relabel_to_leading_diagonals(array)
    gadget = build_B(base.m, base.n, d, 1, 2, 1, 2)
    return direct_sum(base, gadget)


def build_skeleton_cor39(n: int, k: int) -> Skeleton:
    """The k-diagonal skeleton with filled diagonals D_1..D_{k-3}, D_{k-1}, D_k,
    D_{k+1}; the Knight's-Tour search input of the small-k biembedding family."""
    if k % 4 != 3 or k < 3:
        raise ValueError(f"k must be 3 (mod 4) and >= 3, got {k}")
    if n % 4 != 1 or n < k:
        raise ValueError(f"n must be 1 (mod 4) and >= k, got {n}")
    return skeleton_from_diagonals(n, cor39_diagonal_indices(k))


def cor39_diagonal_indices(k: int) -> list[int]:
    return list(range(1, k - 2)) + [k - 1, k, k + 1]
