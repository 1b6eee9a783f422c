"""Direct constructions of globally simple relative Heffter arrays and Archdeacon composites."""

from __future__ import annotations

from typing import Callable, NamedTuple

from .group import GroupSpec
from .pfarray import (
    Cell,
    DiagSpec,
    PFArray,
    Skeleton,
    classify_diagonals,
    cyclic_runs,
    fill_diagonals,
    skeleton_from_diagonals,
)


def _build(n: int, v: int, procedures: list[DiagSpec],
           ad_hoc: dict[Cell, int] | None = None) -> PFArray:
    """The n x n array over Z_v filled by the diag procedures and then the ad hoc
    cells, each a diag procedure of length 1, in one pass."""
    cells = [DiagSpec(r, c, x, 0, 0, 1) for (r, c), x in (ad_hoc or {}).items()]
    return fill_diagonals(n, v, procedures + cells)


def _build_h3(n: int, d: int) -> PFArray:
    """The integer cyclically 3-diagonal H_t(n; 3) over Z_{dn}, t = (d - 6)n, for
    d = 7 (t = n) and d = 8 (t = 2n); n odd >= 3."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 3, got {n}")
    h = d * (n - 1) // 2
    return _build(n, d * n, [
        DiagSpec(1, 1, 1 - h, 1, d, n),
        DiagSpec(1, 2, h + 2, 2, -d, (n + 1) // 2),
        DiagSpec(2, 3, 2 - d, 2, -d, (n - 1) // 2),
        DiagSpec(2, 1, h - 3, 2, -d, (n + 1) // 2),
        DiagSpec(3, 2, -d - 3, 2, -d, (n - 1) // 2),
    ])


def build_h_n_3(n: int) -> PFArray:
    """An integer cyclically 3-diagonal H_n(n; 3) over Z_{7n}, n odd >= 3."""
    return _build_h3(n, 7)


def build_h_2n_3(n: int) -> PFArray:
    """An integer cyclically 3-diagonal H_2n(n; 3) over Z_{8n}, n odd >= 3."""
    return _build_h3(n, 8)


def build_h7(n: int) -> PFArray:
    """An integer cyclically 7-diagonal globally simple H_7(n; 7) over Z_{14n+7},
    n = 3 (mod 4), n >= 7."""
    if n < 7 or n % 4 != 3:
        raise ValueError(f"n must be 3 (mod 4) and >= 7, got {n}")
    return _build(n, 14 * n + 7, [
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
    ], {(1, 1): n, (2, 2): -(n - 1) // 2})


def build_h9(n: int) -> PFArray:
    """An integer 9-diagonal globally simple H_9(n; 9) over Z_{18n+9} with empty
    strips of width (n-9)/2; n = 3 (mod 4), n >= 11."""
    if n < 11 or n % 4 != 3:
        raise ValueError(f"n must be 3 (mod 4) and >= 11, got {n}")
    half = (n + 1) // 2
    return _build(n, 18 * n + 9, [
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
    ], {
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


class Family(NamedTuple):
    """A direct family of integer globally simple H_t(n; k) over Z_{2nk+t}."""

    name: str
    builder: Callable[[int], PFArray]
    k: int
    t: Callable[[int], int]
    admissible: Callable[[int], bool]


FAMILIES = {f.name: f for f in (
    Family("h-n-3", build_h_n_3, 3, lambda n: n, lambda n: n >= 3 and n % 2 == 1),
    Family("h-2n-3", build_h_2n_3, 3, lambda n: 2 * n, lambda n: n >= 3 and n % 2 == 1),
    Family("h7", build_h7, 7, lambda n: 7, lambda n: n >= 7 and n % 4 == 3),
    Family("h9", build_h9, 9, lambda n: 9, lambda n: n >= 11 and n % 4 == 3),
)}


def build_archdeacon_composite(array: PFArray, d: int) -> PFArray:
    """A (+) B_{n,n,d}(1,2;1,2) over G x Z_d for a globally simple cyclically
    k-diagonal H_t(n; k) over G with k < n, its rows shifted so that the filled
    diagonals are D_1..D_k. The code of (x, y) in G x Z_d is x * d + y, so one
    pass shifts the rows and multiplies each code by d, and B's cells add their
    entries: 1 at (1, 1) and (2, 2), -1 at (1, 2) and (2, 1)."""
    if d <= 2:
        raise ValueError(f"d must be > 2, got {d}")
    report = classify_diagonals(array)
    if not report.is_cyclically_k_diagonal:
        raise ValueError("input is not cyclically k-diagonal")
    n = array.n
    if len(report.filled_diagonal_indices) >= n:
        raise ValueError("need k < n")
    # row r moves to row r + 1 - run[0]: the one run of filled diagonals becomes D_1..D_k
    (run,) = cyclic_runs(report.filled_diagonal_indices, n)
    codes = {((r - run[0]) % n + 1, c): x * d for (r, c), x in array.entry_codes.items()}
    for cell, y in (((1, 1), 1), ((2, 2), 1), ((1, 2), d - 1), ((2, 1), d - 1)):
        codes[cell] = codes.get(cell, 0) + y
    return PFArray(n, n, GroupSpec(array.spec.orders + (d,)), codes)


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
