#!/usr/bin/env python3
"""Search the base window of a k-diagonal family for liftable Knight's Tour
solutions: all rows forward, free column prefix, then lift once to confirm.
The time printed for each size is the CPU time of its search."""

import argparse
import sys
import time
from dataclasses import dataclass, field

from relheffter.orderings import LiftSpec, lift_solution, search_lift_shape


@dataclass
class WindowConfig:
    diagonal_indices: tuple
    start: int
    modulus: int = 4
    residue: int = 1
    lift_check: bool = True
    results: dict = field(default_factory=dict)


def run(config: WindowConfig) -> dict:
    spec = LiftSpec(config.diagonal_indices)
    end = config.start + spec.M
    for n in range(config.start, end + 1):
        if n % config.modulus != config.residue:
            continue
        t0 = time.process_time()
        sol = search_lift_shape(spec, n)
        elapsed = time.process_time() - t0
        if sol is None:
            config.results[n] = None
            print(f"n={n}: no liftable solution ({elapsed:.2f}s)")
            continue
        rows, cols = sol.to_strings()
        note = ""
        if config.lift_check:
            lift_solution(spec, n, sol)  # raises if the enlarged solution fails
            note = f" -> lifts to n={n + spec.M}"
        config.results[n] = sol
        print(f"n={n}: R={rows} C={cols} ({elapsed:.2f}s){note}")
    return config.results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--diagonals", default="1,2,3,4,6,7,8",
                        help="comma-separated diagonal indices l_1 < ... < l_k")
    parser.add_argument("--start", type=int, default=9,
                        help="first size of the window [start, start + M]")
    parser.add_argument("--all-sizes", action="store_true",
                        help="search every n in the window, not just n = 1 (mod 4)")
    parser.add_argument("--no-lift-check", action="store_true")
    args = parser.parse_args()

    indices = tuple(int(x) for x in args.diagonals.split(","))
    config = WindowConfig(
        diagonal_indices=indices,
        start=args.start,
        modulus=1 if args.all_sizes else 4,
        residue=0 if args.all_sizes else 1,
        lift_check=not args.no_lift_check,
    )
    results = run(config)
    missing = [n for n, sol in results.items() if sol is None]
    print(f"window covered: {len(results)} sizes, {len(missing)} without solution")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
