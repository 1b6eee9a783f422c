#!/usr/bin/env python3
"""Search the base window of a k-diagonal family for liftable Knight's Tour
solutions: all rows forward, free column prefix, then lift once to confirm,
as `relheffter knight --search --lift` does. The time printed for each size
is the CPU time of building its skeleton and searching it."""

import argparse
import sys
import time

from relheffter.orderings import LiftSpec, knight_walk, search_lift_shape_on


def run(spec: LiftSpec, start: int, all_sizes: bool) -> dict:
    """Search every size n = 1 (mod 4), or every size, of [start, start + M]."""
    results = {}
    for n in range(start, start + spec.M + 1):
        if not all_sizes and n % 4 != 1:
            continue
        t0 = time.process_time()
        sol = search_lift_shape_on(spec, spec.skeleton(n))
        ms = (time.process_time() - t0) * 1000
        results[n] = sol
        if sol is None:
            print(f"n={n}: no liftable solution ({ms:.1f} ms)")
            continue
        if not knight_walk(spec.skeleton(n + spec.M), spec.lift(n, sol))[1]:
            raise ValueError(f"n={n}: the lift to n={n + spec.M} is not a solution")
        rows, cols = sol.to_strings()
        print(f"n={n}: R={rows} C={cols} ({ms:.1f} ms) -> lifts to n={n + spec.M}")
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--diagonals", default="1,2,3,4,6,7,8",
                        help="comma-separated diagonal indices l_1 < ... < l_k")
    parser.add_argument("--start", type=int, default=9,
                        help="first size of the window [start, start + M]")
    parser.add_argument("--all-sizes", action="store_true",
                        help="search every n in the window, not just n = 1 (mod 4)")
    args = parser.parse_args()

    spec = LiftSpec(tuple(int(x) for x in args.diagonals.split(",")))
    results = run(spec, args.start, args.all_sizes)
    missing = [n for n, sol in results.items() if sol is None]
    print(f"window covered: {len(results)} sizes, {len(missing)} without solution")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
