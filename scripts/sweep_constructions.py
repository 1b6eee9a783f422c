#!/usr/bin/env python3
"""Sweep the direct construction families over a range of sizes and report
verification, support, diagonal structure, and global simplicity."""

import argparse
import sys
import time

from relheffter.constructions import FAMILIES
from relheffter.heffter import HeffterParams, verify_integer
from relheffter.orderings import is_globally_simple
from relheffter.pfarray import classify_diagonals, support


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--families", nargs="+", default=list(FAMILIES),
                        choices=list(FAMILIES))
    parser.add_argument("--max-n", type=int, default=103)
    args = parser.parse_args()

    failures = 0
    for name in args.families:
        fam = FAMILIES[name]
        t0 = time.time()
        count = 0
        for n in range(3, args.max_n + 1):
            if not fam.admissible(n):
                continue
            a = fam.builder(n)
            report = verify_integer(a, HeffterParams.square(n, fam.k, fam.t(n)))
            ok = (report.valid
                  and support(a) == fam.support(n)
                  and is_globally_simple(a)
                  and classify_diagonals(a).is_k_diagonal)
            count += 1
            if not ok:
                failures += 1
                print(f"{name} n={n}: FAIL {report.to_json()}")
        print(f"{name}: {count} sizes verified in {time.time() - t0:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
