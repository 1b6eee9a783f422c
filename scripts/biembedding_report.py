#!/usr/bin/env python3
"""End-to-end biembedding pipeline for a construction family member: build the
array, find a Knight's Tour solution, trace the faces, and certify the
two cycle decompositions."""

import argparse
import json
import sys

from relheffter.constructions import FAMILIES
from relheffter.heffter import HeffterParams, verify_integer
from relheffter.orderings import knight_search
from relheffter.topology import certify_biembedding, heffter_genus_formula


def run(family: str, n: int, emit_faces: bool = False) -> dict:
    entry = FAMILIES[family]
    k, t = entry.k, entry.t(n)
    array = entry.builder(n)
    result = {"family": family, "n": n}
    verification = verify_integer(array, HeffterParams.square(n, k, t))
    if not verification.valid:
        return {**result, "status": "violation", "verification": verification.to_json()}

    solution = knight_search(array)
    if solution is None:
        return {**result, "status": "no-knight-solution"}
    cert = certify_biembedding(array, solution)
    cert.embedding.formula_genus = heffter_genus_formula(n, n, k, k, t)
    result.update(cert.to_json(), t=t, orientation=solution.to_strings(),
                  status="ok" if cert.ok else "violation")
    if emit_faces:
        result["faces"] = [
            [[list(x.coords) for x in e] for e in face] for face in cert.embedding.faces
        ]
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("family", choices=list(FAMILIES))
    parser.add_argument("n", type=int)
    parser.add_argument("--emit-faces", action="store_true")
    args = parser.parse_args()
    result = run(args.family, args.n, args.emit_faces)
    json.dump(result, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0 if result["status"] == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
