"""The residue-level verifiers against the object-level reference in heffter_oracle."""

import json
import random
from functools import lru_cache
from math import gcd
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

import heffter_oracle as oracle
from group_oracle import GroupElement
from pfarray_oracle import build_B, element, entries, from_elements
from relheffter.constructions import FAMILIES, build_archdeacon_composite, build_h_n_3
from relheffter.group import GroupSpec
from relheffter.heffter import (
    HeffterParams,
    verify_archdeacon,
    verify_integer,
    verify_relative_heffter,
)
from relheffter.orderings import is_globally_simple
from relheffter.pfarray import PFArray

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
Z51xZ3 = ("fixture", "archdeacon_8x8_z51xz3.json")
Z60xZ3 = ("fixture", "archdeacon_7x7_z60xz3.json")
CASES = [("h-n-3", 3), ("h-n-3", 5), ("h-2n-3", 3), ("h-2n-3", 5), ("h7", 7), ("h9", 11),
         ("B", 5), ("composite", 5), Z51xZ3, Z60xZ3]
KINDS = ["duplicate", "pm-pair", "subgroup", "self-negative", "modular-sum",
         "integer-sum", "non-simple", "count"]


@lru_cache(maxsize=None)
def instance(family: str, n):
    """The array and, for a Heffter family, its parameters."""
    if family == "fixture":
        return PFArray.from_json(json.loads((FIXTURES / n).read_text())), None
    if family == "B":
        return build_B(n, n, 4, 1, 3, 2, 4), None
    if family == "composite":
        return build_archdeacon_composite(build_h_n_3(n), 3), None
    fam = FAMILIES[family]
    return fam.builder(n), HeffterParams.square(n, fam.k, fam.t(n))


def outcome(f, *args):
    """The JSON report (or boolean) of f(*args), or the type and message of the
    ValueError it raised."""
    try:
        result = f(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return result if isinstance(result, bool) else result.to_json()


def assert_agree(array: PFArray, params: HeffterParams | None) -> None:
    if params is not None:
        for kernel, reference in ((verify_relative_heffter, oracle.verify_relative_heffter),
                                  (verify_integer, oracle.verify_integer)):
            assert outcome(kernel, array, params) == outcome(reference, array, params)
    assert outcome(verify_archdeacon, array) == outcome(oracle.verify_archdeacon, array)
    assert is_globally_simple(array) == oracle.is_globally_simple(array)


def perturb(array: PFArray, params: HeffterParams | None, kind: str,
            rng: random.Random) -> PFArray:
    """One planted defect of the given kind (a no-op where the group has none)."""
    orders = array.spec.orders
    elements = entries(array)
    cells = sorted(elements)
    a, b = rng.sample(cells, 2)
    value = elements[a].coords
    if kind == "duplicate":
        value = elements[b].coords
    elif kind == "pm-pair":
        value = tuple(-x for x in elements[b].coords)
    elif kind == "subgroup":
        if params is None:
            value = (0,) * len(orders)
        else:
            value = (rng.randrange(params.t) * (params.v // params.t),)
    elif kind == "self-negative":
        value = tuple(o // 2 for o in orders)
    elif kind == "modular-sum":
        value = (value[0] + 1,) + value[1:]
    elif kind == "integer-sum":
        # a unit keeps every modular condition and moves the integer sums
        u = next(u for u in (2, 3, 5, 7, 11, 13) if all(gcd(u, o) == 1 for o in orders))
        return from_elements(array.m, array.n, array.spec, {
            cell: element(array.spec, *(u * x for x in e.coords)) for cell, e in elements.items()
        })
    elif kind == "non-simple":
        # two adjacent cells after the first of a row cancel: s_{i-1} = s_{i+1}
        row = [cell for cell in cells if cell[0] == a[0]]
        if len(row) > 2:
            i = min(max(row.index(a), 1), len(row) - 2)
            a, value = row[i + 1], tuple(-x for x in elements[row[i]].coords)
    elif kind == "count":
        del elements[a]
        return from_elements(array.m, array.n, array.spec, elements)
    elements[a] = element(array.spec, *value)
    return from_elements(array.m, array.n, array.spec, elements)


@given(case=st.sampled_from(CASES), kinds=st.lists(st.sampled_from(KINDS), max_size=3),
       seed=st.integers(0, 2**32 - 1))
@example(case=Z51xZ3, kinds=[], seed=0)
@example(case=Z60xZ3, kinds=["pm-pair", "non-simple"], seed=1)
@example(case=("h-2n-3", 3), kinds=["self-negative"], seed=2)
@example(case=("h7", 7), kinds=["integer-sum"], seed=3)
@settings(max_examples=60, deadline=None)
def test_verifiers_match_oracle(case, kinds, seed):
    rng = random.Random(seed)
    array, params = instance(*case)
    for kind in kinds:
        array = perturb(array, params, kind, rng)
    assert_agree(array, params)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_random_arrays_match_oracle(data):
    """Arbitrary fillings, including empty and ragged lines, and parameters that
    need not fit the array (t not dividing v raises on both sides)."""
    m, n, s, k, t = (data.draw(st.integers(1, hi)) for hi in (4, 4, 4, 4, 8))
    params = HeffterParams(m, n, s, k, t)
    orders = data.draw(st.sampled_from([(params.v,), (2, 3), (4, 2), (3, 3, 2)]))
    cells = data.draw(st.sets(st.tuples(st.integers(1, m), st.integers(1, n))))
    values = [tuple(data.draw(st.integers(0, o - 1)) for o in orders) for _ in cells]
    spec = GroupSpec(orders)
    array = from_elements(m, n, spec,
                          {c: GroupElement(spec, x) for c, x in zip(sorted(cells), values)})
    assert_agree(array, params if len(orders) == 1 else None)
