"""Group arithmetic: exact values plus algebraic laws."""

import pytest
from hypothesis import given, strategies as st

from group_oracle import GroupElement, decode, elements, encode, neg, total, zero
from heffter_oracle import subgroup_of_order, symmetric_rep
from pfarray_oracle import element
from relheffter.group import GroupError, GroupSpec, sum_elements


def test_cyclic_arithmetic_z21():
    spec = GroupSpec.cyclic(21)
    a, b = element(spec, 17), element(spec, 9)
    assert (a + b).coords == (5,)
    assert (a - b).coords == (8,)
    assert (-a).coords == (4,)
    assert zero(spec).coords == (0,)
    assert total(spec, [a, b, -a, -b]) == zero(spec)
    assert sum_elements(spec, [encode(spec, x) for x in (a, b, -a, -b)]) == 0


def test_direct_sum_arithmetic():
    spec = GroupSpec((51, 3))
    a = element(spec, -9, 1)
    assert a.coords == (42, 1)
    assert a + element(spec, 9, -1) == zero(spec)
    assert (-a).coords == (9, 2)


def test_element_canonicalizes_and_validates():
    spec = GroupSpec.cyclic(7)
    assert element(spec, -1).coords == (6,)
    with pytest.raises(GroupError):
        GroupElement(spec, (7,))
    with pytest.raises(GroupError):
        GroupElement(spec, (1, 2))
    with pytest.raises(GroupError):
        GroupSpec(())


def test_cross_group_operations_rejected():
    a = element(GroupSpec.cyclic(5), 1)
    b = element(GroupSpec.cyclic(7), 1)
    with pytest.raises(GroupError):
        a + b


def test_subgroup_of_order():
    sub = subgroup_of_order(161, 7)
    assert {e.coords[0] for e in sub} == {0, 23, 46, 69, 92, 115, 138}
    assert subgroup_of_order(21, 1) == frozenset({zero(GroupSpec.cyclic(21))})
    with pytest.raises(GroupError):
        subgroup_of_order(10, 3)


def test_subgroup_closure():
    sub = subgroup_of_order(72, 18)
    assert len(sub) == 18
    for a in sub:
        for b in sub:
            assert a + b in sub


def test_symmetric_rep_values():
    spec = GroupSpec.cyclic(161)
    assert symmetric_rep(element(spec, 96)) == -65
    assert symmetric_rep(element(spec, 65)) == 65
    assert symmetric_rep(element(spec, 0)) == 0
    # even order: v/2 maps to +v/2
    assert symmetric_rep(element(GroupSpec.cyclic(10), 5)) == 5
    with pytest.raises(GroupError):
        symmetric_rep(element(GroupSpec((5, 3)), 1, 1))


def test_from_symmetric_inverts():
    assert element(GroupSpec.cyclic(161), -65).coords == (96,)
    assert element(GroupSpec.cyclic(161), 65).coords == (65,)


@st.composite
def spec_and_elements(draw, count=2):
    orders = draw(st.lists(st.integers(1, 30), min_size=1, max_size=3))
    spec = GroupSpec(tuple(orders))
    elems = [
        element(spec, *[draw(st.integers(-100, 100)) for _ in orders])
        for _ in range(count)
    ]
    return spec, elems


@given(spec_and_elements(count=3))
def test_group_laws(data):
    spec, (a, b, c) = data
    assert (a + b) == (b + a)
    assert ((a + b) + c) == (a + (b + c))
    assert (a + zero(spec)) == a
    assert a + (-a) == zero(spec)
    assert neg(neg(a)) == a


@given(st.integers(1, 500), st.integers(-1000, 1000))
def test_symmetric_rep_round_trip(v, x):
    e = element(GroupSpec.cyclic(v), x)
    r = symmetric_rep(e)
    assert -(v // 2) <= r <= v // 2
    assert element(GroupSpec.cyclic(v), r) == e


@given(st.integers(1, 500), st.integers(-1000, 1000))
def test_symmetric_rep_antisymmetry(v, x):
    e = element(GroupSpec.cyclic(v), x)
    r, rn = symmetric_rep(e), symmetric_rep(neg(e))
    if v % 2 == 0 and e.coords[0] == v // 2:
        assert r == rn == v // 2  # the unique self-negative element
    else:
        assert rn == -r


@pytest.mark.parametrize("orders", [(21,), (4,), (51, 3), (35, 4), (7, 3, 4)])
def test_element_codes_match_object_arithmetic(orders):
    spec = GroupSpec(orders)
    codes = spec.codes
    elems = list(elements(spec))
    # mixed radix, first coordinate most significant: codes sort as coordinates
    assert [encode(spec, g) for g in elems] == list(range(spec.size))
    assert [decode(spec, x) for x in range(spec.size)] == elems
    assert [codes.code(g.coords) for g in elems] == list(range(spec.size))
    assert [codes.coords(x) for x in range(spec.size)] == [g.coords for g in elems]
    step = max(1, spec.size // 40)
    sample = range(0, spec.size, step)
    for a in sample:
        g = elems[a]
        assert decode(spec, codes.neg(a)) == -g
        assert codes.order(a) == next(n for n in range(1, spec.size + 1)
                                      if total(spec, [g] * n) == zero(spec))
        for b in sample:
            assert decode(spec, codes.add(a, b)) == g + elems[b]
            assert decode(spec, codes.sub(a, b)) == g - elems[b]
        assert decode(spec, codes.total([a, b, a])) == total(spec, [g, elems[b], g])
        assert sum_elements(spec, [a, b, a]) == encode(spec, total(spec, [g, elems[b], g]))
    with pytest.raises(GroupError):
        codes.code((orders[0],) + (0,) * (len(orders) - 1))
    with pytest.raises(GroupError):
        codes.code((0,) * (len(orders) + 1))


# factors of order 1 have the one coordinate 0
@given(st.lists(st.integers(1, 9), min_size=1, max_size=4).map(tuple), st.data())
def test_columns_match_coords_and_round_trip(orders, data):
    codes = GroupSpec(orders).codes
    assert codes.columns([]) == [[] for _ in orders]
    assert codes.from_columns(codes.columns([])) == []
    xs = data.draw(st.lists(st.integers(0, codes.spec.size - 1), max_size=30))
    columns = codes.columns(xs)
    assert columns == [[codes.coords(x)[i] for x in xs] for i in range(len(orders))]
    assert codes.from_columns(columns) == xs
    coords = data.draw(st.lists(st.tuples(*(st.integers(0, o - 1) for o in orders)), max_size=30))
    columns = [[c[i] for c in coords] for i in range(len(orders))]
    assert codes.from_columns(columns) == [codes.code(c) for c in coords]
    assert codes.columns(codes.from_columns(columns)) == columns


@given(st.lists(st.integers(1, 9), min_size=1, max_size=4).map(tuple), st.data())
def test_totals_match_the_total_of_each_line(orders, data):
    codes = GroupSpec(orders).codes
    lines = data.draw(st.lists(st.lists(st.integers(0, codes.spec.size - 1), max_size=6),
                               max_size=8))
    assert codes.totals(lines) == [codes.total(line) for line in lines]
