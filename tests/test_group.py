"""Stabilizer-chain engine: orders, membership, orbits, subgroup operations."""

import itertools
import math
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallbound import (
    PermGroup,
    Permutation,
    StabChain,
    alternating_group,
    block_systems,
    center,
    centralizer,
    commutator_subgroup,
    conjugate_subgroup,
    cyclic_group,
    derived_subgroup,
    dihedral_group,
    direct_product,
    group_from_spec,
    intersection,
    is_normal,
    make_named,
    normal_closure,
    pointwise_stabilizer,
    span,
    symmetric_group,
)
from hallbound import group
from hallbound.errors import CapExceeded, DegreeMismatch
from hallbound.perm import _mul

from conftest import random_permutation


def test_symmetric_group_order_and_membership():
    g = symmetric_group(5)
    assert g.order() == 120
    assert g.contains(Permutation.from_cycles(5, [(0, 1, 2, 3, 4)]))
    assert g.is_transitive()


def test_alternating_group_excludes_odd_permutations():
    g = alternating_group(5)
    assert g.order() == 60
    transposition = Permutation.from_cycles(5, [(0, 1)])
    assert not g.contains(transposition)
    assert g.contains(Permutation.from_cycles(5, [(0, 1, 2)]))


def test_membership_agrees_with_enumeration():
    g = dihedral_group(12)
    members = {p.images for p in g.element_list()}
    assert len(members) == 12
    rng = random.Random(7)
    for _ in range(200):
        x = random_permutation(rng, g.degree)
        assert g.contains(x) == (x.images in members)


def test_element_list_cap_enforced():
    g = symmetric_group(6)
    with pytest.raises(CapExceeded):
        g.element_list(100)


def test_enumerating_operations_respect_the_cap(monkeypatch, s4, a4):
    monkeypatch.setenv("HALLBOUND_CAP", "20")
    with pytest.raises(CapExceeded) as info:
        center(s4)
    assert (info.value.needed, info.value.cap) == (24, 20)
    with pytest.raises(CapExceeded) as info:
        intersection(s4, s4)
    assert info.value.needed == 24
    # intersection enumerates only the smaller group
    assert intersection(s4, a4).order() == 12


def test_orbit_stabilizer_theorem(s4):
    for point in range(s4.degree):
        assert len(s4.orbit(point)) * s4.stabilizer_order(point) == s4.order()


def test_orbits_partition_the_domain():
    g = direct_product(cyclic_group(3), cyclic_group(4))
    orbits = g.orbits()
    assert sorted(pt for orb in orbits for pt in orb) == list(range(g.degree))
    assert [len(o) for o in orbits] == [3, 4]


def test_pointwise_stabilizer(s4):
    stab = pointwise_stabilizer(s4, [0])
    assert stab.order() == 6
    assert all(p(0) == 0 for p in stab.generators)
    assert pointwise_stabilizer(s4, [0, 1]).order() == 2


def test_lagrange_for_every_subgroup_of_s4(s4):
    # Every cyclic subgroup's order divides 24.
    for x in s4.element_list():
        assert s4.order() % x.order() == 0
    assert s4.order() % derived_subgroup(s4).order() == 0


def test_span_builds_the_generated_subgroup():
    rot = Permutation.from_cycles(4, [(0, 1, 2, 3)])
    g = span(4, [rot])
    assert g.order() == 4
    assert g.is_subgroup_of(symmetric_group(4))


def test_conjugate_subgroup_preserves_order(s4):
    sub = span(4, [Permutation.from_cycles(4, [(0, 1)])])
    g = Permutation.from_cycles(4, [(0, 2, 1, 3)])
    conj = conjugate_subgroup(sub, g)
    assert conj.order() == sub.order()
    assert conj.contains(Permutation.from_cycles(4, [(0, 1)]).conjugate(g))


def test_normal_closure_of_transposition_is_whole_s4(s4):
    sub = span(4, [Permutation.from_cycles(4, [(0, 1)])])
    assert normal_closure(s4, sub).order() == 24


def test_normal_closure_of_full_order_is_the_ambient_itself(a5):
    sub = span(5, [Permutation.from_cycles(5, [(0, 1, 2)])])
    assert normal_closure(a5, sub) is a5


def test_normal_closure_of_double_transposition_is_v4(s4):
    sub = span(4, [Permutation.from_cycles(4, [(0, 1), (2, 3)])])
    v4 = normal_closure(s4, sub)
    assert v4.order() == 4
    assert is_normal(v4, s4)


def test_derived_series_of_s4(s4, a4):
    d1 = derived_subgroup(s4)
    assert d1.same_group_as(a4)
    d2 = derived_subgroup(d1)
    assert d2.order() == 4


def test_commutator_subgroup_of_commuting_factors():
    g = direct_product(cyclic_group(3), cyclic_group(5))
    left = span(g.degree, g.generators[:1])
    right = span(g.degree, g.generators[1:])
    assert commutator_subgroup(left, right, g).is_trivial()


def test_center_of_dihedral_group():
    assert center(dihedral_group(12)).order() == 2
    assert center(dihedral_group(10)).order() == 1
    assert center(symmetric_group(4)).order() == 1


def test_centralizer_in_s4(s4):
    sub = span(4, [Permutation.from_cycles(4, [(0, 1, 2, 3)])])
    cent = centralizer(s4, sub)
    assert cent.order() == 4  # a 4-cycle is self-centralizing in S4


def test_intersection_of_subgroups(s4, a4):
    sub = span(4, [Permutation.from_cycles(4, [(0, 1)]), Permutation.from_cycles(4, [(2, 3)])])
    meet = intersection(sub, a4)
    assert meet.order() == 2
    assert meet.contains(Permutation.from_cycles(4, [(0, 1), (2, 3)]))


def test_is_normal(s4, a4):
    assert is_normal(a4, s4)
    point_stab = pointwise_stabilizer(s4, [0])
    assert not is_normal(point_stab, s4)


def test_block_systems_of_dihedral_group():
    g = dihedral_group(8)  # acts on a square
    systems = block_systems(g)
    sizes = sorted(len(blocks) for blocks in systems)
    assert sizes == [2]  # only the diagonal pairing survives


def test_block_systems_of_cyclic_group_include_joins():
    # every divisor of 12 strictly between 1 and 12 gives one block system
    systems = block_systems(cyclic_group(12))
    assert sorted(len(s) for s in systems) == [2, 3, 4, 6]


def test_degree_mismatch_between_groups(s4):
    with pytest.raises(DegreeMismatch):
        s4.is_subgroup_of(symmetric_group(5))


def test_trivial_group():
    t = PermGroup.trivial(5)
    assert t.order() == 1
    assert t.is_trivial()
    assert t.contains(Permutation.identity(5))


def test_degree_one_group():
    g = PermGroup(1, [])
    assert g.order() == 1
    assert g.contains(Permutation.identity(1))
    assert list(g.elements()) == [Permutation.identity(1)]


def _random_subgroup_gens(rng: random.Random) -> tuple[int, list[Permutation]]:
    """One or two random elements of S6..S8, raised to small powers so that
    small subgroups turn up as well as the giants."""
    degree = rng.randint(6, 8)
    gens = [
        random_permutation(rng, degree) ** rng.choice([1, 1, 2, 3, 4, 6])
        for _ in range(rng.randint(1, 2))
    ]
    return degree, gens


def _product_order_elements(chain: StabChain) -> list[tuple[int, ...]]:
    """The elements as first enumerated: itertools.product over the sorted
    transversals of the non-trivial levels, deepest first, each element
    multiplied out from the identity."""
    levels = [t for t in chain.transversal if len(t) > 1]
    out = []
    for choice in itertools.product(*(sorted(t) for t in reversed(levels))):
        p = tuple(range(chain.degree))
        for t, pt in zip(reversed(levels), choice):
            p = _mul(p, t[pt])
        out.append(p)
    return out


def _assert_product_order(g: PermGroup) -> None:
    expected = _product_order_elements(g.chain)
    assert list(g.chain.elements()) == expected
    assert [x.images for x in g.elements()] == expected


def test_elements_keep_product_order_on_small_groups():
    _assert_product_order(PermGroup.trivial(5))
    _assert_product_order(PermGroup(1, []))
    _assert_product_order(cyclic_group(7))
    _assert_product_order(make_named("S4"))


@pytest.mark.property_based
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_elements_keep_product_order(seed):
    degree, gens = _random_subgroup_gens(random.Random(seed))
    _assert_product_order(PermGroup(degree, gens))


@pytest.mark.parametrize("spec", ["A6", "PSL(2,7) x S3", "A5 x D12"])
def test_enumeration_shares_prefix_products(spec, monkeypatch):
    g = group_from_spec(spec)
    n = g.order()
    products = 0

    def counting_mul(a, b):
        nonlocal products
        products += 1
        return _mul(a, b)

    monkeypatch.setattr(group, "_mul", counting_mul)
    assert sum(1 for _ in g.elements()) == n
    # one product per element plus the shared prefixes; one product per
    # non-trivial level per element would be several times |G|
    assert products < 2 * n


@pytest.mark.property_based
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.one_of(st.integers(1, 10_000), st.integers(1, 6).map(lambda k: k * 40_320)),
)
@settings(max_examples=100, deadline=None)
def test_order_divides_agrees_with_order(seed, n):
    degree, gens = _random_subgroup_gens(random.Random(seed))
    fresh = PermGroup(degree, gens)
    assert fresh.order_divides(n) == (n % PermGroup(degree, gens).order() == 0)


@pytest.mark.property_based
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_divisor_build_matches_plain_build(seed):
    degree, gens = _random_subgroup_gens(random.Random(seed))
    g = PermGroup(degree, gens)
    assert g.order_divides(math.factorial(degree))
    plain = StabChain(degree, [x.images for x in g.generators])
    assert g.chain.strong_generators() == plain.strong_generators()
    assert [list(t.items()) for t in g.chain.transversal] == [
        list(t.items()) for t in plain.transversal
    ]
    assert g.order() == plain.order()


def test_membership_under_concurrent_sifts():
    """Threads sifting through one shared chain fill its inverse cache at the
    same time (as library callers sharing a group across threads do); every
    answer must stay right."""
    gens = group_from_spec("A5 wr C2").generators
    shared = PermGroup(10, gens)
    rng = random.Random(1)
    probes = [random_permutation(rng, 10) for _ in range(100)]
    probes += [shared.random_element(rng) for _ in range(100)]
    reference = PermGroup(10, gens)
    expected = [reference.contains(x) for x in probes]
    assert any(expected) and not all(expected)
    results: list = []

    def work():
        results.append([shared.contains(x) for x in probes])

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * 8


def test_rejected_order_divides_caches_no_chain():
    s5 = make_named("S5")
    # 7 is stopped at the first orbit (length 5); 40 only at a deeper level
    # of length 3, after Schreier generators have been added
    for n in (7, 40):
        g = PermGroup(5, s5.generators)
        assert not g.order_divides(n)
        assert g.order() == 120
        assert g.order_divides(240)


@pytest.mark.property_based
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_chain_derived_elements_are_bijections(seed):
    """Elements, random elements and stabilizer generators are read off the
    chain without validation; each must still be a bijection of the degree."""
    rng = random.Random(seed)
    degree, gens = _random_subgroup_gens(rng)
    g = PermGroup(degree, gens)
    derived = list(g.elements())
    derived += [g.random_element(rng) for _ in range(20)]
    derived += list(pointwise_stabilizer(g, [0, 1]).generators)
    for x in derived:
        assert x.degree == degree
        assert Permutation(x.images) == x
    assert len({x.images for x in g.elements()}) == g.order()


@pytest.mark.property_based
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_random_elements_are_members(seed):
    g = make_named("A5")
    rng = random.Random(seed)
    x = g.random_element(rng)
    assert g.contains(x)
    assert x.order() in {1, 2, 3, 5}


@pytest.mark.property_based
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_product_closure(seed):
    g = make_named("S4")
    rng = random.Random(seed)
    x = g.random_element(rng)
    y = g.random_element(rng)
    assert g.contains(x * y)
    assert g.contains(x.inverse())
