"""Quotients: the coset action's homomorphism law, kernels and preimages,
and the orbit-action route of quotient_or_self checked against it."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_subgroup_gens
from oracles import normal_subgroup_lattice
from hallbound import (
    Permutation,
    PermGroup,
    QuotientMap,
    StabChain,
    alternating_group,
    cyclic_group,
    derived_subgroup,
    direct_product,
    factor_group,
    group_from_spec,
    make_named,
    quotient_by,
    span,
    symmetric_group,
    wreath_product,
)
from hallbound.corpus import suite_specs
from hallbound.errors import CapExceeded, SubgroupError
from hallbound.group import ActionMap, _block_action
from hallbound.quotient import quotient_or_self


def test_quotient_s4_by_v4_is_s3(s4):
    v4 = derived_subgroup(derived_subgroup(s4))
    q = quotient_by(s4, v4)
    assert q.target.degree == 6
    assert q.target.order() == 6
    assert q.target.degree == 6


@pytest.mark.parametrize("depth, index", [(1, 2), (2, 6)])
def test_construction_reduces_each_coset_once_per_generator(monkeypatch, s4, depth, index):
    # the coset walk reads every target generator's images, so building the
    # map reduces the identity and each coset times each generator once
    kernel = s4
    for _ in range(depth):
        kernel = derived_subgroup(kernel)
    kernel.order()
    calls = []
    reduce = StabChain.min_coset_rep

    def counted(chain, c):
        calls.append(c)
        return reduce(chain, c)

    monkeypatch.setattr(StabChain, "min_coset_rep", counted)
    q = quotient_by(s4, kernel)
    assert q.target.degree == index
    assert len(calls) == 1 + index * len(s4.generators)


def test_quotient_kernel_maps_to_identity(s4):
    v4 = derived_subgroup(derived_subgroup(s4))
    q = quotient_by(s4, v4)
    for k in v4.element_list():
        assert q.image(k).is_identity


def test_homomorphism_property(s4):
    a4 = derived_subgroup(s4)
    q = quotient_by(s4, a4)
    rng = random.Random(11)
    for _ in range(50):
        x = s4.random_element(rng)
        y = s4.random_element(rng)
        assert q.image(x * y) == q.image(x) * q.image(y)


def test_preimage_round_trip(s4):
    v4 = derived_subgroup(derived_subgroup(s4))
    q = quotient_by(s4, v4)
    rng = random.Random(3)
    for _ in range(25):
        t = q.target.random_element(rng)
        assert q.image(q.lift(t)) == t


def test_preimage_subgroup_full_and_trivial(s4):
    v4 = derived_subgroup(derived_subgroup(s4))
    q = quotient_by(s4, v4)
    assert q.preimage(q.target).same_group_as(s4)
    assert q.preimage(PermGroup.trivial(q.target.degree)).same_group_as(v4)


def test_image_subgroup_order(s4):
    v4 = derived_subgroup(derived_subgroup(s4))
    q = quotient_by(s4, v4)
    sylow3 = span(4, [p for p in s4.element_list() if p.order() == 3][:1])
    image = PermGroup(q.target.degree, [q.image(x) for x in sylow3.generators])
    assert image.order() == 3


def test_factor_group_orders():
    g = direct_product(alternating_group(5), cyclic_group(2))
    kernel = span(g.degree, g.generators[-1:])
    assert factor_group(g, kernel).order() == 60
    assert factor_group(g, PermGroup.trivial(g.degree)).order() == 120


def test_quotient_or_self_skips_trivial_kernel(s4):
    target, pull_back = quotient_or_self(s4, PermGroup.trivial(4))
    assert target is s4
    assert pull_back(s4) is s4
    v4 = derived_subgroup(derived_subgroup(s4))
    target, pull_back = quotient_or_self(s4, v4)
    assert target.degree == 6 and target.order() == 6
    assert pull_back(PermGroup.trivial(6)).same_group_as(v4)


def test_quotient_requires_normal_kernel(s4):
    stab = span(4, [p for p in s4.element_list() if p.order() == 3][:1])
    with pytest.raises(SubgroupError):
        quotient_by(s4, stab)


def test_quotient_degree_cap():
    g = symmetric_group(8)
    with pytest.raises(CapExceeded, match="quotient") as info:
        quotient_by(g, PermGroup.trivial(8))
    assert (info.value.needed, info.value.cap) == (40320, 20000)


@pytest.mark.property_based
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_quotient_respects_products(seed):
    from hallbound import center

    g = make_named("SL(2,5)")
    q = quotient_by(g, center(g))
    rng = random.Random(seed)
    x = g.random_element(rng)
    y = g.random_element(rng)
    assert q.image(x * y) == q.image(x) * q.image(y)


ORBIT_ROUTE_PRODUCTS = ("A5 x D12", "D12 x S4", "PSL(2,7) x S3", "S5 x S3", "A5 x SL(2,3)")


def test_orbit_route_agrees_with_the_coset_action():
    # For every corpus group up to order 2,000, the direct products of the
    # kernel workload, and every proper nontrivial normal N of the lattice
    # oracle, quotient_or_self takes G's action on the m orbits of N exactly
    # when that action has order |G : N| and m < |G : N|.  There its
    # pull-back must give G, N, and for each generator x the same <N, x> as
    # QuotientMap's preimage of <x's coset image>.  For every N, the coset
    # map's lifts map back onto its target's generators, and its known
    # kernel N is the kernel the generic ActionMap reads off its chain.  The
    # sweep takes about 15 s; the budget is 60 s.
    start = time.perf_counter()
    routed = 0
    for spec in suite_specs(3) + ORBIT_ROUTE_PRODUCTS:
        g = group_from_spec(spec)
        if g.order() > 2000:
            continue
        for n in normal_subgroup_lattice(g):
            if n.is_trivial() or n.order() == g.order():
                continue
            q = quotient_by(g, n)
            index = q.target.degree
            assert all(q.image(q.lift(t)) == t for t in q.target.generators), spec
            assert ActionMap(g, index, q._aux_action).kernel().same_group_as(n), (spec, n.order())
            blocks = n.orbits()
            on_blocks = _block_action(blocks)
            images = [Permutation(on_blocks(x)) for x in g.generators]
            exact = len(blocks) < index and PermGroup(len(blocks), images).order() == index
            image, pull_back = quotient_or_self(g, n)
            assert (image.degree == len(blocks) != index) is exact, (spec, n.order())
            if not exact:
                continue
            routed += 1
            assert image.order() == index
            assert pull_back(image).same_group_as(g)
            assert pull_back(PermGroup.trivial(image.degree)).same_group_as(n)
            for x, t in zip(g.generators, images):
                expected = q.preimage(PermGroup(index, [q.image(x)]))
                assert pull_back(PermGroup(image.degree, [t])).same_group_as(expected), spec
    assert routed == 29
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"{routed} orbit quotients took {elapsed:.1f}s, budget 60s"


@pytest.mark.property_based
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_action_lift_maps_onto_its_target(seed):
    # G x C3 acting on its orbits, and on 2 + 3 points by the sign of its
    # G-part and by its C3-part: every lift of an element of the image acts
    # as that element, the kernel has index |image|, the lifts of the
    # image's generators with the kernel give the whole group, and the
    # preimage of <t> read off the lifts is QuotientMap's preimage of the
    # coset image of lift(t).
    rng = random.Random(seed)
    degree, gens = random_subgroup_gens(rng)
    g = direct_product(PermGroup(degree, gens), cyclic_group(3))
    blocks = g.orbits()

    def on_sign_and_c3(x):
        sign = sum(len(c) - 1 for c in x.cycles()) % 2
        return [sign, 1 - sign] + [2 + x(degree + i) - degree for i in range(3)]

    for aux_count, on_aux in ((len(blocks), _block_action(blocks)), (5, on_sign_and_c3)):
        action = ActionMap(g, aux_count, on_aux)
        image, lift = action.target, action.lift
        for _ in range(5):
            t = image.random_element(rng)
            assert on_aux(lift(t)) == list(t.images)
        kernel = action.kernel()
        assert kernel.order() == g.order() // image.order()
        lifts = tuple(map(lift, image.generators))
        assert PermGroup(g.degree, kernel.generators + lifts).same_group_as(g)
        q = QuotientMap(g, kernel)
        for _ in range(3):
            t = image.random_element(rng)
            cyclic = PermGroup(image.degree, [t])
            expected = q.preimage(PermGroup(q.target.degree, [q.image(lift(t))]))
            assert action.preimage(cyclic).same_group_as(expected)


def test_one_action_map_builds_one_chain(monkeypatch):
    # The kernel and five lifts of A5 wr C3's action on its three blocks
    # come from one extended chain.  The elements to lift are drawn from a
    # copy of the image built before counting.  The coset action by the same
    # kernel then pulls subgroups back from the kernel's own chain and the
    # coset representatives: it builds no chain on g's points plus its three
    # cosets.
    g = wreath_product(make_named("A5"), make_named("C3"))
    g.order()
    system = tuple(tuple(range(5 * i, 5 * i + 5)) for i in range(3))
    on_blocks = _block_action(system)
    targets = PermGroup(3, [Permutation(on_blocks(x)) for x in g.generators])
    rng = random.Random(0)
    elements = [targets.random_element(rng) for _ in range(5)]
    builds = []
    build = StabChain.__init__

    def counted(chain, *args, **kwargs):
        builds.append(args[0])
        build(chain, *args, **kwargs)

    monkeypatch.setattr(StabChain, "__init__", counted)
    action = ActionMap(g, 3, on_blocks)
    assert action.kernel().generators
    for t in elements:
        assert on_blocks(action.lift(t)) == list(t.images)
    assert builds == [g.degree + 3]
    kernel = action.kernel()
    q = QuotientMap(g, kernel)
    assert q.preimage(q.target).same_group_as(g)
    assert q.preimage(PermGroup.trivial(3)).same_group_as(kernel)
    for t in elements:
        assert q.preimage(PermGroup(3, [t])).order() == t.order() * kernel.order()
    assert builds.count(g.degree + 3) == 1


@pytest.mark.parametrize("top, k", [("A5", 3), ("A5 wr C2", 7)])
def test_orbit_route_pulls_back_through_the_known_kernel(monkeypatch, top, k):
    # G = top x C_k and N its C_k factor: quotient_or_self acts on the orbits
    # of N, whose kernel is N, so pulling back extends N's chain and builds
    # no second chain on G's points.  The chains of G and N exist before
    # counting; the target's chain and the extended chain are built inside.
    a = group_from_spec(top)
    g = direct_product(a, cyclic_group(k))
    n = direct_product(PermGroup.trivial(a.degree), cyclic_group(k))
    g.order(), n.order()
    builds = []
    build = StabChain.__init__

    def counted(chain, *args, **kwargs):
        builds.append(args[0])
        build(chain, *args, **kwargs)

    monkeypatch.setattr(StabChain, "__init__", counted)
    image, pull_back = quotient_or_self(g, n)
    assert image.degree == len(n.orbits()) < image.order()
    assert pull_back(image).same_group_as(g)
    assert g.degree not in builds, builds
