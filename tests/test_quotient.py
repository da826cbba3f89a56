"""Coset-action quotients: homomorphism law, kernels, preimages."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallbound import (
    PermGroup,
    StabChain,
    alternating_group,
    cyclic_group,
    derived_subgroup,
    direct_product,
    factor_group,
    make_named,
    quotient_by,
    span,
    symmetric_group,
)
from hallbound.errors import CapExceeded, SubgroupError
from hallbound.quotient import ascending_series, quotient_or_self


def test_quotient_s4_by_v4_is_s3(s4):
    v4 = derived_subgroup(derived_subgroup(s4))
    q = quotient_by(s4, v4)
    assert q.index == 6
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
    assert q.index == index
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
        assert q.image(q.preimage_of(t)) == t


def test_preimage_subgroup_full_and_trivial(s4):
    v4 = derived_subgroup(derived_subgroup(s4))
    q = quotient_by(s4, v4)
    assert q.preimage_subgroup(q.target).same_group_as(s4)
    assert q.preimage_subgroup(PermGroup.trivial(q.target.degree)).same_group_as(v4)


def test_image_subgroup_order(s4):
    v4 = derived_subgroup(derived_subgroup(s4))
    q = quotient_by(s4, v4)
    sylow3 = span(4, [p for p in s4.element_list() if p.order() == 3][:1])
    image = q.image_subgroup(sylow3)
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


def test_ascending_series_stops_at_whole_group_or_trivial_step(s4):
    # A4 = S4', then (S4/A4)' = 1 stops the series short of S4
    derived = ascending_series(s4, derived_subgroup)
    assert [n.order() for n in derived] == [1, 12]
    whole = ascending_series(s4, lambda q: q)
    assert [n.order() for n in whole] == [1, 24]
    assert whole[-1] is s4


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
