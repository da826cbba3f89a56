"""The stabilizer-chain engine against an independent one: sympy's
PermutationGroup agrees on the order of every group, on membership of
random permutations and random elements, and on the orders of the center
and of the centralizers of Sylow subgroups and random spans.  sympy is a
test-only oracle; test_stdlib_only.py keeps it out of the package."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallbound import (
    PermGroup,
    center,
    centralizer,
    group_from_spec,
    span,
    suite_specs,
    sylow_subgroup,
)
from hallbound.primes import prime_divisors

from conftest import random_permutation, random_subgroup_gens

combinatorics = pytest.importorskip("sympy.combinatorics")


def _sympy_group(g: PermGroup):
    gens = [combinatorics.Permutation(list(x.images)) for x in g.generators]
    return combinatorics.PermutationGroup(gens or [combinatorics.Permutation(g.degree - 1)])


def _assert_agrees_with_sympy(g: PermGroup, rng: random.Random) -> None:
    oracle = _sympy_group(g)
    assert g.order() == oracle.order()
    probes = [random_permutation(rng, g.degree) for _ in range(20)]
    probes += [g.random_element(rng) for _ in range(10)]
    assert [g.contains(x) for x in probes] == [
        oracle.contains(combinatorics.Permutation(list(x.images))) for x in probes
    ]


@pytest.mark.property_based
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_order_and_membership_agree_with_sympy(seed):
    rng = random.Random(seed)
    degree, gens = random_subgroup_gens(rng)
    _assert_agrees_with_sympy(PermGroup(degree, gens), rng)


@pytest.mark.parametrize("spec", suite_specs(3))
def test_corpus_groups_agree_with_sympy(spec):
    _assert_agrees_with_sympy(group_from_spec(spec), random.Random(spec))


def _assert_centralizers_agree_with_sympy(g: PermGroup, subgroups) -> None:
    oracle = _sympy_group(g)
    assert center(g).order() == oracle.center().order()
    for n in subgroups:
        assert centralizer(g, n).order() == oracle.centralizer(_sympy_group(n)).order()


def _random_span(g: PermGroup, rng: random.Random) -> PermGroup:
    return span(g.degree, [g.random_element(rng) for _ in range(rng.randint(1, 2))])


@pytest.mark.property_based
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_centralizers_agree_with_sympy(seed):
    rng = random.Random(seed)
    degree, gens = random_subgroup_gens(rng)
    g = PermGroup(degree, gens)
    primes = prime_divisors(g.order()) if g.order() > 1 else []
    sylows = [sylow_subgroup(g, rng.choice(primes))] if primes else []
    _assert_centralizers_agree_with_sympy(g, sylows + [_random_span(g, rng)])


@pytest.mark.parametrize("spec", suite_specs(3))
def test_corpus_centralizers_agree_with_sympy(spec):
    g = group_from_spec(spec)
    sylows = [sylow_subgroup(g, p) for p in prime_divisors(g.order())]
    _assert_centralizers_agree_with_sympy(g, sylows + [_random_span(g, random.Random(spec))])
