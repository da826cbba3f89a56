"""The stabilizer-chain engine against an independent one: sympy's
PermutationGroup agrees on the order of every group and on membership of
random permutations and random elements.  sympy is a test-only oracle;
test_stdlib_only.py keeps it out of the package."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallbound import PermGroup, group_from_spec, suite_specs

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
