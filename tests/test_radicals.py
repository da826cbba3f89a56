"""Cores, radicals, Fitting machinery, layer, and height/length certificates."""

import ast
import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SRC, permutations_of_degree
from oracles import normal_subgroup_lattice
from hallbound import (
    PermGroup,
    PrimeSet,
    QuotientMap,
    alternating_group,
    clear_caches,
    cyclic_group,
    dihedral_group,
    direct_product,
    fitting_height,
    fitting_subgroup,
    generalized_fitting_height,
    generalized_fitting_subgroup,
    group_from_spec,
    is_normal,
    is_p_soluble,
    layer,
    make_named,
    p_core,
    p_length,
    p_length_value,
    p_prime_core,
    p_soluble_radical,
    pi_core,
    soluble_radical,
    sylow_subgroup,
    symmetric_group,
)
from hallbound.errors import CapExceeded, PreconditionError
from hallbound.primes import prime_divisors
from hallbound.quotient import quotient_or_self
from hallbound.radicals import _pi_core_above


def test_sylow_subgroup_orders(s4):
    assert sylow_subgroup(s4, 2).order() == 8
    assert sylow_subgroup(s4, 3).order() == 3
    a6 = alternating_group(6)
    assert sylow_subgroup(a6, 2).order() == 8
    assert sylow_subgroup(a6, 3).order() == 9
    assert sylow_subgroup(a6, 5).order() == 5


def test_sylow_subgroup_respects_enumeration_cap(monkeypatch):
    s5 = symmetric_group(5)
    clear_caches()
    monkeypatch.setenv("HALLBOUND_CAP", "100")
    try:
        with pytest.raises(CapExceeded):
            sylow_subgroup(s5, 2)
    finally:
        clear_caches()


def _assert_sylow(g, p):
    """The Sylow contract: a subgroup of g whose order is the p-part of |g|."""
    sylow = sylow_subgroup(g, p)
    assert sylow.is_subgroup_of(g), p
    assert sylow.order() == PrimeSet([p]).part_of(g.order()), p


@pytest.mark.parametrize(
    "name", ["S4", "S5", "SL(2,3)", "A5 x S4", "PSL(2,7)", "D20 x S3"]
)
def test_sylow_subgroup_contract(name):
    g = group_from_spec(name)
    for p in prime_divisors(g.order()):
        _assert_sylow(g, p)


@pytest.mark.property_based
@given(
    perms=st.integers(1, 7).flatmap(
        lambda degree: st.lists(permutations_of_degree(degree), min_size=1, max_size=3)
    )
)
@settings(max_examples=60, deadline=None)
def test_sylow_subgroup_contract_on_random_groups(perms):
    g = PermGroup(perms[0].degree, perms)
    for p in (2, 3, 5, 7):
        _assert_sylow(g, p)


def test_sylow_subgroups_of_large_groups_within_budget():
    """One pass per prime: A5 wr C3 (order 648,000) and A9 well inside 5 s."""
    groups = {"A5 wr C3": group_from_spec("A5 wr C3"), "A9": alternating_group(9)}
    clear_caches()
    start = time.perf_counter()
    orders = {
        name: [sylow_subgroup(g, p).order() for p in prime_divisors(g.order())]
        for name, g in groups.items()
    }
    elapsed = time.perf_counter() - start
    assert orders == {"A5 wr C3": [64, 81, 125], "A9": [64, 81, 5, 7]}
    assert elapsed < 5, f"Sylow subgroups took {elapsed:.1f}s, budget 5s"


def test_sylow_subgroup_trivial_when_p_absent(a5):
    assert sylow_subgroup(a5, 7).is_trivial()


def test_p_core_values(s4, a4, a5):
    assert p_core(s4, 2).order() == 4
    assert p_core(s4, 3).order() == 1
    assert p_core(a4, 2).order() == 4
    assert p_core(a4, 3).order() == 1
    assert p_core(a5, 5).order() == 1
    assert p_core(cyclic_group(12), 2).order() == 4


def test_p_prime_core_values(s4):
    assert p_prime_core(s4, 2).order() == 1
    assert p_prime_core(dihedral_group(12), 2).order() == 3
    assert p_prime_core(cyclic_group(12), 2).order() == 3


def test_pi_core_values(s4):
    assert pi_core(s4, PrimeSet([2, 3])).order() == 24
    mixed = direct_product(make_named("A5"), cyclic_group(6))
    assert pi_core(mixed, PrimeSet([2, 3])).order() == 6
    assert pi_core(make_named("A5"), PrimeSet([2, 3])).order() == 1


def test_pi_core_is_normal_pi_subgroup():
    g = direct_product(symmetric_group(4), cyclic_group(5))
    pi = PrimeSet([2, 5])
    core = pi_core(g, pi)
    assert is_normal(core, g)
    assert pi.is_pi_number(core.order())
    assert core.order() == 20  # V4 x C5


def test_p_soluble_radical_values():
    assert p_soluble_radical(direct_product(make_named("A5"), cyclic_group(7)), 5).order() == 7
    assert p_soluble_radical(direct_product(make_named("A5"), cyclic_group(7)), 7).order() == 420
    assert p_soluble_radical(direct_product(make_named("A5"), cyclic_group(6)), 3).order() == 6
    assert p_soluble_radical(make_named("SL(2,5)"), 2).order() == 2
    assert p_soluble_radical(symmetric_group(4), 2).order() == 24


@pytest.mark.parametrize("spec", ["S4", "A5"])
def test_p_soluble_radical_rejects_a_composite_p(spec):
    # The prime check runs before the soluble shortcut (S4) and before
    # PrimeSet's own ValueError (A5)
    with pytest.raises(PreconditionError, match="4 is not prime"):
        p_soluble_radical(make_named(spec), 4)


def test_is_p_soluble():
    assert is_p_soluble(symmetric_group(4), 2)
    assert is_p_soluble(symmetric_group(4), 3)
    assert is_p_soluble(alternating_group(5), 7)  # p does not divide the order
    assert not is_p_soluble(alternating_group(5), 2)
    assert not is_p_soluble(alternating_group(5), 5)
    assert not is_p_soluble(make_named("PSL(2,7)"), 3)
    with pytest.raises(PreconditionError):
        is_p_soluble(symmetric_group(4), 4)


def test_fitting_subgroup_values(s4):
    assert fitting_subgroup(s4).order() == 4
    assert fitting_subgroup(symmetric_group(3)).order() == 3
    assert fitting_subgroup(dihedral_group(12)).order() == 6
    assert fitting_subgroup(make_named("SL(2,3)")).order() == 8
    assert fitting_subgroup(alternating_group(5)).order() == 1
    assert fitting_subgroup(cyclic_group(12)).order() == 12


def test_layer_values(s4, a5, sl25):
    assert layer(s4).is_trivial()
    assert layer(a5).same_group_as(a5)
    assert layer(sl25).order() == 120
    double = direct_product(make_named("A5"), make_named("A5"))
    assert layer(double).order() == 3600
    mixed = direct_product(make_named("A5"), symmetric_group(4))
    assert layer(mixed).order() == 60


@pytest.mark.parametrize("spec", ["S4 wr C2", "A4 wr C3", "C2 wr A5"])
def test_layer_enumerates_no_group_of_the_order_of_g(spec, monkeypatch):
    # C_G(F) is read off the action: the centralizer of F in the symmetric
    # groups of G's orbits (of order 16, 64 and 32 here) is far smaller
    # than G, so only it is enumerated.  F is computed first, because its
    # own seed harvest may enumerate G.
    g = group_from_spec(spec)
    fitting_subgroup(g)
    enumerated = []
    elements = PermGroup.elements

    def counted(group):
        enumerated.append(group.order())
        return elements(group)

    monkeypatch.setattr(PermGroup, "elements", counted)
    assert layer(g).is_trivial()
    assert g.order() not in enumerated


def test_generalized_fitting_subgroup_values(s4, a5, sl25):
    assert generalized_fitting_subgroup(s4).order() == 4
    assert generalized_fitting_subgroup(a5).same_group_as(a5)
    assert generalized_fitting_subgroup(sl25).order() == 120
    mixed = direct_product(make_named("A5"), symmetric_group(4))
    assert generalized_fitting_subgroup(mixed).order() == 240


def test_fitting_height_values(s4, a4):
    assert fitting_height(s4).height == 3
    assert fitting_height(a4).height == 2
    assert fitting_height(cyclic_group(12)).height == 1
    assert fitting_height(symmetric_group(3)).height == 2


def test_fitting_height_requires_soluble(a5):
    with pytest.raises(PreconditionError):
        fitting_height(a5)


def test_generalized_fitting_height_values(s4, a4, a5, sl25):
    assert generalized_fitting_height(a4).height == 2
    assert generalized_fitting_height(s4).height == 3
    assert generalized_fitting_height(a5).height == 1
    assert generalized_fitting_height(sl25).height == 1


def test_height_series_end_at_the_group_itself(s4):
    assert fitting_height(s4).series[-1] is s4
    assert generalized_fitting_height(s4).series[-1] is s4


def test_height_certificate_series_shape(s4):
    cert = fitting_height(s4)
    assert cert.kind == "fitting"
    assert cert.series[0].is_trivial()
    assert cert.series[-1].same_group_as(s4)
    assert [h.order() for h in cert.series] == [1, 4, 12, 24]
    for smaller, bigger in zip(cert.series, cert.series[1:]):
        assert smaller.is_subgroup_of(bigger)


def test_p_length_values(s4, a4):
    assert p_length_value(s4, 2) == 2
    assert p_length_value(s4, 3) == 1
    assert p_length_value(a4, 2) == 1
    assert p_length_value(a4, 3) == 1
    assert p_length_value(cyclic_group(12), 2) == 1
    assert p_length_value(make_named("SL(2,3)"), 2) == 1


def test_p_length_certificate_kind(s4):
    cert = p_length(s4, 2)
    assert cert.kind == "two_length"
    assert cert.series[-1].same_group_as(s4)


def test_p_length_requires_p_soluble(a5):
    with pytest.raises(PreconditionError):
        p_length(a5, 2)


CORE_ABOVE_GROUPS = [
    "A4 x S4", "A5 x S4", "C2 x A4", "S3 x C4", "S5",
    "A5 x D12", "D12 x S4", "PSL(2,7) x S3",
]


@pytest.mark.parametrize("spec", CORE_ABOVE_GROUPS)
def test_pi_core_above_matches_the_quotient_route(spec):
    # For every proper normal N of the lattice oracle and every non-empty set
    # pi of primes dividing |G|, the core above N, read off G's seed closures,
    # is the full preimage of pi_core(G/N) taken in the coset action.  Each
    # group's comparisons take well under a second; the budget is 5 s.
    g = group_from_spec(spec)
    primes = prime_divisors(g.order())
    pi_sets = [
        PrimeSet(c) for r in range(1, len(primes) + 1) for c in itertools.combinations(primes, r)
    ]
    proper = [n for n in normal_subgroup_lattice(g) if n.order() < g.order()]
    start = time.perf_counter()
    for n in proper:
        quotient, pull_back = quotient_or_self(g, n)
        for pi in pi_sets:
            expected = pull_back(pi_core(quotient, pi))
            assert _pi_core_above(g, n, pi).same_group_as(expected), (n.order(), pi)
    elapsed = time.perf_counter() - start
    assert elapsed < 5, f"{len(proper) * len(pi_sets)} cores took {elapsed:.1f}s, budget 5s"


def test_p_soluble_radical_above_the_quotient_degree_cap():
    # The radical at 3 is the centre C2; a quotient by it would act on 21,600
    # cosets, over the 20,000 degree cap.
    assert p_soluble_radical(group_from_spec("A6 x A5 x C2"), 3).order() == 2


def test_upper_p_series_and_fitting_series_build_no_quotient(monkeypatch):
    built = []
    init = QuotientMap.__init__

    def counted(self, source, kernel):
        built.append(source.order() // kernel.order())
        init(self, source, kernel)

    monkeypatch.setattr(QuotientMap, "__init__", counted)
    clear_caches()
    assert p_soluble_radical(group_from_spec("A5 x D12"), 3).order() == 12
    soluble = group_from_spec("A4 x S4")
    assert [p_length_value(soluble, p) for p in (2, 3)] == [2, 1]
    assert [h.order() for h in fitting_height(soluble).series] == [1, 16, 144, 288]
    assert built == []


def test_no_series_of_radicals_ascends_through_quotients():
    tree = ast.parse((SRC / "radicals.py").read_text())
    functions = {
        node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    }
    assert "_upper_p_step" not in functions
    for name in (
        "p_soluble_radical",
        "p_length",
        "fitting_height",
        "_upper_p_series",
        "pi_core",
        "soluble_radical",
    ):
        called = {
            node.func.id
            for node in ast.walk(functions[name])
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        assert not called & {"ascending_series", "quotient_or_self", "quotient_by"}, name


@pytest.mark.parametrize("spec", ["A5 wr A5", "S10"])
def test_cores_above_the_cap_settle_without_a_harvest(spec):
    # No minimal normal subgroup of these groups is soluble, a p-group or a
    # {2,5}-group, so every core below is trivial on that certificate alone;
    # a harvest of A5 wr A5 would enumerate it and raise CapExceeded.
    g = group_from_spec(spec)
    cores = [soluble_radical(g), *(p_core(g, p) for p in (2, 3, 5)), p_prime_core(g, 3)]
    assert all(c.is_trivial() for c in cores)
