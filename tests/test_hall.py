"""Hall subgroup search: existence verdicts, heredity, nilpotency confirmation."""

import pytest

from hallbound import (
    PrimeSet,
    check_hall_heredity,
    confirm_no_nilpotent_hall_2p,
    derived_subgroup,
    find_hall_subgroup,
    group_from_spec,
    is_hall_subgroup,
    make_named,
    sylow_subgroup,
    wreath_product,
)
from hallbound.errors import PreconditionError


def test_is_hall_subgroup_basics(s4, a4):
    assert is_hall_subgroup(s4, s4, PrimeSet([2, 3]))
    assert is_hall_subgroup(sylow_subgroup(s4, 2), s4, PrimeSet([2]))
    # A4 has index 2, so primes of the index meet {2,3}.
    assert not is_hall_subgroup(a4, s4, PrimeSet([2, 3]))


def test_hall_found_in_a5(a5):
    result = find_hall_subgroup(a5, PrimeSet([2, 3]))
    assert result.status == "found"
    assert result.found
    assert result.subgroup.order() == 12
    assert is_hall_subgroup(result.subgroup, a5, PrimeSet([2, 3]))


def test_hall_search_ignores_hallbound_seed(monkeypatch, a5):
    plain = find_hall_subgroup(a5, PrimeSet([2, 3])).subgroup.generators
    monkeypatch.setenv("HALLBOUND_SEED", "7")
    assert find_hall_subgroup(a5, PrimeSet([2, 3])).subgroup.generators == plain


def test_hall_proven_absent_in_a5(a5):
    result = find_hall_subgroup(a5, PrimeSet([2, 5]))
    assert result.status == "proven_absent"
    assert not result.found
    assert result.subgroup is None
    assert find_hall_subgroup(a5, PrimeSet([3, 5])).status == "proven_absent"


def test_hall_in_soluble_group_always_found(s4):
    for primes in ([2], [3], [2, 3]):
        result = find_hall_subgroup(s4, PrimeSet(primes))
        assert result.found
        assert is_hall_subgroup(result.subgroup, s4, PrimeSet(primes))


def test_hall_found_in_psl_groups():
    result7 = find_hall_subgroup(make_named("PSL(2,7)"), PrimeSet([2, 3]))
    assert result7.found and result7.subgroup.order() == 24
    result11 = find_hall_subgroup(make_named("PSL(2,11)"), PrimeSet([2, 3]))
    assert result11.found and result11.subgroup.order() == 12


def test_hall_found_in_wreath_product():
    g = wreath_product(make_named("A5"), make_named("C2"))
    result = find_hall_subgroup(g, PrimeSet([2, 3]))
    assert result.found
    assert result.subgroup.order() == 288


def test_hall_search_is_deterministic(a5):
    first = find_hall_subgroup(a5, PrimeSet([2, 3]))
    second = find_hall_subgroup(a5, PrimeSet([2, 3]))
    assert first.status == second.status
    assert first.subgroup.generators == second.subgroup.generators


def test_budget_is_reported(a5):
    result = find_hall_subgroup(a5, PrimeSet([2, 5]))
    assert set(result.budget_used) <= {"random_growth_steps", "sylow_combinations"}
    assert result.budget_used
    # every join the absence proof builds is counted, pruned ones included
    assert result.budget_used["sylow_combinations"] > 0


def test_unknown_above_the_exhaustive_cap():
    # Order 25,200 is above the 20,000 cap of the Sylow scan, and greedy
    # growth finds no subgroup of order 400 (there is none: A5 has no Hall
    # {2,5}-subgroup), so the verdict stays open.
    g = group_from_spec("A5 x A5 x C7")
    assert g.order() == 25200
    result = find_hall_subgroup(g, PrimeSet([2, 5]))
    assert result.status == "unknown"
    assert result.subgroup is None


def test_trivial_pi_part(a5):
    # No prime of pi divides the order: the trivial subgroup is the Hall subgroup.
    result = find_hall_subgroup(a5, PrimeSet([7]))
    assert result.found
    assert result.subgroup.order() == 1


def test_heredity_in_s4(s4):
    v4 = derived_subgroup(derived_subgroup(s4))
    hall = sylow_subgroup(s4, 2)
    report = check_hall_heredity(s4, hall, PrimeSet([2]), v4)
    assert report.intersection_is_hall
    assert report.image_is_hall
    assert report.holds


def test_heredity_rejects_non_hall(s4, a4):
    v4 = derived_subgroup(a4)
    with pytest.raises(PreconditionError):
        check_hall_heredity(s4, a4, PrimeSet([2, 3]), v4)


def test_heredity_rejects_non_normal(s4):
    hall = sylow_subgroup(s4, 2)
    with pytest.raises(PreconditionError):
        check_hall_heredity(s4, hall, PrimeSet([2]), sylow_subgroup(s4, 3))


def test_no_nilpotent_hall_in_a5(a5):
    assert confirm_no_nilpotent_hall_2p(a5, 3)
    assert confirm_no_nilpotent_hall_2p(a5, 5)


def test_no_nilpotent_hall_preconditions(a5, s4):
    with pytest.raises(PreconditionError):
        confirm_no_nilpotent_hall_2p(a5, 2)
    with pytest.raises(PreconditionError):
        confirm_no_nilpotent_hall_2p(a5, 7)
    with pytest.raises(PreconditionError):
        confirm_no_nilpotent_hall_2p(s4, 3)
