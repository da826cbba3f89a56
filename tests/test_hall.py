"""Hall subgroup search: existence verdicts, heredity, nilpotency confirmation."""

import itertools
import random
import time
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallbound import (
    Permutation,
    PermGroup,
    PrimeSet,
    check_hall_heredity,
    compute_invariant_report,
    confirm_no_nilpotent_hall_2p,
    conjugate_subgroup,
    derived_subgroup,
    find_hall_subgroup,
    group_from_spec,
    is_hall_subgroup,
    is_normal,
    make_named,
    pi_core,
    suite_specs,
    sylow_subgroup,
    valid_instances,
    wreath_product,
)
from hallbound import group, hall
from hallbound.config import SEARCH_SEED
from hallbound.errors import CapExceeded, PreconditionError
from hallbound.hall import (
    GREEDY_RESTARTS,
    _bound_certificate,
    _conjugates,
    _fails_coset_bound,
    _greedy_phase,
    _sylow_generated,
)
from hallbound.perm import _mul
from hallbound.primes import prime_divisors

from conftest import random_permutation
from oracles import no_nilpotent_hall_2p_oracle


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


def test_budget_is_reported():
    # A6 has no Hall {2,5}-subgroup, and |A6| = 360 divides 9! (m = 9), so
    # the coset-action bound cannot decide and the Sylow scan proves absence.
    result = find_hall_subgroup(make_named("A6"), PrimeSet([2, 5]))
    assert set(result.budget_used) <= {"random_growth_steps", "sylow_combinations", "route"}
    assert result.budget_used
    # every join the absence proof builds is counted, pruned ones included
    assert result.budget_used["sylow_combinations"] > 0


@pytest.mark.parametrize(
    "spec, primes",
    [
        ("A9", [2, 3]),
        ("S9", [2, 3]),
        ("A8", [2, 5]),
        ("S8", [2, 5]),
        ("A8", [2, 7]),
        ("S8", [2, 7]),
        ("C2 wr S6", [2, 5]),
        ("PSL(2,13) x A5", [2, 7]),
    ],
    ids=lambda value: ",".join(map(str, value)) if isinstance(value, list) else value,
)
def test_the_scan_decides_at_every_order(spec, primes):
    # Each group is of order above 20,000 and within the coset bound (a Hall
    # {2,3}-subgroup of A9 would have index m = 35, and |A9| divides 35!),
    # so the scan decides what would otherwise stay unknown.  Measured at
    # 0.01-0.9 s each.
    g, pi = group_from_spec(spec), PrimeSet(primes)
    assert g.order() > 20_000
    assert not _fails_coset_bound(g, pi)
    start = time.perf_counter()
    result = find_hall_subgroup(g, pi)
    elapsed = time.perf_counter() - start
    assert result.status == "proven_absent"
    assert result.subgroup is None
    assert result.budget_used["route"] == "scan"
    assert elapsed < 10, f"search took {elapsed:.1f}s, budget 10s"


@pytest.mark.parametrize(
    "spec, primes, refusal",
    [
        (
            "A5 wr A5",
            [2, 3],
            "Sylow subgroup: enumerating group order 46656000000 exceeds cap 1000000",
        ),
        ("A9", [2, 5, 7], "Sylow system scan: combinations 3265920 exceeds cap 200000"),
    ],
    ids=["A5 wr A5", "A9"],
)
def test_a_refused_scan_says_why(spec, primes, refusal):
    # The first refusal comes from the enumeration cap on the Sylow search,
    # the second from the combination budget.  Measured at 0.2 s each.
    start = time.perf_counter()
    result = find_hall_subgroup(group_from_spec(spec), PrimeSet(primes))
    elapsed = time.perf_counter() - start
    assert (result.status, result.budget_used["route"]) == ("unknown", "cap")
    assert result.budget_used["scan_refused"] == refusal
    assert elapsed < 10, f"search took {elapsed:.1f}s, budget 10s"


def test_results_are_shared_and_read_only(a5):
    first = find_hall_subgroup(a5, PrimeSet([2, 5]))
    assert find_hall_subgroup(a5, PrimeSet([2, 5])) is first
    with pytest.raises(TypeError):
        first.budget_used["route"] = "scan"
    assert first.budget_used["route"] == "certificate"


def test_route_names_the_deciding_step(a5, s4):
    assert find_hall_subgroup(s4, PrimeSet([2, 3])).budget_used["route"] == "trivial"
    assert find_hall_subgroup(a5, PrimeSet([2, 3])).budget_used["route"] == "greedy"
    g = group_from_spec("C2 wr S6")
    result = find_hall_subgroup(g, PrimeSet([2, 3]))
    assert result.status == "proven_absent"
    # the bound fails on G itself: |G : O_{2,3}(G)| = 720 does not divide 5!
    assert result.budget_used["route"] == "certificate"
    assert result.budget_used["certificate_order"] == g.order() == 46080


def test_capped_certificate_keeps_the_verdict(monkeypatch):
    # A relabelled copy shares no cached results.  With a cap below its
    # order pi_core cannot enumerate, so there is no certificate, and the
    # same cap refuses the scan's Sylow search, so the group stays unknown.
    g = group_from_spec("C2 wr S6")
    g = conjugate_subgroup(g, Permutation(list(range(1, g.degree)) + [0]))
    pi = PrimeSet([2, 3])
    monkeypatch.setenv("HALLBOUND_CAP", "1000")
    with pytest.raises(CapExceeded, match="class-seed harvest"):
        pi_core(g, pi)
    result = find_hall_subgroup(g, pi)
    assert result.status == "unknown"
    assert result.budget_used["route"] == "cap"
    assert result.budget_used["scan_refused"].startswith("Sylow subgroup")


def test_memo_follows_the_enumeration_cap(monkeypatch):
    # A verdict that a small cap left unknown is not served once the cap is
    # lifted, with no cache cleared in between.  The relabelling differs
    # from the one above, so no earlier result is shared.
    g = group_from_spec("C2 wr S6")
    g = conjugate_subgroup(g, Permutation(list(range(2, g.degree)) + [0, 1]))
    pi = PrimeSet([2, 3])
    monkeypatch.setenv("HALLBOUND_CAP", "1000")
    capped = find_hall_subgroup(g, pi)
    assert (capped.status, capped.budget_used["route"]) == ("unknown", "cap")
    monkeypatch.delenv("HALLBOUND_CAP")
    lifted = find_hall_subgroup(g, pi)
    assert (lifted.status, lifted.budget_used["route"]) == ("proven_absent", "certificate")
    assert find_hall_subgroup(g, pi) is lifted


def _greedy_from_scratch(g, pi, target, rng):
    """Greedy growth as it was before joins extended the current chain:
    every candidate's chain is built from scratch."""
    tried = 0
    for _ in range(20):
        current = PermGroup.trivial(g.degree)
        stale = 0
        while current.order() < target and stale < 40:
            tried += 1
            x = g.random_element(rng)
            y = x ** pi.coprime_part_of(x.order())
            if y.is_identity or current.contains(y):
                stale += 1
                continue
            candidate = PermGroup(g.degree, current.generators + (y,))
            if target % candidate.order() == 0:
                current = candidate
                stale = 0
            else:
                stale += 1
        if current.order() == target:
            return current, tried
    return None, tried


def _subgroup_conjugates(g, sub):
    """Oracle for hall._conjugates: every conjugate of sub under g, breadth
    first from sub with g's generators applied in order, each keyed by the
    element set read off its own chain."""

    def key_of(s):
        return frozenset(x.images for x in s.elements())

    found = {key_of(sub): sub}
    queue = deque([sub])
    while queue:
        current = queue.popleft()
        for gen in g.generators:
            conj = conjugate_subgroup(current, gen)
            key = key_of(conj)
            if key not in found:
                found[key] = conj
                queue.append(conj)
    return list(found.values())


def _assert_conjugates_match_the_oracle(g):
    for p in prime_divisors(g.order()):
        sylow = sylow_subgroup(g, p)
        ours = [c.generators for c in _conjugates(g, sylow)]
        assert ours == [c.generators for c in _subgroup_conjugates(g, sylow)], (g, p)


def _scan_pairs():
    """The scale-3 pairs that the Sylow system scan decides."""
    for name, g, pi in _suite_pairs():
        if find_hall_subgroup(g, pi).budget_used["route"] == "scan":
            yield name, g, pi


def test_conjugate_walk_matches_the_element_keyed_oracle():
    scanned = 0
    for _, g, _ in _scan_pairs():
        _assert_conjugates_match_the_oracle(g)
        scanned += 1
    assert scanned == 11


@pytest.mark.property_based
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_conjugate_walk_matches_the_oracle_on_random_groups(seed):
    rng = random.Random(seed)
    degree = rng.randint(5, 7)
    gens = [random_permutation(rng, degree) for _ in range(rng.randint(1, 2))]
    _assert_conjugates_match_the_oracle(PermGroup(degree, gens))


def test_conjugate_walk_builds_no_chain(monkeypatch):
    # the 126 Sylow 5-subgroups of S7 are keyed by conjugating element sets
    g = make_named("S7")
    sylow = sylow_subgroup(g, 5)
    sylow.order()
    built = []
    init = group.StabChain.__init__

    def recording_init(chain, degree, generators, base=None):
        built.append(len(generators))
        init(chain, degree, generators, base)

    monkeypatch.setattr(group.StabChain, "__init__", recording_init)
    assert len(list(_conjugates(g, sylow))) == 126
    assert built == []


def _count_joins(monkeypatch, g, pi):
    """Count the scan's PermGroup.adjoin calls, and the conjugates it has
    found at the first of them.  sylow_subgroup also grows by adjoin, so
    the memoized Sylow subgroups are built before counting starts."""
    for p in pi:
        sylow_subgroup(g, p)
    joins = [0]
    found = [0]
    at_first_join = []
    adjoin = PermGroup.adjoin
    walk = hall._conjugates

    def counting_adjoin(self, new, divisor=None):
        if not joins[0]:
            at_first_join.append(found[0])
        joins[0] += 1
        return adjoin(self, new, divisor)

    def counting_walk(g, sub):
        for conj in walk(g, sub):
            found[0] += 1
            yield conj

    monkeypatch.setattr(PermGroup, "adjoin", counting_adjoin)
    monkeypatch.setattr(hall, "_conjugates", counting_walk)
    return joins, at_first_join


def test_a_scan_over_the_budget_is_refused_before_any_join(monkeypatch):
    # S7 with pi = {2,5,7}: |G : P_5| * |G : P_7| = 1008 * 720 = 725,760 is
    # above the budget, so both lists are finished first; they hold
    # 126 * 120 = 15,120 combinations, one more than the budget allows.
    g, pi = make_named("S7"), PrimeSet([2, 5, 7])
    target = pi.part_of(g.order())
    monkeypatch.setattr(hall, "SYLOW_COMBINATION_BUDGET", 15_119)
    joins, _ = _count_joins(monkeypatch, g, pi)
    built = [0]
    with pytest.raises(CapExceeded, match="Sylow system scan: combinations") as info:
        next(_sylow_generated(g, pi, target, built))
    assert (info.value.needed, info.value.cap) == (15_120, 15_119)
    assert joins == [0] and built == [0]
    # at the exact count the scan runs: no join of the reference Sylow
    # 2-subgroup with a Sylow 5-subgroup has order dividing 560
    monkeypatch.setattr(hall, "SYLOW_COMBINATION_BUDGET", 15_120)
    assert next(_sylow_generated(g, pi, target, built), None) is None
    assert joins == built == [126]


def test_a_scan_within_the_budget_walks_lazily(monkeypatch):
    # PSL(2,13) with pi = {2,3,7}: the reference factor is a Sylow
    # 7-subgroup and |G : P_2| * |G : P_3| = 273 * 364 = 99,372 is within
    # the budget, so the first join reads one conjugate, not all 182.
    g, pi = make_named("PSL(2,13)"), PrimeSet([2, 3, 7])
    target = pi.part_of(g.order())
    joins, at_first_join = _count_joins(monkeypatch, g, pi)
    built = [0]
    assert not any(c.order() == target for c in _sylow_generated(g, pi, target, built))
    assert at_first_join == [1]
    assert joins[0] == built[0] > 0


def _scan_from_scratch(g, pi, target):
    """The Sylow system scan's yields (as generator tuples) and its join
    count, with every join's chain built from scratch."""
    primes = [p for p in pi if g.order() % p == 0]
    sylows = {p: sylow_subgroup(g, p) for p in primes}
    fixed = max(primes, key=lambda p: (sylows[p].order(), p))
    conjugate_lists = [_subgroup_conjugates(g, sylows[p]) for p in primes if p != fixed]
    yields, built = [], [0]

    def walk(gens, level):
        for factor in conjugate_lists[level]:
            candidate = PermGroup(g.degree, gens + list(factor.generators))
            built[0] += 1
            if target % candidate.order():
                continue
            if level + 1 == len(conjugate_lists):
                yields.append(candidate.generators)
            else:
                walk(gens + list(factor.generators), level + 1)

    walk(list(sylows[fixed].generators), 0)
    return yields, built[0]


@pytest.mark.parametrize(
    "spec, primes",
    [("A5", [2, 3]), ("A6", [2, 5]), ("PSL(2,11)", [2, 5]), ("PSL(2,13)", [2, 3, 7])],
)
def test_scan_decides_as_the_from_scratch_joins(spec, primes):
    g, pi = group_from_spec(spec), PrimeSet(primes)
    target = pi.part_of(g.order())
    built = [0]
    ours = [c.generators for c in _sylow_generated(g, pi, target, built)]
    assert (ours, built[0]) == _scan_from_scratch(g, pi, target)


@pytest.mark.parametrize(
    "spec, primes",
    [
        ("A5", [2, 3]),
        ("A5 wr C2", [2, 3]),
        ("PSL(2,13)", [2, 3]),
        ("S7", [2, 3]),
        ("A5", [2, 5]),
        ("PSL(2,7)", [2, 7]),
        ("S5", [2, 5]),
    ],
)
def test_greedy_decides_as_the_from_scratch_growth(spec, primes):
    # extending the current chain changes only the candidates' strong
    # generators, never which candidates are kept
    g, pi = group_from_spec(spec), PrimeSet(primes)
    target = pi.part_of(g.order())
    ours = _greedy_phase(g, pi, target, random.Random(SEARCH_SEED), 20)
    theirs = _greedy_from_scratch(g, pi, target, random.Random(SEARCH_SEED))
    assert ours[1] == theirs[1]
    assert (ours[0] is None) == (theirs[0] is None)
    if ours[0] is not None:
        assert ours[0].generators == theirs[0].generators
        assert ours[0].order() == target


def test_greedy_extends_chains_instead_of_rebuilding_them(monkeypatch):
    # S7 with pi = {2,5,7} has no Hall subgroup, so greedy makes all of its
    # tries.  Building each candidate's chain from scratch formed 50,983
    # products; extending the current chain, with the Lagrange check first,
    # forms about 20,000.
    g, pi = make_named("S7"), PrimeSet([2, 5, 7])
    g.order()
    count = [0]

    def counting_mul(a, b):
        count[0] += 1
        return _mul(a, b)

    built_from = []
    init = group.StabChain.__init__

    def recording_init(chain, degree, generators, base=None):
        built_from.append(len(generators))
        init(chain, degree, generators, base)

    monkeypatch.setattr(group, "_mul", counting_mul)
    monkeypatch.setattr(group.StabChain, "__init__", recording_init)
    witness, tried = _greedy_phase(g, pi, pi.part_of(g.order()), random.Random(SEARCH_SEED), 20)
    assert witness is None
    assert tried == 1134
    assert count[0] < 25_000
    # the only chains built by the constructor are the trivial start groups
    assert built_from and set(built_from) == {0}


def test_coset_bound_settles_reports_above_the_scan_cap():
    # The bound decides both searches before any scan; without it the first
    # would end unknown, as the enumeration cap refuses the Sylow search in
    # A5 wr A5 (order 46,656,000,000).  Measured at about 6 s together.
    start = time.perf_counter()
    report = compute_invariant_report(
        "A5 wr A5", group_from_spec("A5 wr A5"), PrimeSet([2, 5]), 5
    )
    assert report.hall_status == "proven_absent"
    assert report.lambda_p == 2
    assert report.kernel_orders == (777600000, 46656000000)
    report = compute_invariant_report(
        "C2 wr S6", group_from_spec("C2 wr S6"), PrimeSet([2, 3]), 3
    )
    assert report.hall_status == "proven_absent"
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"reports took {elapsed:.1f}s, budget 30s"


def test_theorem_holds_at_non_p_soluble_length_two():
    # pi = {2,3,5} covers |A5 wr A5|, so H = G.  The first checks of the
    # bound at lambda_p = 2; the center in h*(H)'s layer step is read off
    # the action, since the group (order 46,656,000,000) is far above the
    # enumeration cap.  Measured at about 2 s together.
    g = group_from_spec("A5 wr A5")
    start = time.perf_counter()
    for p in (3, 5):
        report = compute_invariant_report("A5 wr A5", g, PrimeSet([2, 3, 5]), p)
        assert report.hall_status == "found"
        assert report.hall_order == 46656000000
        assert report.lambda_p == 2
        assert report.kernel_orders == (777600000, 46656000000)
        assert report.h_star_hall == 2
        assert report.theorem and report.proposition
        assert report.lemma_fitting and report.kernel_lemma
    elapsed = time.perf_counter() - start
    assert elapsed < 15, f"reports took {elapsed:.1f}s, budget 15s"


def _bound_fires(g, pi) -> bool:
    """The coset-action bound fails on g or on one of its socle factors."""
    return any(_bound_certificate(g, pi, factors) is not None for factors in (False, True))


def _scan_finds_hall(g, pi) -> bool:
    """The exact Sylow system scan on its own, without greedy or bound."""
    target = pi.part_of(g.order())
    return any(c.order() == target for c in _sylow_generated(g, pi, target, [0]))


def _suite_pairs():
    """Every distinct (name, group, pi) of the scale-3 suite."""
    seen = set()
    for name in suite_specs(3):
        g = group_from_spec(name)
        for pi, _ in valid_instances(g):
            if (name, pi) not in seen:
                seen.add((name, pi))
                yield name, g, pi


def test_coset_bound_agrees_with_the_scan_on_the_suite():
    present = absent = decided = 0
    for name, g, pi in _suite_pairs():
        fires = _bound_fires(g, pi)
        result = find_hall_subgroup(g, pi)
        if result.found:
            assert is_hall_subgroup(result.subgroup, g, pi)
            assert not fires, (name, pi)
            present += 1
            continue
        assert result.budget_used["route"] in {"scan", "certificate"}, (name, pi)
        assert not _scan_finds_hall(g, pi), (name, pi)
        absent += 1
        decided += fires
    assert (present, absent) == (36, 25)
    assert decided >= 15


def _first_restarts(g, pi):
    target = pi.part_of(g.order())
    rng = random.Random(SEARCH_SEED)
    return _greedy_phase(g, pi, target, rng, GREEDY_RESTARTS[0])


def test_bound_on_g_decides_after_the_first_restarts():
    # The bound on G itself costs little once G's seed closures are known,
    # so it runs right after the first restarts, before the scan.
    decided = []
    for name, g, pi in _suite_pairs():
        if not _fails_coset_bound(g, pi):
            continue
        result = find_hall_subgroup(g, pi)
        assert result.status == "proven_absent", (name, pi)
        assert result.budget_used["route"] == "certificate"
        assert result.budget_used["certificate_order"] == g.order()
        witness, steps = _first_restarts(g, pi)
        assert witness is None
        assert result.budget_used["random_growth_steps"] == steps, (name, pi)
        decided.append((name, pi))
    assert len(decided) == 14


def test_below_the_gate_the_scan_follows_the_first_restarts():
    # |A5 x S4| divides 5! (m = 5), so the bound on G cannot decide: the
    # scan proves absence after the first restarts, before any socle is
    # computed.
    g, pi = group_from_spec("A5 x S4"), PrimeSet([2, 5])
    assert not _fails_coset_bound(g, pi)
    result = find_hall_subgroup(g, pi)
    assert result.status == "proven_absent"
    assert result.budget_used["route"] == "scan"
    assert result.budget_used["random_growth_steps"] == _first_restarts(g, pi)[1]


def test_the_scan_decides_before_the_socle_factors():
    # |A5 x A5 x C7| = 25,200 divides 63! (m = 63), so the bound on G cannot
    # decide, and the scan proves absence in 25 joins after the first
    # restarts, before any socle is computed.
    g, pi = group_from_spec("A5 x A5 x C7"), PrimeSet([2, 5])
    assert not _fails_coset_bound(g, pi)
    result = find_hall_subgroup(g, pi)
    assert result.status == "proven_absent"
    assert result.budget_used["route"] == "scan"
    assert result.budget_used["sylow_combinations"] == 25
    assert result.budget_used["random_growth_steps"] == _first_restarts(g, pi)[1]


def _refused_scan(monkeypatch, g, pi):
    # A combination budget below the 25 joins of A5 x A5 x C7 refuses the
    # scan.  The memo is bypassed, so the refused result is not served later.
    monkeypatch.setattr(hall, "SYLOW_COMBINATION_BUDGET", 24)
    return hall.hall_search.__wrapped__(g, pi, hall.enumeration_cap())


def test_coset_bound_proves_absence_above_the_exhaustive_cap(monkeypatch):
    # With the scan over its cap, the socle factor A5 proves absence: it
    # would need a Hall {2,5}-subgroup of index 3, and |A5| = 60 does not
    # divide 3!.
    g = group_from_spec("A5 x A5 x C7")
    assert g.order() == 25200
    result = _refused_scan(monkeypatch, g, PrimeSet([2, 5]))
    assert result.status == "proven_absent"
    assert result.subgroup is None
    assert result.budget_used["route"] == "certificate"
    assert result.budget_used["certificate_order"] == 60
    assert result.budget_used["scan_refused"] == (
        "Sylow system scan: combinations 25 exceeds cap 24"
    )


def test_socle_factor_bound_runs_after_every_restart_above_the_gate(monkeypatch):
    # Once the scan is refused, all the restarts run before the socle factor
    # A5 fails the bound.
    g, pi = group_from_spec("A5 x A5 x C7"), PrimeSet([2, 5])
    assert not _fails_coset_bound(g, pi)
    result = _refused_scan(monkeypatch, g, pi)
    assert result.status == "proven_absent"
    assert result.budget_used["route"] == "certificate"
    assert result.budget_used["certificate_order"] == 60
    target = pi.part_of(g.order())
    rng = random.Random(SEARCH_SEED)
    _, steps = _greedy_phase(g, pi, target, rng, sum(GREEDY_RESTARTS))
    assert result.budget_used["random_growth_steps"] == steps


def _relabelled(spec, seed):
    g = make_named(spec)
    sigma = list(range(g.degree))
    random.Random(seed).shuffle(sigma)
    return conjugate_subgroup(g, Permutation(sigma))


@pytest.mark.parametrize("spec, seed", [("A7", 8), ("A8", 26)])
def test_a_late_greedy_witness_comes_from_the_scan(spec, seed):
    # These relabelled copies would find their Hall {2,3}-subgroups on a
    # later greedy restart (A7 on the 17th); the scan finds one after the
    # first restarts instead.
    g, pi = _relabelled(spec, seed), PrimeSet([2, 3])
    assert _first_restarts(g, pi)[0] is None
    result = find_hall_subgroup(g, pi)
    assert result.budget_used["route"] == "scan"
    assert result.budget_used["random_growth_steps"] == _first_restarts(g, pi)[1]
    assert is_hall_subgroup(result.subgroup, g, pi)


@pytest.mark.parametrize(
    "spec, primes, refusal",
    [
        ("S10", [2], "Sylow subgroup: enumerating group order 3628800 exceeds cap 1000000"),
        ("A5 wr A5", [3], "Sylow subgroup: enumerating group order 46656000000"),
        ("PSL(2,13) x A5", [2, 3, 7, 13], "Sylow system scan: combinations 993720"),
    ],
    ids=["S10", "A5 wr A5", "PSL(2,13) x A5"],
)
def test_a_refused_scan_falls_back_to_the_last_restarts(spec, primes, refusal):
    # The first restarts miss each Hall subgroup and the scan is refused, so
    # the remaining restarts of the same stream find the witness that all
    # twenty in a row would find (S10 on the twelfth).  Measured at under
    # 0.1 s each.
    g, pi = group_from_spec(spec), PrimeSet(primes)
    assert _first_restarts(g, pi)[0] is None
    start = time.perf_counter()
    result = find_hall_subgroup(g, pi)
    elapsed = time.perf_counter() - start
    assert result.budget_used["route"] == "greedy"
    assert result.budget_used["scan_refused"].startswith(refusal)
    target = pi.part_of(g.order())
    witness, steps = _greedy_from_scratch(g, pi, target, random.Random(SEARCH_SEED))
    assert result.subgroup.generators == witness.generators
    assert result.budget_used["random_growth_steps"] == steps
    assert elapsed < 10, f"search took {elapsed:.1f}s, budget 10s"


def _coset_bound_is_sound(g):
    order = g.order()
    if order > 20_000:
        return
    primes = prime_divisors(order) if order > 1 else ()
    for size in range(1, len(primes)):
        for chosen in itertools.combinations(primes, size):
            pi = PrimeSet(chosen)
            if _bound_fires(g, pi):
                assert not _scan_finds_hall(g, pi), (g, pi)


def test_coset_bound_is_sound_on_fixture_groups(s4, a4, a5, sl25):
    for g in (s4, a4, a5, sl25):
        _coset_bound_is_sound(g)


@pytest.mark.property_based
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_coset_bound_is_sound_on_random_groups(seed):
    rng = random.Random(seed)
    degree = rng.randint(5, 7)
    gens = [random_permutation(rng, degree) for _ in range(rng.randint(1, 2))]
    _coset_bound_is_sound(PermGroup(degree, gens))


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


def test_heredity_builds_no_coset_action():
    # G/N has index 20,160 here, over the 20,000 quotient-degree cap; the
    # image HN/N is read off |H : H n N| instead.
    g = group_from_spec("A8 x C2")
    center = PermGroup(g.degree, [g.generators[-1]])
    assert center.order() == 2 and is_normal(center, g)
    report = check_hall_heredity(g, sylow_subgroup(g, 2), PrimeSet([2]), center)
    assert report.intersection_is_hall and report.image_is_hall


def test_heredity_reads_orders_only(monkeypatch, s4, a4):
    # |H n N| comes from |H| |N| / |HN|: no group is enumerated, so a cap
    # below |H| = 8 does not stop the check
    hall = sylow_subgroup(s4, 2)
    monkeypatch.setenv("HALLBOUND_CAP", "5")
    assert check_hall_heredity(s4, hall, PrimeSet([2]), a4).holds


def test_no_nilpotent_hall_in_a5(a5):
    assert confirm_no_nilpotent_hall_2p(a5, 3)
    assert confirm_no_nilpotent_hall_2p(a5, 5)


def test_no_nilpotent_hall_check_agrees_with_the_scan_oracle(monkeypatch):
    # the check is one centralizer: it walks no Sylow system scan
    groups = [make_named(name) for name in (
        "A5", "A6", "PSL(2,7)", "PSL(2,11)", "PSL(2,13)", "A7", "A8", "A9"
    )]
    cases = [(g, p) for g in groups for p in prime_divisors(g.order()) if p != 2]
    oracle = [no_nilpotent_hall_2p_oracle(g, p) for g, p in cases]
    monkeypatch.setattr(hall, "_sylow_generated", None)
    assert [confirm_no_nilpotent_hall_2p(g, p) for g, p in cases] == oracle
    assert len(cases) == 21 and all(oracle)


def test_no_nilpotent_hall_preconditions(a5, s4):
    with pytest.raises(PreconditionError):
        confirm_no_nilpotent_hall_2p(a5, 2)
    with pytest.raises(PreconditionError):
        confirm_no_nilpotent_hall_2p(a5, 7)
    with pytest.raises(PreconditionError):
        confirm_no_nilpotent_hall_2p(s4, 3)
