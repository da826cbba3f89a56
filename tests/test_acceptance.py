"""Release gate: seven acceptance criteria, one test per criterion, plus
the behaviour gate: the scale-3 suite JSON keeps its frozen digest.

pytest -v prints one PASSED/FAILED row per criterion; each test also prints
a summary line with its measured runtime.  Expected values are frozen from
hand derivations plus the exhaustive lattice oracles, which are implemented
independently of the production series computations they guard.
"""

import hashlib
import itertools
import json
import random
import time
from functools import lru_cache

import pytest

from hallbound import (
    Permutation,
    PrimeSet,
    center,
    check_hall_heredity,
    confirm_no_nilpotent_hall_2p,
    conjugate_subgroup,
    derived_series,
    derived_subgroup,
    factor_group,
    find_hall_subgroup,
    fitting_subgroup,
    generalized_fitting_height,
    generalized_fitting_subgroup,
    group_from_spec,
    intersection,
    is_p_soluble,
    is_simple,
    is_soluble,
    layer,
    make_named,
    non_p_soluble_length,
    p_core,
    p_length_value,
    pi_core,
    pointwise_stabilizer,
    quotient_by,
    soluble_radical,
    span,
    suite_specs,
    sylow_subgroup,
    valid_instances,
    compute_invariant_report,
    wreath_product,
)
from hallbound.primes import prime_divisors
from hallbound.verify import SCHEMA_VERSION

from conftest import random_permutation
from oracles import lambda_oracle, normal_subgroup_lattice, p_length_oracle

SOLUBLE_CORPUS = {
    "C6", "C12", "S3", "A4", "D12", "S4", "SL(2,3)", "C2 x A4", "S3 x C4",
}
REQUIRED_FOUND_INSTANCES = {
    ("A5", (2, 3), 3),
    ("PSL(2,7)", (2, 3), 3),
    ("PSL(2,11)", (2, 3), 3),
    ("A5 wr C2", (2, 3), 3),
}
# sha256 of `hallbound suite --scale 3 --json`, newline included
SUITE_SCALE_3_SHA256 = "cbc00789d51f9adbf6e19755496dd292073fbe957e0baa10cb229878ea93f218"


@lru_cache(maxsize=None)
def corpus_groups():
    return tuple((name, group_from_spec(name)) for name in suite_specs(3))


@pytest.fixture(scope="module")
def suite_reports():
    reports = []
    for name, g in corpus_groups():
        for pi, p in valid_instances(g):
            reports.append(compute_invariant_report(name, g, pi, p))
    return reports


# --- independent oracles used only by criterion 4 -------------------------


def _perfect_part(g):
    return derived_series(g)[-1]


def _is_quasisimple(h):
    if h.is_trivial() or not derived_subgroup(h).same_group_as(h):
        return False
    return is_simple(factor_group(h, center(h)))


def subnormal_quasisimple_product(g):
    """Product of all subnormal quasisimple subgroups, by exhaustive descent.

    Every subnormal chain can be intersected into the perfect part of each
    node, so descending through the perfect parts of proper normal subgroups
    visits every subnormal quasisimple subgroup.
    """
    gens = []
    seen = set()

    def descend(h):
        key = (h.order(), h.generators)
        if key in seen or h.is_trivial():
            return
        seen.add(key)
        if _is_quasisimple(h):
            gens.extend(h.generators)
        for n in normal_subgroup_lattice(h):
            if 1 < n.order() < h.order():
                descend(_perfect_part(n))

    descend(_perfect_part(g))
    return span(g.degree, gens)


def sylow_conjugate_intersection(g, p):
    """Intersection of every conjugate of one Sylow p-subgroup."""
    sylow = sylow_subgroup(g, p)
    if sylow.is_trivial():
        return sylow

    def key_of(s):
        return frozenset(x.images for x in s.element_list())

    current = sylow
    seen = {key_of(sylow)}
    frontier = [sylow]
    while frontier:
        s = frontier.pop()
        for t in g.generators:
            conj = conjugate_subgroup(s, t)
            k = key_of(conj)
            if k not in seen:
                seen.add(k)
                frontier.append(conj)
                current = intersection(current, conj)
    return current


# --- the seven criteria ---------------------------------------------------


def test_criterion_1_exact_invariant_table():
    start = time.perf_counter()
    a4 = make_named("A4")
    s4 = make_named("S4")
    a5 = make_named("A5")
    sl25 = make_named("SL(2,5)")

    assert non_p_soluble_length(a5, 3) == 1
    assert non_p_soluble_length(a5, 5) == 1
    assert non_p_soluble_length(a5, 2) == 1
    assert non_p_soluble_length(s4, 2) == 0
    assert non_p_soluble_length(s4, 3) == 0
    assert non_p_soluble_length(make_named("PSL(2,7)"), 3) == 1
    assert non_p_soluble_length(wreath_product(a5, make_named("C2")), 3) == 1
    assert non_p_soluble_length(wreath_product(a5, a5), 5) == 2

    assert generalized_fitting_height(a4).height == 2
    assert generalized_fitting_height(s4).height == 3
    assert generalized_fitting_height(a5).height == 1
    assert generalized_fitting_height(sl25).height == 1

    assert p_length_value(s4, 2) == 2
    assert p_length_value(a4, 2) == 1

    v4 = span(4, [
        Permutation.from_cycles(4, [(0, 1), (2, 3)]),
        Permutation.from_cycles(4, [(0, 2), (1, 3)]),
    ])
    assert fitting_subgroup(s4).same_group_as(v4)
    assert generalized_fitting_subgroup(s4).same_group_as(v4)
    assert layer(sl25).same_group_as(sl25)
    assert layer(sl25).order() == 120

    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"exact table took {elapsed:.1f}s, budget 60s"
    print(f"criterion 1 (exact invariant table): PASS [{elapsed:.1f}s]")


def test_criterion_2_height_bound_on_every_found_instance(suite_reports):
    start = time.perf_counter()
    found = {
        (r.name, r.pi, r.p) for r in suite_reports if r.hall_status == "found"
    }
    assert REQUIRED_FOUND_INSTANCES <= found
    violations = [
        (r.name, r.pi, r.p)
        for r in suite_reports
        if r.hall_status == "found" and r.theorem is not True
    ]
    assert violations == []
    for r in suite_reports:
        if r.name in SOLUBLE_CORPUS:
            assert r.hall_status == "found", (r.name, r.pi, r.p)
            assert r.theorem is True, (r.name, r.pi, r.p)
    elapsed = time.perf_counter() - start
    print(f"criterion 2 (height bound on {len(found)} found instances): PASS [{elapsed:.1f}s]")


def test_criterion_3_two_length_bound_with_proof_route(suite_reports):
    start = time.perf_counter()
    evaluated = 0
    for r in suite_reports:
        if r.two_length_hall is None:
            continue
        evaluated += 1
        assert r.corollary is True, (r.name, r.pi, r.p)
        assert r.corollary_route is True, (r.name, r.pi, r.p)
        assert r.lambda_p <= 2 * r.two_length_hall + 1
    assert evaluated > 0
    elapsed = time.perf_counter() - start
    print(f"criterion 3 (two-length bound on {evaluated} soluble-Hall instances): PASS [{elapsed:.1f}s]")


def test_criterion_4_oracle_equivalences():
    start = time.perf_counter()
    small = [(name, g) for name, g in corpus_groups() if g.order() <= 2000]
    assert small, "corpus lost its small groups"
    series_pairs = layer_pairs = core_pairs = length_pairs = radical_pairs = 0

    def largest_normal(g, keep):
        return max((n for n in normal_subgroup_lattice(g) if keep(n)), key=lambda n: n.order())

    for name, g in small:
        primes = prime_divisors(g.order())
        for size in range(1, len(primes) + 1):
            for pi in map(PrimeSet, itertools.combinations(primes, size)):
                oracle = largest_normal(g, lambda n: pi.is_pi_number(n.order()))
                assert pi_core(g, pi).same_group_as(oracle), (name, tuple(pi))
                radical_pairs += 1
        assert soluble_radical(g).same_group_as(largest_normal(g, is_soluble)), name
        radical_pairs += 1
        for p in primes:
            assert non_p_soluble_length(g, p) == lambda_oracle(g, p), (name, p)
            series_pairs += 1
            assert p_core(g, p).same_group_as(sylow_conjugate_intersection(g, p)), (name, p)
            core_pairs += 1
            if g.order() <= 1000 and is_p_soluble(g, p):
                assert p_length_value(g, p) == p_length_oracle(g, p), (name, p)
                length_pairs += 1
        assert layer(g).same_group_as(subnormal_quasisimple_product(g)), name
        layer_pairs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 600, f"oracle sweep took {elapsed:.1f}s, budget 600s"
    print(
        "criterion 4 (oracle equivalences: "
        f"{series_pairs} series, {layer_pairs} layers, {core_pairs} cores, "
        f"{length_pairs} lengths, {radical_pairs} pi-cores and soluble radicals): "
        f"PASS [{elapsed:.1f}s]"
    )


def test_criterion_5_kernel_and_heredity_properties(suite_reports):
    start = time.perf_counter()
    for r in suite_reports:
        assert r.kernel_lemma is True, (r.name, r.pi, r.p)
        if r.hall_status == "found":
            assert r.lemma_fitting is True, (r.name, r.pi, r.p)
            assert r.proposition is True, (r.name, r.pi, r.p)

    heredity_pairs = 0
    for name, g in corpus_groups():
        if g.order() > 2000:
            continue
        checked_pis = set()
        for pi, _ in valid_instances(g):
            if tuple(pi) in checked_pis:
                continue
            checked_pis.add(tuple(pi))
            result = find_hall_subgroup(g, pi)
            if not result.found:
                continue
            for n in normal_subgroup_lattice(g):
                if 1 < n.order() < g.order():
                    report = check_hall_heredity(g, result.subgroup, pi, n)
                    assert report.holds, (name, tuple(pi), n.order())
                    heredity_pairs += 1

    equivalence_pairs = 0
    for name, g in corpus_groups():
        for p in prime_divisors(g.order()):
            assert (non_p_soluble_length(g, p) == 0) == is_p_soluble(g, p), (name, p)
            equivalence_pairs += 1
    elapsed = time.perf_counter() - start
    print(
        f"criterion 5 (kernel lemma corpus-wide, {heredity_pairs} heredity pairs, "
        f"{equivalence_pairs} solubility equivalences): PASS [{elapsed:.1f}s]"
    )


def test_criterion_6_no_nilpotent_hall_confirmation():
    start = time.perf_counter()
    cases = 0
    for name in ("A5", "A6", "PSL(2,7)", "PSL(2,11)"):
        g = make_named(name)
        for p in prime_divisors(g.order()):
            if p == 2:
                continue
            assert confirm_no_nilpotent_hall_2p(g, p), (name, p)
            cases += 1
    assert find_hall_subgroup(make_named("A5"), PrimeSet([2, 5])).status == "proven_absent"
    elapsed = time.perf_counter() - start
    assert elapsed < 300, f"confirmation took {elapsed:.1f}s, budget 300s"
    print(f"criterion 6 (no nilpotent Hall subgroup, {cases} cases): PASS [{elapsed:.1f}s]")


def test_criterion_7_engine_soundness():
    start = time.perf_counter()
    membership_groups = 0
    for name, g in corpus_groups():
        if g.order() > 5000:
            continue
        members = {x.images for x in g.element_list(5000)}
        rng = random.Random(f"membership:{name}")
        for _ in range(100):
            assert g.random_element(rng).images in members
        for _ in range(100):
            x = random_permutation(rng, g.degree)
            assert g.contains(x) == (x.images in members)
        membership_groups += 1

    for name, g in corpus_groups():
        order = g.order()
        for point in range(g.degree):
            stab = pointwise_stabilizer(g, [point])
            assert len(g.orbit(point)) * stab.order() == order, (name, point)
        rng = random.Random(f"lagrange:{name}")
        for _ in range(5):
            assert order % g.random_element(rng).order() == 0
        assert order % derived_subgroup(g).order() == 0

    quotient_count = 0
    for name, g in corpus_groups():
        if g.order() > 2000:
            continue
        for n in normal_subgroup_lattice(g):
            if not 1 < n.order() < g.order():
                continue
            q = quotient_by(g, n)
            rng = random.Random(f"quotient:{name}:{n.order()}")
            for _ in range(50):
                x = g.random_element(rng)
                y = g.random_element(rng)
                assert q.image(x * y) == q.image(x) * q.image(y)
            quotient_count += 1
    elapsed = time.perf_counter() - start
    print(
        f"criterion 7 (membership on {membership_groups} groups, orbit-stabilizer "
        f"corpus-wide, {quotient_count} quotients): PASS [{elapsed:.1f}s]"
    )


def test_suite_json_digest_is_frozen(suite_reports):
    """Behaviour gate: the scale-3 reports, sorted and serialized exactly as
    `hallbound suite --scale 3 --json` prints them, keep their digest."""
    reports = sorted(suite_reports, key=lambda r: (r.name, tuple(r.pi), r.p))
    payload = {
        "schema": SCHEMA_VERSION,
        "scale": 3,
        "reports": [r.to_dict() for r in reports],
    }
    text = json.dumps(payload, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == SUITE_SCALE_3_SHA256
    print(f"suite digest ({len(reports)} reports): PASS")
