"""Kernel series, non-p-soluble length, and the lattice-based oracles."""

import ast
import random
import time

import pytest

from conftest import SRC
from oracles import lambda_oracle, normal_subgroup_lattice, p_length_oracle
from hallbound import (
    PermGroup,
    Permutation,
    PrimeSet,
    QuotientMap,
    check_kernel_lemma,
    clear_caches,
    compute_invariant_report,
    factor_group,
    generalized_fitting_height,
    group_from_spec,
    is_normal,
    is_p_soluble,
    is_soluble,
    kernel_series,
    make_named,
    non_p_soluble_length,
    p_kernel,
    p_length_value,
    p_soluble_radical,
    socle,
    symmetric_group,
    wreath_product,
)
from hallbound import length, quotient
from hallbound.group import ActionMap
from hallbound.errors import CapExceeded, PreconditionError
from hallbound.primes import prime_divisors


def test_p_kernel_of_p_soluble_group_is_whole(s4):
    assert p_kernel(s4, 3).same_group_as(s4)
    assert p_kernel(s4, 2).same_group_as(s4)


def test_p_kernel_of_simple_group_is_whole(a5):
    assert p_kernel(a5, 5).same_group_as(a5)


def test_p_kernel_of_full_order_is_the_group_itself():
    s5 = make_named("S5")
    clear_caches()
    assert p_kernel(s5, 5) is s5


def test_kernel_series_empty_for_p_soluble(s4):
    series = kernel_series(s4, 3)
    assert series.length == 0
    assert series.kernels == ()
    assert series.socle_factor_counts == ()


def test_kernel_series_of_a5(a5):
    series = kernel_series(a5, 5)
    assert series.length == 1
    assert [k.order() for k in series.kernels] == [60]
    assert series.socle_factor_counts == (1,)


def test_kernel_series_never_reads_a_trivial_kernel_as_the_end(monkeypatch):
    g = wreath_product(make_named("A5"), make_named("C2"))
    # G's action on its own points, whose kernel is trivial
    monkeypatch.setattr(
        length,
        "_factor_action",
        lambda g, factors: ActionMap(g, g.degree, lambda x: list(x.images)),
    )
    clear_caches()
    try:
        with pytest.raises(AssertionError, match="failed to ascend"):
            kernel_series(g, 3)
    finally:
        clear_caches()


KERNEL_LEMMA_CASES = [
    ("A5 wr C2", 3, 3600, 1),
    ("S5", 5, 60, 0),
    ("A5 x SL(2,3)", 5, 1440, 0),
    ("S4", 3, None, 0),
]


@pytest.mark.parametrize(
    "name, p, preimage_order, steps",
    KERNEL_LEMMA_CASES,
    ids=[f"{name}-{p}-{order}" for name, p, order, _ in KERNEL_LEMMA_CASES],
)
def test_kernel_lemma_runs_no_second_step(monkeypatch, name, p, preimage_order, steps):
    g = group_from_spec(name)
    series = kernel_series(g, p)
    socle_preimage = series.socle_preimage
    assert (socle_preimage and socle_preimage.order()) == preimage_order
    calls = []
    original = length._factor_action

    def counted(stage, factors):
        calls.append(stage)
        return original(stage, factors)

    monkeypatch.setattr(length, "_factor_action", counted)
    assert check_kernel_lemma(g, p).holds
    # g's series is cached, and a p-kernel that is all of g is g itself, so
    # only a proper p-kernel (A5 wr C2's, of order 3600) runs its own step.
    assert len(calls) == steps


def test_kernel_series_of_wreath_product():
    g = wreath_product(make_named("A5"), make_named("C2"))
    series = kernel_series(g, 3)
    assert series.length == 1
    assert [k.order() for k in series.kernels] == [3600]
    assert series.socle_factor_counts == (2,)


def test_kernel_series_is_ascending_chain_of_normals(a5):
    g = wreath_product(make_named("A5"), make_named("C2"))
    series = kernel_series(g, 3)
    previous_order = 0
    for kernel in series.kernels:
        assert kernel.order() > previous_order
        assert is_normal(kernel, g)
        previous_order = kernel.order()


def test_non_p_soluble_length_values(s4, a5):
    assert non_p_soluble_length(s4, 2) == 0
    assert non_p_soluble_length(s4, 3) == 0
    assert non_p_soluble_length(a5, 2) == 1
    assert non_p_soluble_length(a5, 3) == 1
    assert non_p_soluble_length(a5, 5) == 1
    assert non_p_soluble_length(make_named("PSL(2,7)"), 3) == 1


def test_length_zero_iff_p_soluble(a5, s4):
    for g in (a5, s4, make_named("SL(2,5)"), make_named("S5")):
        for p in (2, 3, 5):
            assert (non_p_soluble_length(g, p) == 0) == is_p_soluble(g, p)


def test_validates_prime(s4):
    with pytest.raises(PreconditionError):
        non_p_soluble_length(s4, 6)


def test_normal_subgroup_lattice_of_s4(s4):
    orders = sorted(h.order() for h in normal_subgroup_lattice(s4))
    assert orders == [1, 4, 12, 24]


def test_normal_subgroup_lattice_of_simple_group(a5):
    orders = sorted(h.order() for h in normal_subgroup_lattice(a5))
    assert orders == [1, 60]


def test_normal_subgroup_lattice_of_cyclic_group():
    orders = sorted(h.order() for h in normal_subgroup_lattice(make_named("C12")))
    assert orders == [1, 2, 3, 4, 6, 12]


def test_normal_subgroup_lattice_cap():
    with pytest.raises(CapExceeded):
        normal_subgroup_lattice(symmetric_group(7))


def test_lambda_oracle_matches_kernel_series(a5, s4):
    for g, p in ((a5, 2), (a5, 3), (a5, 5), (s4, 2), (s4, 3)):
        assert lambda_oracle(g, p) == non_p_soluble_length(g, p)


def test_p_length_oracle_matches_series(s4, a4):
    assert p_length_oracle(s4, 2) == p_length_value(s4, 2) == 2
    assert p_length_oracle(s4, 3) == p_length_value(s4, 3) == 1
    assert p_length_oracle(a4, 2) == p_length_value(a4, 2) == 1


def test_p_length_oracle_requires_p_soluble(a5):
    with pytest.raises(PreconditionError):
        p_length_oracle(a5, 2)


def test_kernel_lemma_on_a5(a5):
    report = check_kernel_lemma(a5, 5)
    assert report.holds
    assert report.kernel_length == 1
    assert report.kernel.same_group_as(a5)


def test_kernel_lemma_on_soluble_group(s4):
    report = check_kernel_lemma(s4, 3)
    assert report.holds
    assert report.kernel_length == 0
    assert report.outer_soluble is None


@pytest.mark.parametrize(
    "name, p", [("S5", 5), ("A5 wr C2", 3), ("A5 x SL(2,3)", 5), ("PSL(2,7) x S3", 7)]
)
def test_kernel_lemma_reads_solubility_above_the_socle_without_a_quotient(
    monkeypatch, name, p
):
    # K/S is soluble exactly when the last derived term of K lies in S, so
    # the check agrees with the factor group and builds no coset action once
    # the series of G and of K are known.
    g = group_from_spec(name)
    socle_preimage = kernel_series(g, p).socle_preimage
    kernel = p_kernel(g, p)
    non_p_soluble_length(kernel, p)
    expected = is_soluble(factor_group(kernel, socle_preimage))
    built = []
    init = QuotientMap.__init__

    def counted(self, source, kernel):
        built.append(source.order() // kernel.order())
        init(self, source, kernel)

    monkeypatch.setattr(QuotientMap, "__init__", counted)
    assert check_kernel_lemma(g, p).outer_soluble is expected
    assert built == []


@pytest.mark.parametrize(
    "name",
    ["A5 x D12", "PSL(2,7) x S3", "S5 x S3", "A5 x SL(2,3)", "C2 wr A5", "SL(2,5)", "C2 wr S6"],
)
def test_kernel_series_and_tower_build_no_regular_quotient(monkeypatch, name):
    # Each stage quotient of the kernel series (G/R and its socle step) and
    # of the generalized Fitting tower, and the layer's C/Z(C), is G's action
    # on the orbits of N: none of them is a coset action as large as |A5|.
    g = group_from_spec(name)
    built = []
    init = QuotientMap.__init__

    def counted(self, source, kernel):
        built.append(source.order() // kernel.order())
        init(self, source, kernel)

    monkeypatch.setattr(QuotientMap, "__init__", counted)
    clear_caches()
    lengths = [non_p_soluble_length(g, p) for p in prime_divisors(g.order()) if p > 2]
    assert max(lengths) == 1
    generalized_fitting_height(g)
    assert [index for index in built if index >= 60] == []


@pytest.mark.parametrize("name, p", [("A5 wr A5", 3), ("PSL(2,7) wr C2", 7), ("A5 x SL(2,3)", 5)])
def test_kernel_series_quotients_only_by_its_radical(monkeypatch, name, p):
    # Each level quotients its group by the p-soluble radical and reads the
    # rest off the socle-factor action's image; no level builds G/K for a
    # kernel K of the series.  Both module bindings are counted, so a
    # quotient taken through another module's binding is caught too.
    g = group_from_spec(name)
    calls = []
    original = quotient.quotient_or_self

    def counted(group, n):
        calls.append((group, n))
        return original(group, n)

    monkeypatch.setattr(quotient, "quotient_or_self", counted)
    monkeypatch.setattr(length, "quotient_or_self", counted)
    clear_caches()
    assert non_p_soluble_length(g, p) >= 1
    assert calls
    for group, n in calls:
        assert n.same_group_as(p_soluble_radical(group, p)), (group.order(), n.order())


def test_kernel_series_neither_ascends_nor_builds_coset_actions():
    tree = ast.parse((SRC / "length.py").read_text())
    series = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "kernel_series"
    )
    names = {node.id for node in ast.walk(series) if isinstance(node, ast.Name)}
    assert not names & {"ascending_series", "quotient_by"}


def _all_generators_rule(x, factors):
    """The conjugation action on socle factors by every generator of each
    factor, with an order comparison: the rule one conjugate replaced."""
    images = []
    for f in factors:
        conj = [y.conjugate(x) for y in f.generators]
        images += [
            j for j, h in enumerate(factors)
            if h.order() == f.order() and all(h.contains(c) for c in conj)
        ]
    return images


@pytest.mark.parametrize(
    "name", ["A5 x A5", "A5 wr C2", "PSL(2,7) wr C2", "A6 x A5", "A5 wr A5"]
)
def test_one_conjugate_per_factor_matches_the_all_generators_rule(name):
    g = group_from_spec(name)
    factors = socle(g).factors
    rng = random.Random(0)
    for x in g.generators + tuple(g.random_element(rng) for _ in range(5)):
        action = length._factor_action(PermGroup(g.degree, [x]), factors)
        expected = PermGroup(len(factors), [Permutation(_all_generators_rule(x, factors))])
        assert action.target.generators == expected.generators, name


def test_a5_wr_c2_x_c7_reports_within_budget():
    # C7 is the kernel of G's action on its 10-point orbit.  Built as that
    # action, G/C7 keeps this report near 1 s (budget 20 s); as a coset
    # action on 7,200 points it took 95-120 s and 2 GB of peak RSS.
    start = time.perf_counter()
    g = group_from_spec("A5 wr C2 x C7")
    report = compute_invariant_report("A5 wr C2 x C7", g, PrimeSet([2, 3, 5]), 3)
    elapsed = time.perf_counter() - start
    assert report.lambda_p == 1
    assert (report.hall_status, report.hall_order, report.h_star_hall) == ("found", 7200, 2)
    checks = (report.theorem, report.proposition, report.lemma_fitting, report.kernel_lemma)
    assert checks == (True, True, True, True)
    assert elapsed < 20, f"report took {elapsed:.1f}s, budget 20s"
