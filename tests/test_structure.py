"""Normal structure: minimal normal subgroups, socle, solubility, radicals."""

import math
import time

import pytest

from hallbound import (
    PermGroup,
    PrimeSet,
    alternating_group,
    compute_invariant_report,
    conjugate_subgroup,
    cyclic_group,
    derived_series,
    dihedral_group,
    direct_product,
    group_from_spec,
    is_nilpotent,
    is_normal,
    is_simple,
    is_soluble,
    lower_central_series,
    make_named,
    minimal_normal_subgroups,
    socle,
    soluble_radical,
    suite_specs,
    symmetric_group,
)
from hallbound.errors import CapExceeded
from hallbound.perm import Permutation
from hallbound.primes import factorize
from hallbound.structure import _class_seeds


def test_minimal_normal_of_s4_is_v4(s4):
    minimals = minimal_normal_subgroups(s4)
    assert len(minimals) == 1
    assert minimals[0].order() == 4
    assert is_normal(minimals[0], s4)


def test_minimal_normal_of_simple_group_is_itself(a5):
    minimals = minimal_normal_subgroups(a5)
    assert len(minimals) == 1
    assert minimals[0].same_group_as(a5)


def test_minimal_normals_of_a5_squared():
    g = direct_product(make_named("A5"), make_named("A5"))
    minimals = minimal_normal_subgroups(g)
    assert sorted(m.order() for m in minimals) == [60, 60]


def test_minimal_normals_of_cyclic_group():
    minimals = minimal_normal_subgroups(cyclic_group(12))
    assert sorted(m.order() for m in minimals) == [2, 3]


@pytest.mark.parametrize(
    "spec, cap, orders",
    [("A5 wr C2", 1000, [3600]), ("PSL(2,7) wr C2", 10000, [28224])],
)
def test_structured_minimal_normals_match_exhaustive(monkeypatch, spec, cap, orders):
    # Below the group order, HALLBOUND_CAP sends minimal_normal_subgroups down
    # the block-kernel route with its disjoint-support certificate.
    g = group_from_spec(spec)
    minimal_normal_subgroups.cache_clear()
    try:
        exhaustive = minimal_normal_subgroups(g)
        minimal_normal_subgroups.cache_clear()
        monkeypatch.setenv("HALLBOUND_CAP", str(cap))
        structured = minimal_normal_subgroups(g)
    finally:
        minimal_normal_subgroups.cache_clear()
    assert [n.order() for n in exhaustive] == orders
    assert len(structured) == len(exhaustive)
    assert all(a.same_group_as(b) for a, b in zip(structured, exhaustive))


def _cyclic(x):
    return frozenset((x**e).images for e in range(x.order()))


@pytest.mark.parametrize(
    "spec, depth",
    [
        ("S4", 0), ("S4", 1), ("S4", 2), ("A5", 0), ("SL(2,3)", 0), ("D12", 0),
        ("A4 x S4", 0), ("S5 x S3", 0), ("PSL(2,7)", 0),
    ],
)
def test_class_seeds_match_brute_force(spec, depth):
    # k is a term of the derived series (for S4: S4, A4, V4), so normal in g.
    g = group_from_spec(spec)
    k = derived_series(g)[depth]
    ambient = g.element_list()
    class_of = {}
    for x in k.element_list():
        if x.is_identity or len(factorize(x.order())) != 1:
            continue
        c = _cyclic(x)
        if c not in class_of:
            orbit = frozenset(
                frozenset(Permutation(y).conjugate(s).images for y in c) for s in ambient
            )
            class_of.update((d, orbit) for d in orbit)
    seeds = _class_seeds(g, k, 10_000)
    assert len(seeds) == len(set(class_of.values()))
    assert {class_of[_cyclic(x)] for x in seeds} == set(class_of.values())
    for x in seeds:
        o = x.order()
        assert x.images == min((x**e).images for e in range(1, o) if math.gcd(e, o) == 1)
    assert [x.images for x in seeds] == sorted(x.images for x in seeds)


def test_class_seeds_keep_the_enumeration_cap():
    g = group_from_spec("S5 x S3")
    with pytest.raises(CapExceeded) as info:
        _class_seeds(g, g, g.order() - 1)
    assert info.value.needed == g.order()
    assert info.value.cap == g.order() - 1


def test_socle_of_s4(s4):
    dec = socle(s4)
    assert dec.socle.order() == 4
    assert len(dec.minimal_normals) == 1
    # Abelian minimal normals are kept whole, not split into simple factors.
    assert [f.order() for f in dec.factors] == [4]
    assert dec.abelian_flags == (True,)


def test_socle_of_a5(a5):
    dec = socle(a5)
    assert dec.socle.same_group_as(a5)
    assert dec.abelian_flags == (False,)
    assert len(dec.factors) == 1


def test_socle_of_sl25_is_the_center(sl25):
    dec = socle(sl25)
    assert dec.socle.order() == 2
    assert dec.abelian_flags == (True,)


def _a5_squared_with_swap() -> PermGroup:
    """(A5 x A5):2 on the 60 elements x of A5, generated by x -> a * x,
    x -> x * b and inversion, which swaps the two factors.  Its socle
    A5 x A5 is minimal normal and transitive, so its simple factors cannot
    be read off orbits."""
    a5 = make_named("A5")
    elements = a5.element_list()
    index = {x.images: i for i, x in enumerate(elements)}

    def on_points(f) -> Permutation:
        return Permutation([index[f(x).images] for x in elements])

    gens = [on_points(lambda x, a=a: a * x) for a in a5.generators]
    gens += [on_points(lambda x, b=b: x * b) for b in a5.generators]
    gens.append(on_points(Permutation.inverse))
    return PermGroup(len(elements), gens)


def _assert_socle_factors_are_minimal_normals(g: PermGroup) -> None:
    """The socle factors inside each non-abelian minimal normal N are the
    minimal normal subgroups of N."""
    dec = socle(g)
    for n in dec.minimal_normals:
        if all(a * b == b * a for a in n.generators for b in n.generators):
            continue
        inside = [
            f for f, abelian in zip(dec.factors, dec.abelian_flags)
            if not abelian and f.is_subgroup_of(n)
        ]
        expected = minimal_normal_subgroups(n)
        assert len(inside) == len(expected)
        assert all(any(f.same_group_as(e) for e in expected) for f in inside)


@pytest.mark.parametrize("spec", list(suite_specs(3)) + ["PSL(2,7) wr C2", "A6 x A5"])
def test_socle_factors_are_the_minimal_normals_of_each_minimal_normal(spec):
    _assert_socle_factors_are_minimal_normals(group_from_spec(spec))


def test_socle_factors_of_a_transitive_minimal_normal_subgroup():
    g = _a5_squared_with_swap()
    assert g.order() == 7200 and g.is_transitive()
    assert [f.order() for f in socle(g).factors] == [60, 60]
    _assert_socle_factors_are_minimal_normals(g)


def test_derived_series_of_s4(s4):
    series = derived_series(s4)
    assert [h.order() for h in series] == [24, 12, 4, 1]
    for bigger, smaller in zip(series, series[1:]):
        assert smaller.is_subgroup_of(bigger)
        assert is_normal(smaller, bigger)


def test_derived_series_stalls_on_perfect_group(a5):
    series = derived_series(a5)
    assert series[-1].order() == 60


def test_is_soluble():
    assert is_soluble(symmetric_group(4))
    assert is_soluble(dihedral_group(12))
    assert is_soluble(make_named("SL(2,3)"))
    assert not is_soluble(alternating_group(5))
    assert not is_soluble(make_named("SL(2,5)"))
    assert not is_soluble(symmetric_group(5))


def test_is_nilpotent():
    assert is_nilpotent(cyclic_group(12))
    assert is_nilpotent(dihedral_group(8))
    assert not is_nilpotent(symmetric_group(3))
    assert not is_nilpotent(dihedral_group(12))


def test_lower_central_series_of_d8():
    series = lower_central_series(dihedral_group(8))
    assert series[0].order() == 8
    assert series[-1].order() == 1


def test_is_simple():
    assert is_simple(alternating_group(5))
    assert is_simple(make_named("PSL(2,7)"))
    assert is_simple(cyclic_group(7))
    assert not is_simple(symmetric_group(4))
    assert not is_simple(make_named("SL(2,5)"))
    assert not is_simple(cyclic_group(1))


def test_soluble_radical_values():
    assert soluble_radical(symmetric_group(4)).order() == 24
    assert soluble_radical(alternating_group(5)).order() == 1
    assert soluble_radical(make_named("SL(2,5)")).order() == 2
    mixed = direct_product(make_named("A5"), cyclic_group(6))
    assert soluble_radical(mixed).order() == 6


def test_soluble_radical_is_normal_and_soluble():
    g = direct_product(make_named("A5"), symmetric_group(4))
    rad = soluble_radical(g)
    assert rad.order() == 24
    assert is_normal(rad, g)
    assert is_soluble(rad)


def test_derived_terms_keep_small_generating_sets():
    # normal_closure keeps a generator only when it enlarges the group; the
    # terms carried up to 759 generators when it kept every fresh conjugate
    series = derived_series(group_from_spec("S4 wr S4"))
    assert [t.order() for t in series] == [7962624, 1990656, 663552, 41472, 20736, 256, 1]
    for term in series:
        assert len(term.generators) <= math.log2(term.order())


def test_s4_wr_s4_reaches_the_enumeration_cap_fast():
    # A relabelled copy shares no cached series.  The report stops at the
    # enumeration cap, about 4.5 s here; it took 16 s when the derived
    # series formed 825,087 commutators.
    g = group_from_spec("S4 wr S4")
    g = conjugate_subgroup(g, Permutation(list(range(1, g.degree)) + [0]))
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="class-seed harvest"):
        compute_invariant_report("S4 wr S4", g, PrimeSet([2, 3]), 3)
    elapsed = time.perf_counter() - start
    assert elapsed < 10, f"report took {elapsed:.1f}s, budget 10s"
