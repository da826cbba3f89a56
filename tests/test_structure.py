"""Normal structure: minimal normal subgroups, socle, solubility, radicals."""

import ast
import math
import random
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_subgroup_gens
from oracles import normal_subgroup_lattice
from hallbound import (
    PermGroup,
    PrimeSet,
    StabChain,
    alternating_group,
    centralizer,
    check_kernel_lemma,
    clear_caches,
    compute_invariant_report,
    conjugate_subgroup,
    cyclic_group,
    derived_series,
    derived_subgroup,
    dihedral_group,
    direct_product,
    generalized_fitting_height,
    group_from_spec,
    is_nilpotent,
    is_normal,
    is_simple,
    is_soluble,
    kernel_series,
    lower_central_series,
    make_named,
    minimal_normal_subgroups,
    socle,
    soluble_radical,
    suite_specs,
    symmetric_group,
)
from hallbound.config import enumeration_cap
from hallbound.errors import CapExceeded
from hallbound.perm import Permutation
from hallbound import structure
from hallbound.primes import factorize, prime_divisors
from hallbound.structure import (
    _action_kernels,
    _certified_minimal_normals,
    _class_seeds,
    _giant_index,
    _inclusion_minimal,
    _support_factorization,
    seed_closures,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "hallbound"


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
    [
        ("A5 wr C2", 1000, [3600]),
        ("PSL(2,7) wr C2", 10000, [28224]),
        ("A6 x A5", 1000, [60, 360]),
        ("A5 x A5 x C7", 1000, [7, 60, 60]),
    ],
)
def test_structured_minimal_normals_match_exhaustive(monkeypatch, spec, cap, orders):
    # Below the group order, HALLBOUND_CAP sends minimal_normal_subgroups down
    # the orbit factors of a direct product (A6 x A5) or the kernel search:
    # the block kernels of a wreath product, the orbit kernels of A5 x A5 x C7,
    # whose kernel A5 x A5 is itself over the cap and split into its factors.
    # The seed closures of the whole group are the exhaustive answer.
    g = group_from_spec(spec)
    clear_caches()
    try:
        exhaustive = _inclusion_minimal(seed_closures(g))
        clear_caches()
        monkeypatch.setenv("HALLBOUND_CAP", str(cap))
        assert g.order() > cap
        structured = minimal_normal_subgroups(g)
    finally:
        clear_caches()
    assert [n.order() for n in exhaustive] == orders
    assert [n.order() for n in structured] == orders
    assert all(any(a.same_group_as(b) for b in exhaustive) for a in structured)


def _callers(name: str) -> list[tuple[str, str | None]]:
    """(file, top-level definition) of every call to name under src/hallbound."""
    callers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if called == name:
                    callers.append((path.name, getattr(top, "name", None)))
    return callers


def test_support_factorization_is_called_only_from_settled_minimal_normals():
    # A direct product is split into its simple factors in one place; socle
    # reaches the split through minimal_normal_subgroups, and the kernel
    # search through the same settled routes.
    assert _callers("_support_factorization") == [("structure.py", "_settled_minimal_normals")]
    assert _callers("_settled_minimal_normals") == [
        ("structure.py", "_minimal_normals_inside"),
        ("structure.py", "minimal_normal_subgroups"),
    ]


def _defined(pattern: str) -> list[tuple[str, str]]:
    """(file, name) of every function under src/hallbound whose name holds
    pattern."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and pattern in node.name:
                found.append((path.name, node.name))
    return found


def test_one_module_owns_centralizers():
    # Every centralizer is read off the action by group.centralizer: only
    # group.py builds commuting maps or filters a group's elements, no other
    # function is a centralizer, and the Sylow system scan serves the Hall
    # search alone (the no-nilpotent-Hall check is one centralizer).
    assert {path for path, _ in _callers("_commuting_map")} == {"group.py"}
    assert {path for path, _ in _callers("_filtered_subgroup")} == {"group.py"}
    assert _defined("centralizer") == [("group.py", "centralizer")]
    assert _callers("_sylow_generated") == [("hall.py", "hall_search")]


def test_an_unsettled_kernel_over_the_cap_raises(monkeypatch):
    # C2 wr C4 has one minimal normal subgroup, the diagonal of its base
    # C2^4, of order 2.  Under a cap of 10 its block kernels (orders 16 and
    # 32) are abelian, so neither a giant nor a simple product settles their
    # minimal normal subgroups, and the search recurses into them.  An
    # abelian kernel centralizes all of its own kernels, so its search has
    # no certificate, and over the cap it raises instead of answering from
    # an incomplete list (which would close to a normal subgroup of order 4
    # that is not minimal).
    g = group_from_spec("C2 wr C4")
    clear_caches()
    try:
        assert [n.order() for n in _inclusion_minimal(seed_closures(g))] == [2]
        monkeypatch.setenv("HALLBOUND_CAP", "10")
        with pytest.raises(CapExceeded, match="minimal normal search") as info:
            minimal_normal_subgroups(g)
    finally:
        clear_caches()
    assert info.value.cap == 10


def _with_fixed_points(g, extra):
    """g on extra more points, each fixed by every generator."""
    padding = list(range(g.degree, g.degree + extra))
    return PermGroup(
        g.degree + extra, [Permutation(list(x.images) + padding) for x in g.generators]
    )


@pytest.mark.parametrize(
    "spec, cap, orders",
    [("A5 wr C2", 1000, [3600]), ("PSL(2,7) wr C2", 10000, [28224])],
)
def test_structured_minimal_normals_of_a_group_with_fixed_points(
    monkeypatch, spec, cap, orders
):
    # One nontrivial orbit plus fixed points: the group is transitive on its
    # support, so the structured route takes its block kernels there.  The
    # orbit kernels alone are the whole group and the trivial one.
    g = _with_fixed_points(group_from_spec(spec), 2)
    clear_caches()
    try:
        exhaustive = minimal_normal_subgroups(g)
        clear_caches()
        monkeypatch.setenv("HALLBOUND_CAP", str(cap))
        structured = minimal_normal_subgroups(g)
    finally:
        clear_caches()
    assert [n.order() for n in exhaustive] == orders
    assert len(structured) == len(exhaustive)
    assert all(a.same_group_as(b) for a, b in zip(structured, exhaustive))


def _same_subgroups(a, b) -> bool:
    return len(a) == len(b) and all(any(x.same_group_as(y) for y in b) for x in a)


def _certified_matches_the_harvest(g: PermGroup) -> bool:
    """Whether the certified kernel search answers for g; when it does, its
    answer must be exactly the inclusion-minimal seed closures."""
    certified = _certified_minimal_normals(g, enumeration_cap())
    if certified is not None:
        assert _same_subgroups(certified, _inclusion_minimal(seed_closures(g)))
    return certified is not None


def _hexagon_with_coset_orbit() -> PermGroup:
    """D12 on its hexagon 0..5 and on the two cosets 6, 7 of the S3
    <r^2, s>: r = (0 1 2 3 4 5)(6 7) and the reflection s = (1 5)(2 4).
    Its one action kernel is that S3, the kernel of the action on the
    cosets; the center <r^3> moves the cosets, so it meets the S3
    trivially, and only the search of C_G(S3) = <r^3> finds it."""
    r = Permutation([1, 2, 3, 4, 5, 0, 7, 6])
    s = Permutation([0, 5, 4, 3, 2, 1, 6, 7])
    return PermGroup(8, [r, s])


def test_only_the_centralizer_search_finds_a_minimal_normal_subgroup(monkeypatch):
    g = _hexagon_with_coset_orbit()
    kernels = _action_kernels(g)
    assert [k.order() for k in kernels] == [6]
    # the S3 has two equivalent orbits on the hexagon and fixes 6 and 7, so
    # C_Sym(S3) on the two G-orbits is generated by two swaps, of order 4
    c = centralizer(g, kernels[0])
    assert c.order() == 2 and not c.is_subgroup_of(kernels[0])
    enumerated = _count_enumerations(monkeypatch)
    clear_caches()
    try:
        minimals = minimal_normal_subgroups(g)
    finally:
        clear_caches()
    assert [n.order() for n in minimals] == [2, 3]
    assert minimals[0].same_group_as(c)
    assert g.order() not in enumerated
    assert _same_subgroups(minimals, _inclusion_minimal(seed_closures(g)))


def _diagonal_on(g: PermGroup, copies: int) -> PermGroup:
    """g acting the same way on `copies` copies of its points."""
    n = g.degree
    return PermGroup(
        n * copies,
        [Permutation([c * n + i for c in range(copies) for i in x.images]) for x in g.generators],
    )


def _swapped_copies(g: PermGroup) -> PermGroup:
    """g x C2 on two copies of g's points: g acts the same way on both, C2
    swaps them.  One block kernel is the diagonal g, whose two orbits carry
    equivalent actions; the central C2 meets it trivially."""
    n = g.degree
    swap = Permutation(list(range(n, 2 * n)) + list(range(n)))
    return PermGroup(2 * n, list(_diagonal_on(g, 2).generators) + [swap])


def _sweep_groups():
    yield from ((spec, lambda spec=spec: group_from_spec(spec)) for spec in suite_specs(3))
    for spec in (
        "A5 x D12", "PSL(2,7) x S3", "S5 x S3", "A5 x SL(2,3)", "PSL(2,7) wr C2",
        "C2 x C2", "S3 x S3", "D8 x C2", "C2 wr C4", "S3 wr C2", "C3 wr S3", "A4 wr C2",
    ):
        yield spec, lambda spec=spec: group_from_spec(spec)
    # products whose orbits carry equivalent actions, and fixed points
    for spec in ("S3", "D8", "A4", "C4", "A5"):
        yield f"{spec} on two swapped copies", lambda spec=spec: _swapped_copies(
            group_from_spec(spec)
        )
        yield f"{spec} x its diagonal", lambda spec=spec: direct_product(
            group_from_spec(spec), _diagonal_on(group_from_spec(spec), 2)
        )
    yield "diagonal A4 on 3 copies + 2 fixed", lambda: _with_fixed_points(
        _diagonal_on(group_from_spec("A4"), 3), 2
    )
    yield "A4 wr C2 + 3 fixed", lambda: _with_fixed_points(group_from_spec("A4 wr C2"), 3)
    yield "hexagon with coset orbit", _hexagon_with_coset_orbit
    yield "(A5 x A5):2 on 60 points", lambda: _a5_squared_with_swap()


# groups the certified search leaves to the harvest: primitive or faithful
# on every orbit (no kernel), regular (skipped), abelian or with a central
# product of kernels (C = G)
_UNCERTIFIED = {
    "A4", "C12", "C6", "PSL(2,11)", "PSL(2,13)", "PSL(2,7)", "S3", "S4", "SL(2,3)",
    "SL(2,5)", "A5", "A6", "S5", "S6", "S7", "C2 x C2", "C4 on two swapped copies",
    "C4 x its diagonal", "diagonal A4 on 3 copies + 2 fixed", "(A5 x A5):2 on 60 points",
}


@pytest.mark.parametrize("name, build", list(_sweep_groups()), ids=lambda v: v if isinstance(v, str) else "")
def test_certified_kernel_search_matches_the_harvest_on_the_corpus(name, build):
    assert _certified_matches_the_harvest(build()) == (name not in _UNCERTIFIED)


@pytest.mark.property_based
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(["plain", "fixed", "swapped", "product"]))
@settings(max_examples=100, deadline=None)
def test_certified_kernel_search_matches_the_harvest_on_random_groups(seed, shape):
    rng = random.Random(seed)
    degree, gens = random_subgroup_gens(rng)
    g = PermGroup(degree, gens)
    if shape == "fixed":
        g = _with_fixed_points(g, 2)
    elif shape == "swapped":
        g = _with_fixed_points(_swapped_copies(g), 1)
    elif shape == "product":
        h = PermGroup(*random_subgroup_gens(rng))
        g = direct_product(g, h) if g.order() * h.order() <= 20_000 else g
    if not g.is_trivial():
        _certified_matches_the_harvest(g)


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


def test_each_group_is_harvested_once(monkeypatch):
    # Cores, radicals and minimal normal subgroups all read one memoized set
    # of seed closures per group, so the kernel series with its lemma and the
    # generalized Fitting height harvest each (ambient, k) pair at most once.
    harvests = Counter()
    harvest = structure._class_seeds

    def counted(ambient, k, cap):
        harvests[ambient, k] += 1
        return harvest(ambient, k, cap)

    monkeypatch.setattr(structure, "_class_seeds", counted)
    clear_caches()
    for spec in ("A5 x SL(2,3)", "PSL(2,7) x S3", "S5 x S3", "A5 x D12"):
        g = group_from_spec(spec)
        for p in prime_divisors(g.order()):
            if p != 2:
                kernel_series(g, p)
                check_kernel_lemma(g, p)
        generalized_fitting_height(g)
    repeated = {(a.order(), k.order()): n for (a, k), n in harvests.items() if n > 1}
    assert harvests
    assert repeated == {}, f"{sum(harvests.values())} harvests of {len(harvests)} pairs"


@pytest.mark.parametrize(
    "spec, index",
    [(f"A{n}", 2) for n in range(5, 9)]
    + [(f"S{n}", 1) for n in range(5, 9)]
    + [("S3", None), ("A4", None), ("S4", None)]
    + [("A5 x C2", None), ("A6 x C2", None)],
)
def test_giants_match_the_seed_closures(spec, index):
    # on at most four points S3, A4 and S4 are no giants; A5 x C2 and A6 x C2
    # have order m! but act on their m-point orbit with kernel C2
    g = group_from_spec(spec)
    assert _giant_index(g) == index
    exhaustive = _inclusion_minimal(seed_closures(g))
    minimals = minimal_normal_subgroups(g)
    assert len(minimals) == len(exhaustive)
    assert all(a.same_group_as(b) for a, b in zip(minimals, exhaustive))


def test_a_giant_that_fixes_points_is_recognised(monkeypatch):
    # The base A5^3 of A5 wr C3 splits on its orbits into three A5 factors,
    # each moving 5 of the 15 points; over a cap of 50 each is certified
    # simple only by its order.
    base = derived_subgroup(group_from_spec("A5 wr C3"))
    assert base.order() == 60**3
    clear_caches()
    monkeypatch.setenv("HALLBOUND_CAP", "50")
    try:
        factors = _support_factorization(base, 50)
        assert [f.order() for f in factors] == [60, 60, 60]
        for f in factors:
            assert sum(len(o) for o in f.orbits() if len(o) > 1) == 5
            assert _giant_index(f) == 2
            assert minimal_normal_subgroups(f) == (f,)
    finally:
        clear_caches()


@pytest.mark.parametrize("spec, index", [("A5", 2), ("S5", 1)])
def test_a_diagonal_giant_is_recognised(monkeypatch, spec, index):
    # Each 5-point orbit is faithful, so the order names the giant.  Over a
    # cap of 50 every orbit kernel is trivial, so the kernel search has no
    # candidate to offer.
    g = _diagonal_on(group_from_spec(spec), 2)
    assert len(g.orbits()) == 2
    clear_caches()
    monkeypatch.setenv("HALLBOUND_CAP", "50")
    try:
        assert _giant_index(g) == index
        minimals = minimal_normal_subgroups(g)
    finally:
        clear_caches()
    assert [n.order() for n in minimals] == [60]
    if index == 2:
        assert minimals == (g,)
    assert minimals[0].same_group_as(derived_subgroup(g))


def test_orbit_images_build_no_pointwise_stabilizer(monkeypatch):
    # The giant test and the direct-product split read each orbit's image off
    # the generators; neither builds a chain of the group on a new base.
    calls = []
    pointwise_stabilizer = structure.pointwise_stabilizer

    def counted(g, points):
        calls.append(g.order())
        return pointwise_stabilizer(g, points)

    monkeypatch.setattr(structure, "pointwise_stabilizer", counted)
    clear_caches()
    try:
        g = group_from_spec("A6 x A5")
        assert _giant_index(g) is None
        assert sorted(f.order() for f in _support_factorization(g, enumeration_cap())) == [60, 360]
        g = _diagonal_on(group_from_spec("A5"), 2)
        assert _giant_index(g) == 2
        assert _support_factorization(g, enumeration_cap()) is None
        monkeypatch.setenv("HALLBOUND_CAP", "50")
        base = derived_subgroup(group_from_spec("A5 wr C3"))
        assert _giant_index(base) is None
        assert [f.order() for f in _support_factorization(base, 50)] == [60, 60, 60]
    finally:
        clear_caches()
    assert calls == []


def _count_enumerations(monkeypatch) -> Counter:
    """Count the elements each PermGroup.elements call yields, by group order."""
    enumerated = Counter()
    elements = PermGroup.elements

    def counted(group):
        for x in elements(group):
            enumerated[group.order()] += 1
            yield x

    monkeypatch.setattr(PermGroup, "elements", counted)
    return enumerated


def test_a_direct_product_splits_without_enumeration(monkeypatch):
    # A6 x A5 is under the cap, but its factors are read off its two orbits
    # and certified simple as giants, so no element is enumerated.
    g = group_from_spec("A6 x A5")
    enumerated = _count_enumerations(monkeypatch)
    clear_caches()
    try:
        minimals = minimal_normal_subgroups(g)
        dec = socle(g)
    finally:
        clear_caches()
    assert [n.order() for n in minimals] == [60, 360]
    assert [f.order() for f in dec.factors] == [60, 360]
    assert dec.socle.order() == g.order()
    assert enumerated == Counter()


@pytest.mark.parametrize("spec, orders", [("PSL(2,7) x S3", [3, 168]), ("A5 x D12", [2, 3, 60])])
def test_a_soluble_orbit_factor_rejects_the_product_first(monkeypatch, spec, orders):
    # The orbit factor S3 moves too few points, and D12's order has two
    # prime divisors, so the orbit factors are no simple product and the
    # simple factor (a giant) is never enumerated to certify it.  The orbit kernels are
    # searched instead, and the centralizer that certifies the search is
    # read off the action, so G's own elements are never read.
    g = group_from_spec(spec)
    enumerated = _count_enumerations(monkeypatch)
    clear_caches()
    try:
        minimals = minimal_normal_subgroups(g)
    finally:
        clear_caches()
    assert sorted(n.order() for n in minimals) == orders
    assert enumerated
    assert g.order() not in enumerated


@pytest.mark.parametrize(
    "spec, enumerated",
    [
        ("A5 x D12", {2: 2, 12: 12}),
        ("PSL(2,7) x D12", {2: 2, 12: 12, 168: 168}),
        ("PSL(2,7) x S5", {168: 168}),
    ],
)
def test_a_factor_that_is_not_simple_rejects_the_product_uncertified(
    monkeypatch, spec, enumerated
):
    # D12's order has two prime divisors, so D12 is not non-abelian simple
    # (Burnside's p^a q^b theorem) and the product is rejected before any
    # factor is certified.  S5 is smaller than PSL(2,7), so it is certified
    # first, and found not simple without enumeration.  Either way D12 is
    # not searched for its own minimal normal subgroups, and PSL(2,7) is
    # enumerated once, as an orbit kernel, not a second time to certify it.
    g = group_from_spec(spec)
    counted = _count_enumerations(monkeypatch)
    clear_caches()
    try:
        minimal_normal_subgroups(g)
    finally:
        clear_caches()
    assert counted == enumerated


@pytest.mark.parametrize("spec, count", [("C5 x C5", 6), ("C7 x C7", 8), ("A5 x C5 x C5", 7)])
def test_an_abelian_orbit_factor_rejects_the_product(spec, count):
    # Each C_q factor has an orbit of at least 5 points, is simple, and the
    # orbit factors multiply to |G|; only its being abelian, an order with
    # one prime divisor, keeps the group from splitting into them, which
    # would lose the q - 1 diagonal subgroups of each C_q x C_q.  The atoms
    # of the normal lattice are the exhaustive answer.
    g = group_from_spec(spec)
    lattice = [n for n in normal_subgroup_lattice(g) if not n.is_trivial()]
    atoms = [
        n for n in lattice
        if not any(m.order() < n.order() and m.is_subgroup_of(n) for m in lattice)
    ]
    minimals = minimal_normal_subgroups(g)
    assert len(atoms) == len(minimals) == count
    assert all(any(m.same_group_as(n) for n in atoms) for m in minimals)


@pytest.mark.parametrize("spec, order", [("A8", 20160), ("S7", 2520), ("S10", 1814400), ("A10", 1814400)])
def test_socle_of_a_giant_enumerates_no_element(monkeypatch, spec, order):
    g = group_from_spec(spec)
    enumerated = _count_enumerations(monkeypatch)
    clear_caches()
    try:
        dec = socle(g)
    finally:
        clear_caches()
    assert [f.order() for f in dec.factors] == [order]
    assert dec.socle.order() == order
    assert enumerated == Counter()


def test_a_wreath_product_is_searched_through_its_base(monkeypatch):
    # The block kernel PSL(2,7)^2 is split on its orbits, its centralizer in
    # the symmetric group is trivial, and only each simple factor (168) is
    # enumerated to certify it simple: neither G nor its base is harvested.
    g = group_from_spec("PSL(2,7) wr C2")
    enumerated = _count_enumerations(monkeypatch)
    clear_caches()
    try:
        minimals = minimal_normal_subgroups(g)
    finally:
        clear_caches()
    assert [n.order() for n in minimals] == [28224]
    assert not {56448, 28224} & set(enumerated)


def test_socle_of_a5_wr_c3_enumerates_no_element_of_g(monkeypatch):
    g = group_from_spec("A5 wr C3")
    enumerated = _count_enumerations(monkeypatch)
    clear_caches()
    try:
        dec = socle(g)
    finally:
        clear_caches()
    assert [f.order() for f in dec.factors] == [60, 60, 60]
    assert dec.socle.order() == 216000
    assert g.order() == 648000 and g.order() not in enumerated


def test_an_unsettled_kernel_over_the_cap_is_searched_in_turn():
    # A5 wr A5 x C7 (order 326,592,000,000) is over the cap.  Its orbit
    # kernels are C7 and A5 wr A5 x 1, which is neither a giant nor a simple
    # product; its own search goes through its block kernel A5^5 and
    # certifies it with a trivial centralizer (about 0.3 s on a 2-CPU VM).
    g = group_from_spec("A5 wr A5 x C7")
    clear_caches()
    start = time.perf_counter()
    try:
        minimals = minimal_normal_subgroups(g)
    finally:
        clear_caches()
    elapsed = time.perf_counter() - start
    assert [n.order() for n in minimals] == [7, 777_600_000]
    assert elapsed < 5, f"search took {elapsed:.1f}s, budget 5s"


def test_a5_wr_a5_x_c7_gets_past_the_minimal_normal_search():
    # The report now stops where the 3'-core harvests all of G, not in the
    # minimal normal search (about 0.6 s on a 2-CPU VM).
    g = group_from_spec("A5 wr A5 x C7")
    clear_caches()
    start = time.perf_counter()
    try:
        with pytest.raises(CapExceeded, match="class-seed harvest") as info:
            compute_invariant_report("A5 wr A5 x C7", g, PrimeSet([2, 3, 5]), 3)
    finally:
        clear_caches()
    elapsed = time.perf_counter() - start
    assert info.value.needed == g.order() == 326_592_000_000
    assert elapsed < 10, f"report took {elapsed:.1f}s, budget 10s"


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


@pytest.mark.parametrize("spec", ["A5 x A5", "S4 x S3", "A5 x SL(2,3)"])
def test_socle_extends_the_chain_of_a_minimal_normal(spec, monkeypatch):
    # Once the minimal normal subgroups have chains, the socle extends the
    # first one's chain by the others' generators and builds no chain from
    # scratch; its generators are those of the minimal normals in turn.
    g = group_from_spec(spec)
    mins = socle(g).minimal_normals
    assert len(mins) > 1
    expected = PermGroup(g.degree, [x for n in mins for x in n.generators]).generators
    socle.cache_clear()
    built = []
    init = StabChain.__init__

    def counted(self, degree, generators, base=None):
        built.append(len(generators))
        init(self, degree, generators, base)

    monkeypatch.setattr(StabChain, "__init__", counted)
    product = socle(g).socle
    assert product.order() == math.prod(n.order() for n in mins)
    assert built == []
    assert product.generators == expected


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
