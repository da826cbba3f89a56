"""Stabilizer-chain engine: orders, membership, orbits, subgroup operations."""

import ast
import collections
import contextlib
import copy
import itertools
import math
import pickle
import random
import sys
import threading
from collections import deque
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallbound import (
    PermGroup,
    Permutation,
    StabChain,
    alternating_group,
    center,
    centralizer,
    clear_caches,
    commutator_subgroup,
    compute_invariant_report,
    conjugate_subgroup,
    cyclic_group,
    derived_subgroup,
    dihedral_group,
    direct_product,
    fitting_subgroup,
    group_from_spec,
    intersection,
    is_normal,
    kernel_series,
    make_named,
    minimal_normal_subgroups,
    normal_closure,
    pointwise_stabilizer,
    span,
    suite_specs,
    sylow_subgroup,
    symmetric_group,
    valid_instances,
)
from hallbound import group
from hallbound.errors import CapExceeded, DegreeMismatch
from hallbound.perm import _div, _inv, _mul, _to_raw
from hallbound.primes import prime_divisors

from conftest import SRC, permutations_of_degree, random_permutation, random_subgroup_gens
from oracles import centralizer_oracle, normal_closure_oracle, tuple_inv, tuple_mul


def test_symmetric_group_order_and_membership():
    g = symmetric_group(5)
    assert g.order() == 120
    assert g.contains(Permutation.from_cycles(5, [(0, 1, 2, 3, 4)]))
    assert g.is_transitive()


def test_alternating_group_excludes_odd_permutations():
    g = alternating_group(5)
    assert g.order() == 60
    transposition = Permutation.from_cycles(5, [(0, 1)])
    assert not g.contains(transposition)
    assert g.contains(Permutation.from_cycles(5, [(0, 1, 2)]))


def test_membership_agrees_with_enumeration():
    g = dihedral_group(12)
    members = {p.images for p in g.element_list()}
    assert len(members) == 12
    rng = random.Random(7)
    for _ in range(200):
        x = random_permutation(rng, g.degree)
        assert g.contains(x) == (x.images in members)


def test_element_list_cap_enforced():
    g = symmetric_group(6)
    with pytest.raises(CapExceeded):
        g.element_list(100)


def test_enumerating_operations_respect_the_cap(monkeypatch, s4, a4):
    monkeypatch.setenv("HALLBOUND_CAP", "20")
    # the center is read off the action: the centralizer of S4 in Sym(4)
    # is trivial, so nothing is enumerated
    assert center(s4).is_trivial()
    with pytest.raises(CapExceeded, match="intersection") as info:
        intersection(s4, s4)
    assert info.value.needed == 24
    # intersection enumerates only the smaller group
    assert intersection(s4, a4).order() == 12
    # so does centralizer: the centralizer of a transposition in Sym(4)
    # has order 4, below S4's 24
    transposition = span(4, [Permutation.from_cycles(4, [(0, 1)])])
    assert centralizer(s4, transposition).order() == 4
    monkeypatch.setenv("HALLBOUND_CAP", "3")
    with pytest.raises(CapExceeded, match="centralizer") as info:
        centralizer(s4, transposition)
    assert (info.value.needed, info.value.cap) == (4, 3)


def test_orbit_stabilizer_theorem(s4):
    for point in range(s4.degree):
        assert len(s4.orbit(point)) * s4.stabilizer_order(point) == s4.order()


def test_orbits_partition_the_domain():
    g = direct_product(cyclic_group(3), cyclic_group(4))
    orbits = g.orbits()
    assert sorted(pt for orb in orbits for pt in orb) == list(range(g.degree))
    assert [len(o) for o in orbits] == [3, 4]


def test_pointwise_stabilizer(s4):
    stab = pointwise_stabilizer(s4, [0])
    assert stab.order() == 6
    assert all(p(0) == 0 for p in stab.generators)
    assert pointwise_stabilizer(s4, [0, 1]).order() == 2


def test_lagrange_for_every_subgroup_of_s4(s4):
    # Every cyclic subgroup's order divides 24.
    for x in s4.element_list():
        assert s4.order() % x.order() == 0
    assert s4.order() % derived_subgroup(s4).order() == 0


def test_span_builds_the_generated_subgroup():
    rot = Permutation.from_cycles(4, [(0, 1, 2, 3)])
    g = span(4, [rot])
    assert g.order() == 4
    assert g.is_subgroup_of(symmetric_group(4))


def test_conjugate_subgroup_preserves_order(s4):
    sub = span(4, [Permutation.from_cycles(4, [(0, 1)])])
    g = Permutation.from_cycles(4, [(0, 2, 1, 3)])
    conj = conjugate_subgroup(sub, g)
    assert conj.order() == sub.order()
    assert conj.contains(Permutation.from_cycles(4, [(0, 1)]).conjugate(g))


def test_normal_closure_of_transposition_is_whole_s4(s4):
    sub = span(4, [Permutation.from_cycles(4, [(0, 1)])])
    assert normal_closure(s4, sub).order() == 24


def test_normal_closure_of_full_order_is_the_ambient_itself(a5):
    sub = span(5, [Permutation.from_cycles(5, [(0, 1, 2)])])
    assert normal_closure(a5, sub) is a5


def test_normal_closure_of_double_transposition_is_v4(s4):
    sub = span(4, [Permutation.from_cycles(4, [(0, 1), (2, 3)])])
    v4 = normal_closure(s4, sub)
    assert v4.order() == 4
    assert is_normal(v4, s4)


def test_derived_series_of_s4(s4, a4):
    d1 = derived_subgroup(s4)
    assert d1.same_group_as(a4)
    d2 = derived_subgroup(d1)
    assert d2.order() == 4


def test_commutator_subgroup_of_commuting_factors():
    g = direct_product(cyclic_group(3), cyclic_group(5))
    left = span(g.degree, g.generators[:1])
    right = span(g.degree, g.generators[1:])
    assert commutator_subgroup(left, right, g).is_trivial()


@pytest.mark.parametrize("spec", ["A8", "S5 x S3", "A5 wr C2"])
def test_joins_extend_the_chains_they_start_from(spec, monkeypatch):
    # Once g's chain exists, the derived subgroup extends a copy of it and
    # every span step extends the last one, so the only chain built from
    # scratch is the trivial group's that each closure starts from.
    g = group_from_spec(spec)
    g.order()
    built = []
    init = StabChain.__init__

    def counted(self, degree, generators, base=None):
        built.append(len(generators))
        init(self, degree, generators, base)

    monkeypatch.setattr(StabChain, "__init__", counted)
    derived_subgroup(g).order()
    assert built == [0]
    built.clear()
    normal_closure(g, PermGroup(g.degree, g.generators[:1])).order()
    assert built == [0]


def test_no_join_rebuilds_a_chain_from_generator_tuples():
    # PermGroup(degree, x.generators + ...) builds <x, ...> from scratch;
    # a join goes through PermGroup.adjoin (which alone forms that tuple,
    # for the chain it extends) or group._enlarge.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef) or function.name == "adjoin":
                continue
            for call in ast.walk(function):
                if not (isinstance(call, ast.Call) and getattr(call.func, "id", "") == "PermGroup"):
                    continue
                for node in (n for arg in call.args for n in ast.walk(arg)):
                    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) and any(
                        isinstance(n, ast.Attribute) and n.attr == "generators"
                        for n in ast.walk(node)
                    ):
                        found.append((path.name, function.name))
    assert found == []


def test_divisor_bounded_joins_go_through_enlarge():
    # _enlarge is the one loop that grows a subgroup by the elements it
    # lacks; the scan's joins add whole Sylow subgroups, so they adjoin
    # directly.  Any other two-argument adjoin is a hand-rolled copy.
    allowed = {("group.py", "_enlarge"), ("hall.py", "_sylow_generated")}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
        functions += [
            m for c in tree.body if isinstance(c, ast.ClassDef)
            for m in c.body if isinstance(m, ast.FunctionDef)
        ]
        for function in functions:
            for call in ast.walk(function):
                if (
                    isinstance(call, ast.Call)
                    and getattr(call.func, "attr", "") == "adjoin"
                    and len(call.args) + len(call.keywords) > 1
                ):
                    found.append((path.name, function.name))
    assert found and set(found) <= allowed, found


def test_center_of_dihedral_group():
    assert center(dihedral_group(12)).order() == 2
    assert center(dihedral_group(10)).order() == 1
    assert center(symmetric_group(4)).order() == 1


KERNEL_SPECS = (
    "A5 x D12", "PSL(2,7) x S3", "S5 x S3", "A5 x SL(2,3)", "A8",
    "PSL(2,7) wr C2", "A6 x A5",
)


def _adjoin_log(closure, ambient, sub):
    """closure(ambient, sub), with every PermGroup.adjoin call it makes as
    (generators, new elements, divisor)."""
    log = []
    adjoin = PermGroup.adjoin

    def recorded(self, new, divisor=None):
        log.append((self.generators, tuple(new), divisor))
        return adjoin(self, new, divisor)

    with mock.patch.object(PermGroup, "adjoin", recorded):
        return closure(ambient, sub), log


@pytest.mark.parametrize("spec", sorted(set(suite_specs(3)) | set(KERNEL_SPECS)))
def test_normal_closure_adjoins_as_the_all_generators_rounds(spec):
    # a round that conjugates only the generators the last round added
    # skips conjugates that the group already holds, so every adjoin call,
    # and so the closure, is the one of the rounds over every generator
    g = group_from_spec(spec)
    rng = random.Random(11)
    subs = [PermGroup(g.degree, [x]) for x in g.generators]
    subs += [PermGroup(g.degree, [g.random_element(rng)]) for _ in range(3)]
    subs.append(PermGroup(g.degree, [x.commutator(y) for x in g.generators for y in g.generators]))
    for sub in subs:
        ours, our_log = _adjoin_log(normal_closure, g, sub)
        theirs, their_log = _adjoin_log(normal_closure_oracle, g, sub)
        assert our_log == their_log
        assert ours.generators == theirs.generators
        assert ours.order() == theirs.order()


@contextlib.contextmanager
def _counted_enumerations():
    """Record [group, elements yielded] for each PermGroup.elements call."""
    calls = []
    elements = PermGroup.elements

    def counted(group):
        record = [group, 0]
        calls.append(record)
        for x in elements(group):
            record[1] += 1
            yield x

    with mock.patch.object(PermGroup, "elements", counted):
        yield calls


def _sym_centralizer_order(g: PermGroup, n: PermGroup) -> int:
    """|D|, D the centralizer of N in the product of Sym(Delta) over the
    G-orbits Delta.  Two N-orbits in one Delta carry equivalent actions
    exactly when they have one length and the stabilizer of a point of one
    fixes a point of the other; each class of m such orbits O contributes
    c^m * m!, c the number of points of O that the stabilizer of O's least
    point fixes."""
    order = 1
    for delta in g.orbits():
        inside = set(delta)
        classes = []  # [points the stabilizer of the first point fixes, length, c, m]
        for orbit in (o for o in n.orbits() if o[0] in inside):
            points = set(orbit)
            cls = next((c for c in classes if c[0] & points and c[1] == len(orbit)), None)
            if cls is None:
                stabilizer = pointwise_stabilizer(n, [orbit[0]])
                fixed = {pt for pt in delta if all(s(pt) == pt for s in stabilizer.generators)}
                classes.append([fixed, len(orbit), len(fixed & points), 1])
            else:
                cls[3] += 1
        order *= math.prod(c**m * math.factorial(m) for _, _, c, m in classes)
    return order


def _assert_centralizer_matches_the_oracle(g: PermGroup, n: PermGroup) -> None:
    """C_G(N) read off the action (center(g) when n is g) is the
    enumeration oracle's, and enumerates at most min(|G|, |D|) elements."""
    with _counted_enumerations() as calls:
        c = center(g) if n is g else centralizer(g, n)
    assert sum(k for _, k in calls) <= min(g.order(), _sym_centralizer_order(g, n))
    oracle = centralizer_oracle(g, n)
    assert c.order() == oracle.order()
    assert c.is_subgroup_of(oracle)


CENTRALIZER_SPECS = list(suite_specs(3)) + list(KERNEL_SPECS) + ["C2 wr S6", "S4 wr C2"]


@pytest.mark.parametrize("spec", CENTRALIZER_SPECS)
def test_center_matches_the_centralizer_oracle(spec):
    g = group_from_spec(spec)
    _assert_centralizer_matches_the_oracle(g, g)


@pytest.mark.parametrize("spec", CENTRALIZER_SPECS)
def test_normal_centralizer_matches_the_centralizer_oracle(spec):
    g = group_from_spec(spec)
    for n in minimal_normal_subgroups(g) + (fitting_subgroup(g),):
        _assert_centralizer_matches_the_oracle(g, n)


@st.composite
def _two_block_groups(draw):
    """Groups whose generators act on two disjoint blocks of at most eight
    points, so that most of them are intransitive."""
    left = draw(st.integers(1, 5))
    right = draw(st.integers(1, 8 - left))
    count = draw(st.integers(1, 3))
    gens = [
        Permutation(
            draw(permutations_of_degree(left)).images
            + tuple(left + i for i in draw(permutations_of_degree(right)).images)
        )
        for _ in range(count)
    ]
    return PermGroup(left + right, gens)


@pytest.mark.property_based
@given(g=_two_block_groups())
@settings(max_examples=60, deadline=None)
def test_center_matches_the_centralizer_oracle_on_intransitive_groups(g):
    _assert_centralizer_matches_the_oracle(g, g)


@pytest.mark.property_based
@given(g=_two_block_groups(), rng=st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_normal_centralizer_matches_the_centralizer_oracle_on_intransitive_groups(g, rng):
    n = normal_closure(g, PermGroup(g.degree, [g.random_element(rng)]))
    _assert_centralizer_matches_the_oracle(g, n)


@pytest.mark.parametrize("spec", CENTRALIZER_SPECS)
def test_centralizer_of_a_non_normal_subgroup_matches_the_oracle(spec):
    # every Sylow subgroup and a point stabilizer: their orbits in one
    # G-orbit may have different lengths
    g = group_from_spec(spec)
    for p in prime_divisors(g.order()):
        _assert_centralizer_matches_the_oracle(g, sylow_subgroup(g, p))
    _assert_centralizer_matches_the_oracle(g, pointwise_stabilizer(g, [g.orbits()[0][0]]))


@pytest.mark.property_based
@given(g=_two_block_groups(), rng=st.randoms(use_true_random=False), count=st.integers(1, 2))
@settings(max_examples=60, deadline=None)
def test_centralizer_matches_the_oracle_on_intransitive_groups(g, rng, count):
    n = span(g.degree, [g.random_element(rng) for _ in range(count)])
    _assert_centralizer_matches_the_oracle(g, n)


def test_orbits_of_unequal_length_are_never_matched(s4):
    # <(1 2)> has orbits {0}, {1, 2}, {3}: the two fixed points swap, and a
    # map from {1, 2} onto a fixed point would not be a permutation, so D
    # is <(1 2)> x <(0 3)> and it is all that is enumerated
    sub = span(4, [Permutation.from_cycles(4, [(1, 2)])])
    with _counted_enumerations() as calls:
        c = centralizer(s4, sub)
    assert c.order() == 4
    assert sum(k for _, k in calls) <= 4
    assert c.contains(Permutation.from_cycles(4, [(0, 3)]))


def test_centralizer_of_a_three_cycle_in_s10_is_read_off_the_action():
    # C3 x S7, of order 15,120, under the default cap; S10 itself would need
    # 3,628,800 elements
    s10 = symmetric_group(10)
    c = centralizer(s10, span(10, [Permutation.from_cycles(10, [(1, 2, 3)])]))
    assert c.order() == 3 * math.factorial(7)


@pytest.mark.parametrize("spec", ["A8", "PSL(2,7) wr C2"])
def test_center_of_a_transitive_group_enumerates_none_of_it(spec):
    g = group_from_spec(spec)
    assert g.is_transitive()
    with _counted_enumerations() as calls:
        assert center(g).is_trivial()
    # the orbit centralizer has order 1, so nothing at all is enumerated
    assert calls == []


def test_centralizer_in_s4(s4):
    sub = span(4, [Permutation.from_cycles(4, [(0, 1, 2, 3)])])
    cent = centralizer(s4, sub)
    assert cent.order() == 4  # a 4-cycle is self-centralizing in S4


def test_intersection_of_subgroups(s4, a4):
    sub = span(4, [Permutation.from_cycles(4, [(0, 1)]), Permutation.from_cycles(4, [(2, 3)])])
    meet = intersection(sub, a4)
    assert meet.order() == 2
    assert meet.contains(Permutation.from_cycles(4, [(0, 1), (2, 3)]))


def test_is_normal(s4, a4):
    assert is_normal(a4, s4)
    point_stab = pointwise_stabilizer(s4, [0])
    assert not is_normal(point_stab, s4)


def test_block_systems_of_dihedral_group():
    g = dihedral_group(8)  # acts on a square
    systems = group.minimal_block_systems(g)
    assert systems == [((0, 2), (1, 3))]  # only the diagonal pairing survives


def test_block_systems_of_cyclic_group_include_joins():
    # every divisor of 12 strictly between 1 and 12 gives one block system,
    # the cosets of <beta> for some beta, so the joins come out too
    systems = group.minimal_block_systems(cyclic_group(12))
    assert sorted(len(s) for s in systems) == [2, 3, 4, 6]


def test_block_systems_keep_fixed_points_as_blocks():
    # C12 on points 0..11 with 12 and 13 fixed: the same four systems, each
    # with the two fixed points as blocks of their own
    c12 = cyclic_group(12)
    g = PermGroup(14, [Permutation(list(x.images) + [12, 13]) for x in c12.generators])
    systems = group.minimal_block_systems(g)
    assert sorted(len(s) for s in systems) == [4, 5, 6, 8]
    assert all((12,) in s and (13,) in s for s in systems)
    assert [s[:-2] for s in systems] == group.minimal_block_systems(c12)
    two_orbits = PermGroup(6, [Permutation([1, 2, 0, 4, 5, 3])])
    with pytest.raises(ValueError, match="transitive on its support"):
        group.minimal_block_systems(two_orbits)


def _block_oracle(g, alpha, beta):
    """The finest partition joining alpha and beta in which every generator
    maps each block into one block, by merging blocks until none moves."""
    blocks = [{alpha, beta}] + [{pt} for pt in range(g.degree) if pt not in (alpha, beta)]
    changed = True
    while changed:
        changed = False
        for block, s in itertools.product(list(blocks), g.generators):
            image = {s(pt) for pt in block}
            hit = [b for b in blocks if b & image]
            if len(hit) > 1:
                blocks = [b for b in blocks if not b & image] + [set().union(*hit)]
                changed = True
                break
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


@pytest.mark.property_based
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_minimal_block_system_matches_the_merge_oracle(seed):
    rng = random.Random(seed)
    degree, gens = random_subgroup_gens(rng)
    g = PermGroup(degree, gens)
    orbit = g.orbit(rng.randrange(degree))
    for beta in orbit[1:]:
        assert group.minimal_block_system(g, orbit[0], beta) == _block_oracle(g, orbit[0], beta)


def test_degree_mismatch_between_groups(s4):
    with pytest.raises(DegreeMismatch):
        s4.is_subgroup_of(symmetric_group(5))


def test_trivial_group():
    t = PermGroup.trivial(5)
    assert t.order() == 1
    assert t.is_trivial()
    assert t.contains(Permutation.identity(5))


def test_degree_one_group():
    g = PermGroup(1, [])
    assert g.order() == 1
    assert g.contains(Permutation.identity(1))
    assert list(g.elements()) == [Permutation.identity(1)]


def _product_order_elements(chain: StabChain) -> list[tuple[int, ...]]:
    """The elements as first enumerated: itertools.product over the sorted
    transversals of the non-trivial levels, deepest first, each element
    multiplied out from the identity as image tuples."""
    levels = [t for t in chain.transversal if len(t) > 1]
    out = []
    for choice in itertools.product(*(sorted(t) for t in reversed(levels))):
        p = tuple(range(chain.degree))
        for t, pt in zip(reversed(levels), choice):
            p = tuple_mul(p, tuple(t[pt]))
        out.append(p)
    return out


def _assert_product_order(g: PermGroup) -> None:
    expected = _product_order_elements(g.chain)
    assert [tuple(x) for x in g.chain.elements()] == expected
    assert [x.images for x in g.elements()] == expected


def test_elements_keep_product_order_on_small_groups():
    _assert_product_order(PermGroup.trivial(5))
    _assert_product_order(PermGroup(1, []))
    _assert_product_order(cyclic_group(7))
    _assert_product_order(make_named("S4"))


@pytest.mark.property_based
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_elements_keep_product_order(seed):
    degree, gens = random_subgroup_gens(random.Random(seed))
    _assert_product_order(PermGroup(degree, gens))


@pytest.mark.parametrize("spec", ["A6", "PSL(2,7) x S3", "A5 x D12"])
def test_enumeration_shares_prefix_products(spec, monkeypatch):
    g = group_from_spec(spec)
    n = g.order()
    products = 0

    def counting_mul(a, b):
        nonlocal products
        products += 1
        return _mul(a, b)

    monkeypatch.setattr(group, "_mul", counting_mul)
    assert sum(1 for _ in g.elements()) == n
    # one product per element plus the shared prefixes; one product per
    # non-trivial level per element would be several times |G|
    assert products < 2 * n


def _chain_state(chain: StabChain):
    """Everything a caller can read off a chain: strong generators,
    transversal items and order."""
    return (
        chain.strong_generators(),
        [list(t.items()) for t in chain.transversal],
        chain.order(),
    )


@pytest.mark.property_based
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.one_of(st.integers(1, 10_000), st.integers(1, 6).map(lambda k: k * 40_320)),
)
@settings(max_examples=60, deadline=None)
def test_adjoin_agrees_with_the_plain_chain(seed, n):
    """<old, new> extended from old's chain is rejected under n exactly when
    the plain chain's order does not divide n, and is otherwise the group of
    the plain chain; old's chain is left as it was."""
    rng = random.Random(seed)
    degree, gens = random_subgroup_gens(rng)
    gens += [random_permutation(rng, degree) ** 2 for _ in range(rng.randint(0, 1))]
    split = rng.randint(0, len(gens))
    old = PermGroup(degree, gens[:split])
    new = gens[split:]
    plain = PermGroup(degree, old.generators + tuple(new))
    before = _chain_state(old.chain)
    joined = old.adjoin(new, n)
    assert (joined is None) == (n % plain.order() != 0)
    if joined is None:
        joined = old.adjoin(new)
    assert _chain_state(old.chain) == before
    assert joined.generators == plain.generators
    assert joined.order() == plain.order()
    probes = [random_permutation(rng, degree) for _ in range(20)]
    probes += [plain.random_element(rng) for _ in range(10)]
    assert [joined.contains(x) for x in probes] == [plain.contains(x) for x in probes]
    members = {x.images for x in joined.elements()}
    assert len(members) == plain.order()
    assert all(plain.contains(Permutation(x)) for x in rng.sample(sorted(members), min(10, len(members))))


@pytest.mark.property_based
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_trivial_chain_extended_by_all_generators_is_the_plain_chain(seed):
    """The constructor is this extension, so the reference Schreier-Sims
    comparison below guards every extension of the trivial chain."""
    rng = random.Random(seed)
    degree, gens = random_subgroup_gens(rng)
    images = [x.images for x in gens]
    plain = StabChain(degree, images)
    trivial = StabChain(degree, [])
    extended = trivial.extended(images)
    assert _chain_state(extended) == _chain_state(plain)
    assert extended.base == plain.base
    assert [entry[0] for entry in extended._levels] == [entry[0] for entry in plain._levels]
    assert _chain_state(trivial) == ([], [[(b, trivial._identity)] for b in trivial.base], 1)
    prefix = rng.sample(range(degree), rng.randint(1, degree))
    assert _chain_state(StabChain(degree, [], base=prefix).extended(images)) == (
        _chain_state(StabChain(degree, images, base=prefix))
    )


def test_membership_under_concurrent_sifts():
    """Threads sifting through one shared chain fill its inverse cache at the
    same time (as library callers sharing a group across threads do); every
    answer must stay right."""
    gens = group_from_spec("A5 wr C2").generators
    shared = PermGroup(10, gens)
    rng = random.Random(1)
    probes = [random_permutation(rng, 10) for _ in range(100)]
    probes += [shared.random_element(rng) for _ in range(100)]
    reference = PermGroup(10, gens)
    expected = [reference.contains(x) for x in probes]
    assert any(expected) and not all(expected)
    results: list = []

    def work():
        results.append([shared.contains(x) for x in probes])

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * 8


def test_rejected_join_caches_no_chain():
    s5 = make_named("S5")
    # the product of the two generators has order 4, which divides neither
    # 7 nor 30, so Lagrange rejects the join before any chain is built
    x, y = s5.generators
    for n in (7, 30):
        g = PermGroup(5, [x])
        assert g.adjoin([y], n) is None
        assert g._chain is None
    # from the trivial group there is no product to check: 7 is refused by
    # the orbit check (the joined orbit has length 5) before any chain work,
    # 40 only at a deeper level of length 3, after Schreier generators have
    # been added
    for n in (7, 40):
        g = PermGroup.trivial(5)
        assert g.adjoin(s5.generators, n) is None
        assert _chain_state(g.chain) == _chain_state(StabChain(5, []))
        assert g.adjoin(s5.generators).order() == 120
        assert g.adjoin(s5.generators, 240).order() == 120


@contextlib.contextmanager
def _counted_extensions():
    """Record the arguments of each StabChain.extended call."""
    calls = []
    extended = StabChain.extended

    def counted(chain, *args):
        calls.append(args)
        return extended(chain, *args)

    with mock.patch.object(StabChain, "extended", counted):
        yield calls


def test_an_orbit_that_does_not_divide_refuses_the_join_before_any_chain_work():
    s5 = make_named("S5")
    # a greedy step toward a Hall {2,3}-subgroup of S6, of order 144: y * x
    # has order 4, which divides 144, but <x, y> has an orbit of length 5
    x = Permutation.from_cycles(6, [(0, 1), (2, 3)])
    y = Permutation.from_cycles(6, [(1, 2, 3, 4)])
    assert 144 % (y * x).order() == 0
    assert [0, 1, 2, 3, 4] in PermGroup(6, [x, y]).orbits()
    with _counted_extensions() as calls:
        assert PermGroup.trivial(5).adjoin(s5.generators, 7) is None
        assert PermGroup(6, [x]).adjoin([y], 144) is None
    assert calls == []
    with _counted_extensions() as calls:
        assert PermGroup(6, [x]).adjoin([y], 720).order() == 20
    assert len(calls) == 1


@pytest.mark.property_based
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_chain_derived_elements_are_bijections(seed):
    """Elements, random elements and stabilizer generators are read off the
    chain without validation; each must still be a bijection of the degree."""
    rng = random.Random(seed)
    degree, gens = random_subgroup_gens(rng)
    g = PermGroup(degree, gens)
    derived = list(g.elements())
    derived += [g.random_element(rng) for _ in range(20)]
    derived += list(pointwise_stabilizer(g, [0, 1]).generators)
    for x in derived:
        assert x.degree == degree
        assert Permutation(x.images) == x
    assert len({x.images for x in g.elements()}) == g.order()


@pytest.mark.property_based
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_random_elements_are_members(seed):
    g = make_named("A5")
    rng = random.Random(seed)
    x = g.random_element(rng)
    assert g.contains(x)
    assert x.order() in {1, 2, 3, 5}


def _draws_from_the_levels(chain, rng, count):
    """Random elements drawn as random_element draws them, with every
    level's points sorted again for each draw, as image tuples."""
    out = []
    for _ in range(count):
        p = tuple(range(chain.degree))
        for trans in reversed(chain._level_transversals()):
            p = tuple_mul(p, tuple(trans[rng.choice(sorted(trans))]))
        out.append(p)
    return out


def _tuples(raws):
    """Raw images as image tuples, None kept."""
    return [None if x is None else tuple(x) for x in raws]


def test_an_extended_chain_draws_from_its_own_levels():
    # random_element keeps a finished chain's sorted levels; a copy made
    # by extended has other levels, so it must not read the ones kept.
    chain = StabChain(6, [(1, 0, 2, 3, 4, 5), (0, 2, 1, 3, 4, 5)])
    ours, theirs = random.Random(4), random.Random(4)
    assert _tuples(chain.random_element(ours) for _ in range(3)) == (
        _draws_from_the_levels(chain, theirs, 3)
    )
    wider = chain.extended([(1, 2, 3, 4, 5, 0)])
    assert wider.order() == 720
    assert _tuples(wider.random_element(ours) for _ in range(20)) == (
        _draws_from_the_levels(wider, theirs, 20)
    )
    assert _tuples(chain.random_element(ours) for _ in range(20)) == (
        _draws_from_the_levels(chain, theirs, 20)
    )


@pytest.mark.property_based
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_product_closure(seed):
    g = make_named("S4")
    rng = random.Random(seed)
    x = g.random_element(rng)
    y = g.random_element(rng)
    assert g.contains(x * y)
    assert g.contains(x.inverse())


class _ReferenceChain:
    """Plain full-base Schreier-Sims: every level is rebuilt, scanned and
    sifted through, trivial or not.  This is the engine's construction before
    it skipped trivial levels, on image tuples, kept as the oracle that
    StabChain must match chain for chain."""

    def __init__(self, degree, generators, base=None):
        self.degree = degree
        if base is None:
            self.base = tuple(range(degree))
        else:
            prefix = list(dict.fromkeys(base))
            self.base = tuple(prefix + [p for p in range(degree) if p not in prefix])
        identity = tuple(range(degree))
        self._identity = identity
        self._strong = []
        for g in generators:
            if g != identity and all(s[0] != g for s in self._strong):
                self._strong.append((g, self._level_of(g)))
        self.transversal = [{b: identity} for b in self.base]
        self._transversal_inv = [{} for _ in self.base]
        self._build()

    def _level_of(self, g):
        for i, b in enumerate(self.base):
            if g[b] != b:
                return i
        return len(self.base)

    def _gens_at(self, level):
        return [g for g, lv in self._strong if lv >= level]

    def _rebuild_level(self, i):
        b = self.base[i]
        gens = self._gens_at(i)
        trans = {b: self._identity}
        queue = deque([b])
        while queue:
            pt = queue.popleft()
            u = trans[pt]
            for g in gens:
                img = g[pt]
                if img not in trans:
                    trans[img] = tuple_mul(u, g)
                    queue.append(img)
        self.transversal[i] = trans
        self._transversal_inv[i] = {}

    def _u_inv(self, i, pt):
        inv = self._transversal_inv[i]
        u_inv = inv.get(pt)
        if u_inv is None:
            u_inv = inv[pt] = tuple_inv(self.transversal[i][pt])
        return u_inv

    def _sift(self, p, start=0):
        for i in range(start, len(self.base)):
            b = self.base[i]
            img = p[b]
            if img == b:
                continue
            if img not in self.transversal[i]:
                return p
            p = tuple_mul(p, self._u_inv(i, img))
        return None

    def _build(self):
        n = len(self.base)
        stale = [True] * n
        i = n - 1
        while i >= 0:
            if stale[i]:
                self._rebuild_level(i)
                stale[i] = False
            clean = True
            b = self.base[i]
            gens_i = self._gens_at(i)
            trans_i = self.transversal[i]
            for beta in sorted(trans_i):
                u = trans_i[beta]
                for x in gens_i:
                    v = tuple_mul(u, x)
                    schreier = tuple_mul(v, self._u_inv(i, v[b]))
                    residue = self._sift(schreier, i + 1)
                    if residue is not None:
                        lv = self._level_of(residue)
                        self._strong.append((residue, lv))
                        stale[: lv + 1] = [True] * (lv + 1)
                        i = lv
                        clean = False
                        break
                if not clean:
                    break
            if clean:
                i -= 1

    def random_element(self, rng):
        p = self._identity
        for i in range(len(self.base) - 1, -1, -1):
            trans = self.transversal[i]
            if len(trans) == 1:
                continue
            pt = rng.choice(sorted(trans))
            p = tuple_mul(p, trans[pt])
        return p

    def min_coset_rep(self, c):
        rep = c
        for i in range(self.degree):
            trans = self.transversal[i]
            if len(trans) == 1:
                continue
            best = min(trans, key=lambda pt: rep[pt])
            if best != i:
                rep = tuple_mul(trans[best], rep)
        return rep


def _assert_same_chain(degree, images, base, rng: random.Random):
    """Build the chain both ways and compare everything a caller can read,
    the engine's raw images as image tuples."""
    chain = StabChain(degree, images, base=base)
    ref = _ReferenceChain(degree, images, base=base)
    assert chain.base == ref.base
    assert _tuples(chain.strong_generators()) == [g for g, _ in ref._strong]
    assert [[(pt, tuple(u)) for pt, u in t.items()] for t in chain.transversal] == [
        list(t.items()) for t in ref.transversal
    ]
    for k in range(degree + 1):
        assert _tuples(chain.level_generators(k)) == ref._gens_at(k)
    probes = [random_permutation(rng, degree).images for _ in range(20)]
    probes += [ref.random_element(rng) for _ in range(10)]
    raw = [_to_raw(x) for x in probes]
    # the residue, not only the verdict: a skipped level must stop a sift
    # exactly where the full pass stops it
    assert _tuples(chain._sift(x) for x in raw) == [ref._sift(x) for x in probes]
    assert [chain.contains(x) for x in raw] == [ref._sift(x) is None for x in probes]
    draw_seed = rng.getrandbits(32)
    ours, theirs = random.Random(draw_seed), random.Random(draw_seed)
    assert _tuples(chain.random_element(ours) for _ in range(10)) == [
        ref.random_element(theirs) for _ in range(10)
    ]
    return chain, ref


@pytest.mark.property_based
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_chain_matches_reference_schreier_sims(seed):
    rng = random.Random(seed)
    degree, gens = random_subgroup_gens(rng)
    images = [g.images for g in gens]
    chain, ref = _assert_same_chain(degree, images, None, rng)
    cosets = [random_permutation(rng, degree).images for _ in range(10)]
    assert _tuples(chain.min_coset_rep(_to_raw(c)) for c in cosets) == [
        ref.min_coset_rep(c) for c in cosets
    ]
    # a prescribed base prefix, as pointwise_stabilizer and ActionMap use
    prefix = rng.sample(range(degree), rng.randint(1, degree))
    _assert_same_chain(degree, images, prefix, rng)


class _FullScanChain(StabChain):
    """The engine with the scan it had before proved pairs were skipped:
    every Schreier generator of a rebuilt level is sifted, whatever the
    level's last scan proved.  Kept as the oracle that every extension
    must match chain for chain."""

    def _first_residue(self, k, gens, old, tree, count, stop):
        i, b, _, _ = self._levels[k]
        trans = self._trans[i]
        for beta in sorted(trans):
            u = trans[beta]
            for j, x in enumerate(gens):
                v = _mul(u, x)
                img = v[b]
                if v == trans[img]:
                    continue
                residue = self._sift(_div(v, trans[img]), k + 1)
                if residue is not None:
                    return residue, (beta, j)
        return None, None


def _level_table(chain: StabChain):
    """The non-trivial levels as (level, base point, gap points)."""
    return [(i, b, gap) for i, b, _, gap in chain._levels]


def _known_order_builds(run) -> list[tuple]:
    """The (degree, generators, base, order) of every StabChain built with
    its order known while run() runs."""
    calls = []
    init = StabChain.__init__

    def recorded(chain, degree, generators, base=None, order=None):
        if order is not None:
            calls.append((degree, list(generators), base, order))
        init(chain, degree, generators, base, order)

    with mock.patch.object(StabChain, "__init__", recorded):
        run()
    return calls


def test_known_order_chains_are_the_full_builds():
    """Every chain that pointwise_stabilizer and ActionMap build with the
    group's order known, over the reports of the scale-3 suite and the
    kernel series of the kernel groups, is the chain of the full build: the
    same strong generators, transversals and levels.  Each sifts no more
    pairs, and together they sift fewer."""

    def run():
        clear_caches()
        for spec in suite_specs(3):
            g = group_from_spec(spec)
            for pi, p in valid_instances(g):
                compute_invariant_report(spec, g, pi, p)
        for spec in KERNEL_SPECS:
            g = group_from_spec(spec)
            for p in prime_divisors(g.order())[1:]:
                kernel_series(g, p)

    calls = _known_order_builds(run)
    sifts = [0]
    sift = StabChain._sift

    def counted(chain, p, k=0):
        sifts[0] += 1
        return sift(chain, p, k)

    known = full = 0
    with mock.patch.object(StabChain, "_sift", counted):
        for degree, gens, base, order in calls:
            sifts[0] = 0
            fast = StabChain(degree, gens, base=base, order=order)
            known, before = known + sifts[0], sifts[0]
            sifts[0] = 0
            plain = StabChain(degree, gens, base=base)
            full += sifts[0]
            assert before <= sifts[0]
            assert fast.order() == order
            assert _chain_state(fast) == _chain_state(plain)
            assert _level_table(fast) == _level_table(plain)
    assert len({order for *_, order in calls}) > 10
    assert known < full


def _extend_or_stop(chain: StabChain, images, divisor):
    try:
        return chain.extended(images, divisor)
    except group._OrbitDoesNotDivide:
        return None


@pytest.mark.property_based
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_extensions_match_the_full_scan(seed):
    """A chain grown by one extension or more, each with or without a
    divisor, is the chain the full scan grows: the same stops, strong
    generators, transversals and levels."""
    rng = random.Random(seed)
    degree, gens = random_subgroup_gens(rng)
    gens += [
        random_permutation(rng, degree) ** rng.choice([1, 2, 2, 3, 4, 6])
        for _ in range(rng.randint(1, 4))
    ]
    images = [x.images for x in gens]
    cuts = sorted(rng.sample(range(1, len(images) + 1), rng.randint(1, len(images))))
    base = rng.sample(range(degree), rng.randint(1, degree)) if rng.random() < 0.3 else None
    engine = StabChain(degree, images[: cuts[0]], base=base)
    oracle = _FullScanChain(degree, images[: cuts[0]], base=base)
    for start, end in zip(cuts, cuts[1:] + [len(images)]):
        step = images[start:end]
        if rng.random() < 0.3:
            step.append(engine.random_element(rng))  # an element it has
            images.append(step[-1])
        divisor = rng.choice([None, None, rng.randint(1, 5_000), 40_320 * rng.randint(1, 6)])
        grown = _extend_or_stop(engine, step, divisor)
        expected = _extend_or_stop(oracle, step, divisor)
        assert (grown is None) == (expected is None)
        if grown is None:
            grown, expected = engine.extended(step), oracle.extended(step)
        assert _chain_state(grown) == _chain_state(expected)
        assert _level_table(grown) == _level_table(expected)
        engine, oracle = grown, expected
    assert engine.order() == StabChain(degree, images).order()


@pytest.mark.parametrize("spec", ["S5", "PSL(2,7)", "A5 wr C2"])
def test_extending_by_an_own_element_sifts_no_pair_already_proved(spec, monkeypatch):
    """Only pairs (beta, x) with x the new generator, or with u_beta or
    u_x(beta) rebuilt differently, are sifted; every other pair of a rebuilt
    level was proved by the complete parent chain."""
    parent = group_from_spec(spec).chain
    rng = random.Random(2)
    x = parent.random_element(rng)
    while x in parent.strong_generators():
        x = parent.random_element(rng)
    sifted = []
    sift = StabChain._sift

    def recording_sift(chain, p, k=0):
        sifted.append((k, p))
        return sift(chain, p, k)

    monkeypatch.setattr(StabChain, "_sift", recording_sift)
    child = parent.extended([x])
    monkeypatch.undo()
    assert child.order() == parent.order()
    unproved = []
    for k, (i, _, _, _) in enumerate(child._levels):
        old, trans = parent._trans[i], child._trans[i]
        if trans is old:
            continue  # not rebuilt
        for beta, u in trans.items():
            for y in child.level_generators(i):
                img = y[beta]
                if y == x or old.get(beta) != u or old.get(img) != trans[img]:
                    v = _mul(u, y)
                    if v != trans[img]:
                        unproved.append((k + 1, _mul(v, _inv(trans[img]))))
    assert sifted
    assert not collections.Counter(sifted) - collections.Counter(unproved)


def _spread(x: Permutation, degree: int) -> Permutation:
    """x moved onto the points 7 + 37*i of a larger degree, fixing the rest."""
    points = [7 + 37 * i for i in range(x.degree)]
    images = list(range(degree))
    for i, pt in enumerate(points):
        images[pt] = points[x(i)]
    return Permutation(images)


@pytest.mark.parametrize("spec", ["S4", "A5 wr C2", "PSL(2,7)"])
def test_chain_cost_does_not_grow_with_the_degree(spec, monkeypatch):
    """Building a chain and sifting through it cost the same products and
    divisions whether the group acts on its own points or on points spread
    across degree 400: the trivial levels in between cost nothing."""
    g = group_from_spec(spec)
    rng = random.Random(5)
    probes = [random_permutation(rng, g.degree) for _ in range(5)]
    probes += [g.random_element(rng) for _ in range(5)]
    counts = [0, 0]

    def counting_mul(a, b):
        counts[0] += 1
        return _mul(a, b)

    def counting_div(a, b):
        counts[1] += 1
        return _div(a, b)

    def cost(degree, gens, elements):
        counts[:] = [0, 0]
        chain = StabChain(degree, [x.images for x in gens])
        verdicts = [chain.contains(x._raw) for x in elements]
        return tuple(counts), chain.order(), verdicts

    monkeypatch.setattr(group, "_mul", counting_mul)
    monkeypatch.setattr(group, "_div", counting_div)
    own = cost(g.degree, g.generators, probes)
    spread = cost(
        400, [_spread(x, 400) for x in g.generators], [_spread(x, 400) for x in probes]
    )
    assert own[1] == g.order() and any(own[2]) and all(own[0])
    assert spread == own


@pytest.mark.parametrize(
    "round_trip",
    [copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_permutations_and_groups_copy_and_pickle(round_trip):
    """Each round trip gives an equal object with an equal hash and order,
    in both raw forms; a group's copy carries no chain."""
    small = group_from_spec("A5 wr C2")
    large = PermGroup(400, [_spread(x, 400) for x in group_from_spec("S4").generators])
    for g in (small, large):
        g.order()
        for obj in (g, *g.generators, g.random_element(random.Random(1))):
            twin = round_trip(obj)
            assert twin is not obj and twin == obj and hash(twin) == hash(obj)
            assert twin.order() == obj.order()
        assert round_trip(g)._chain is None
        assert all(type(round_trip(x)._raw) is type(x._raw) for x in g.generators)


def _dicts_held(chain: StabChain) -> int:
    """Dicts reachable from the chain's attributes through dicts, lists and
    tuples."""
    count, seen, stack = 0, set(), [vars(chain)]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            count += 1
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(x for x in obj if isinstance(x, (dict, list, tuple)))
    return count


@pytest.mark.parametrize("spec", ["S4", "A5 wr C2", "PSL(2,7)"])
def test_chain_storage_does_not_grow_with_the_degree(spec):
    """Only non-trivial levels store a transversal: spread across degree
    400, the chain holds as many dicts as on the group's own points, while
    its full per-base-point transversal list is still there on demand."""
    g = group_from_spec(spec)
    own = StabChain(g.degree, [x.images for x in g.generators])
    spread = StabChain(400, [_spread(x, 400).images for x in g.generators])
    assert _dicts_held(spread) == _dicts_held(own)
    assert len(spread.transversal) == 400
    assert sum(len(t) > 1 for t in spread.transversal) == sum(
        len(t) > 1 for t in own.transversal
    )
