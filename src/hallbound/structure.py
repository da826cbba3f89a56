"""Normal structure: minimal normal subgroups, socle, solubility tests.

Minimal normal subgroups drive everything else here, and split the socle
into simple factors.  They come from one call that tries in order:

  * a giant: a group acting faithfully as the symmetric or alternating
    group on an orbit of m >= 5 points is recognised by its order
    (_giant_index); its one minimal normal subgroup is the alternating one;
  * a direct product: a group with two or more nontrivial orbits whose
    orbit images, read off its generators, are non-abelian simple and
    multiply to its order (_support_factorization) is their direct product
    and has them as its minimal normal subgroups, at any order;
  * a certified kernel search, at any order: the kernels of the actions on
    the nontrivial orbits (two or more of them) or on the minimal block
    systems (one; none for a regular action) are searched, and so is C =
    C_G(P), P their product, read off the action (group.centralizer, which
    raises CapExceeded when it would enumerate over the cap).  Inside a
    kernel k the search closes k's own minimal normal subgroups (over the
    cap, the memoized search of k; under it, k settled) or k's prime-order
    class seeds (otherwise);
  * only when the search has no certificate, and only under the enumeration
    cap, the harvest: the inclusion-minimal seed closures (any nontrivial
    normal subgroup contains one, and a minimal normal subgroup is the
    closure of each of its nontrivial elements).  Over the cap the search
    raises CapExceeded instead.

Exactness: the answer inside each searched subgroup k is exact, since a
minimal normal N <= k is the normal closure of any minimal normal subgroup
of k inside it.  A minimal normal N meets each kernel K in a normal
subgroup, so either N <= K and the search of K finds it, or N n K = 1 and
[N, K] <= N n K = 1.  A minimal normal subgroup that no kernel holds thus
lies in C, which is normal: when C is trivial the kernels hold them all,
when C is proper its search finds the rest, and when C = G (P central, as in
an abelian group) there is no certificate.

The harvest starts from _class_seeds: one generator per conjugacy class of
the cyclic subgroups of prime-power order.  It reads the elements once,
from the chain's shared-prefix enumeration, and sorts each one into its
cyclic subgroup with one power walk per cyclic subgroup it has not met.
seed_closures closes each seed of the whole group under conjugation, once
per group; the cores and radicals of the radicals module are spans of those
closures.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .config import enumeration_cap
from .errors import PreconditionError, check_cap
from .group import (
    ActionMap,
    PermGroup,
    _block_action,
    _is_abelian,
    centralizer,
    commutator_subgroup,
    derived_subgroup,
    is_normal,
    minimal_block_systems,
    normal_closure,
    pointwise_stabilizer,
)
from .perm import Permutation, Raw, _conj, _identity, _mul
from .primes import factorize, is_prime


def _dedupe_subgroups(groups: list[PermGroup]) -> list[PermGroup]:
    out: list[PermGroup] = []
    for g in groups:
        if not any(g.same_group_as(h) for h in out):
            out.append(g)
    return out


def _inclusion_minimal(groups) -> list[PermGroup]:
    """The inclusion-minimal members of groups, sorted; of equal subgroups
    the first one seen is kept.

    The frontier is maintained incrementally, so dominated groups are
    dropped (and freed) as soon as they are seen and groups may be lazy.
    """
    frontier: list[PermGroup] = []
    for n in groups:
        if any(h.order() <= n.order() and h.is_subgroup_of(n) for h in frontier):
            continue
        frontier = [h for h in frontier if not n.is_subgroup_of(h)]
        frontier.append(n)
    return sorted(frontier, key=lambda h: (h.order(), [p._raw for p in h.generators]))


def _class_seeds(ambient: PermGroup, k: PermGroup, cap: int) -> list[Permutation]:
    """One generator per ambient-conjugacy class of the cyclic subgroups of
    prime-power order in the normal subgroup k, in key order.

    The key of a cyclic subgroup is the lexicographically least image tuple
    among its generators, and each returned generator is its subgroup's key.
    Every subgroup is generated by its elements of prime-power order, and a
    normal subgroup contains a seed exactly when it contains the seed's whole
    conjugacy class, so a normal subgroup of k is generated by the normal
    closures of the seeds it contains.

    The harvest reads k's elements once, under the enumeration cap, and
    gives each element x that no earlier walk has met one power walk x,
    x^2, ..., x^o = 1.  The walk yields o = |x| and sorts every power into
    its cyclic subgroup: x^e generates <x^gcd(e, o)>.  Each of those
    subgroups is recorded whole, under its key when its order is a prime
    power and as merely seen otherwise, so no power of x is walked again.
    The conjugation walk then reads the key of every conjugate from the
    record and computes no powers.
    """
    check_cap(k.order(), cap, "class-seed harvest: enumerating group order")
    identity = _identity(k.degree)
    # raw images -> key of the cyclic subgroup they generate, or None when
    # that subgroup's order is not a prime power
    key_of: dict[Raw, Raw | None] = {identity: None}
    for element in k.elements():
        x = element._raw
        if x in key_of:
            continue
        powers = [x]
        p = _mul(x, x)
        while p != identity:
            powers.append(p)
            p = _mul(p, x)
        o = len(powers) + 1
        generators: dict[int, list[Raw]] = {}
        for e, y in enumerate(powers, 1):
            generators.setdefault(math.gcd(e, o), []).append(y)
        for d, gens in generators.items():
            if gens[0] in key_of:
                continue
            key = min(gens) if len(factorize(o // d)) == 1 else None
            key_of.update((y, key) for y in gens)
    keys = set(key_of.values())
    keys.discard(None)
    conjugators = [s._raw for s in ambient.generators]
    seeds: list[Permutation] = []
    visited: set[Raw] = set()
    for key in sorted(keys):
        if key in visited:
            continue
        seeds.append(Permutation._trusted(key))
        visited.add(key)
        frontier = [key]
        while frontier:
            x = frontier.pop()
            for s in conjugators:
                y = _conj(x, s)
                c = key_of[y]
                if c not in visited:
                    visited.add(c)
                    frontier.append(y)
    return seeds


def _orbit_image(g: PermGroup, orbit: list[int]) -> PermGroup:
    """g's action on its orbit, on g's own points: each generator restricted
    to the orbit and fixing every other point; g itself, chain and all, when
    g moves no other point."""
    inside = set(orbit)
    gens = [
        Permutation(x._raw[pt] if pt in inside else pt for pt in range(g.degree))
        for x in g.generators
    ]
    return g if gens == list(g.generators) else PermGroup(g.degree, gens)


def _giant_index(g: PermGroup) -> int | None:
    """1 when g acts faithfully as the symmetric group on one of its orbits
    Delta of m >= 5 points, 2 when it acts so as the alternating group there,
    None otherwise.

    The action is faithful when g's image on Delta has g's order.  Then |g|
    = m! forces the image Sym(Delta), and |g| = m!/2 the one subgroup of
    index 2, Alt(Delta).  Since m! >= 2^m, m! is formed only when m is at
    most the bit length of 2|g|.
    """
    n = g.order()
    for orbit in g.orbits():
        m = len(orbit)
        if 5 <= m <= (2 * n).bit_length():
            factorial = math.factorial(m)
            if factorial in (n, 2 * n) and _orbit_image(g, orbit).order() == n:
                return factorial // n
    return None


def _support_factorization(k: PermGroup, cap: int) -> list[PermGroup] | None:
    """Split k into at least two disjointly supported simple factors, or None.

    k lies in the direct product of its images on its moved orbits, so it is
    that product exactly when their orders multiply to |k| (a running product
    over |k| rejects it at once); each image, the factor, is then the normal
    subgroup of k fixing every other point.  Each factor must be a certified
    non-abelian simple group: a giant by its order, any other factor under the
    cap.  A non-abelian simple group moves at least 5 points, and its order
    has at least three prime divisors (a group of order p^a q^b is soluble, by
    Burnside's theorem), so an orbit of fewer points, or a factor of an order
    with fewer primes (an abelian simple factor among them), rejects the
    product before any factor is certified.  The factors are certified
    smallest first, so a small factor that is not simple rejects the product
    before a larger one is enumerated; they are returned in orbit order.
    """
    moved = [orbit for orbit in k.orbits() if len(orbit) > 1]
    if len(moved) < 2 or min(map(len, moved)) < 5:
        return None
    factors = []
    total = 1
    for orbit in moved:
        t = _orbit_image(k, orbit)
        total *= t.order()
        if total > k.order() or t.order() > cap and _giant_index(t) is None:
            return None
        factors.append(t)
    if total != k.order() or any(len(factorize(t.order())) < 3 for t in factors):
        return None
    return factors if all(is_simple(t) for t in sorted(factors, key=PermGroup.order)) else None


def _settled_minimal_normals(g: PermGroup, cap: int) -> list[PermGroup] | None:
    """All minimal normal subgroups of g, at any order, when g is a giant (the
    alternating group) or a direct product of non-abelian simple groups (its
    factors); else None."""
    index = _giant_index(g)
    if index is not None:
        return [g if index == 2 else derived_subgroup(g)]
    factors = _support_factorization(g, cap)
    return None if factors is None else _inclusion_minimal(factors)


@functools.lru_cache(maxsize=None)
def seed_closures(g: PermGroup) -> tuple[PermGroup, ...]:
    """The distinct normal closures in g of g's class seeds, in seed order;
    every normal subgroup of g is the span of the closures it contains.
    Like minimal_normal_subgroups, it reads the enumeration cap at call
    time but is memoized per group only."""
    seeds = _class_seeds(g, g, enumeration_cap())
    closures = [normal_closure(g, PermGroup(g.degree, [x])) for x in seeds]
    return tuple(_dedupe_subgroups(closures))


def _minimal_normals_inside(g: PermGroup, k: PermGroup, cap: int) -> list[PermGroup]:
    """All minimal normal subgroups of g inside the proper normal subgroup k:
    the inclusion-minimal closures in g of all of k's minimal normal
    subgroups M (over the cap, from the memoized minimal_normal_subgroups(k),
    which finds them at any order or raises; under it, when k is settled) or
    of k's prime-order class seeds (otherwise).  A minimal normal N <= k of
    g is the closure of any M <= N; from an incomplete list of M a closure
    may be normal but not minimal."""
    if k.order() > cap:
        parts = minimal_normal_subgroups(k)
    else:
        parts = _settled_minimal_normals(k, cap) or (
            PermGroup(g.degree, [x]) for x in _class_seeds(g, k, cap) if is_prime(x.order())
        )
    return _inclusion_minimal(normal_closure(g, m) for m in parts)


def _action_kernels(g: PermGroup) -> list[PermGroup]:
    """The distinct proper nontrivial kernels of g's actions on its
    nontrivial orbits (two or more of them) or on its minimal block systems
    (one); none for a regular action, whose block systems are one per
    subgroup and would cost a search each."""
    n = g.order()
    moved = [orbit for orbit in g.orbits() if len(orbit) > 1]
    if len(moved) == 1:
        if len(moved[0]) == n:
            return []
        systems = minimal_block_systems(g)
        kernels = [ActionMap(g, len(s), _block_action(s)).kernel() for s in systems]
    else:
        kernels = [pointwise_stabilizer(g, orbit) for orbit in moved]
    return _dedupe_subgroups([k for k in kernels if not k.is_trivial() and k.order() < n])


def _certified_minimal_normals(g: PermGroup, cap: int) -> list[PermGroup] | None:
    """All minimal normal subgroups of g from its action kernels, or None
    when the search cannot be certified complete.

    A minimal normal N meets each kernel K in a normal subgroup, so either N
    <= K, and the search of K finds it, or N and K meet trivially, and then
    [N, K] <= N n K = 1.  A minimal normal subgroup no kernel holds thus
    lies in C = C_G(P), P the kernels' product: C is normal in G, and
    searching it too (unless it is trivial or inside a kernel) makes the
    answer exact.  C = G (P central) is no certificate; a centralizer that
    would enumerate over the cap raises CapExceeded.
    """
    kernels = _action_kernels(g)
    if not kernels:
        return None
    c = centralizer(g, PermGroup(g.degree, [x for k in kernels for x in k.generators]))
    if c.order() == g.order():
        return None
    if not c.is_trivial() and not any(c.is_subgroup_of(k) for k in kernels):
        kernels.append(c)
    return _inclusion_minimal(m for k in kernels for m in _minimal_normals_inside(g, k, cap))


@functools.lru_cache(maxsize=None)
def minimal_normal_subgroups(g: PermGroup) -> tuple[PermGroup, ...]:
    """The minimal normal subgroups of a nontrivial group."""
    if g.is_trivial():
        raise PreconditionError("the trivial group has no minimal normal subgroups")
    cap = enumeration_cap()
    result = _settled_minimal_normals(g, cap)
    if result is None:
        result = _certified_minimal_normals(g, cap)
    if result is None:
        what = "minimal normal search: no certified kernel search, group order"
        check_cap(g.order(), cap, what)
        result = _inclusion_minimal(seed_closures(g))
    for n in result:
        if not is_normal(n, g):
            raise AssertionError("computed minimal normal subgroup is not normal")
    return tuple(result)


@dataclass(frozen=True)
class SocleDecomposition:
    """The socle with its minimal normal subgroups and simple refinement."""

    socle: PermGroup
    minimal_normals: tuple[PermGroup, ...]
    factors: tuple[PermGroup, ...]
    abelian_flags: tuple[bool, ...]


@functools.lru_cache(maxsize=None)
def socle(g: PermGroup) -> SocleDecomposition:
    """Product of all minimal normal subgroups, refined into factors.

    Non-abelian minimal normal subgroups are split into their simple direct
    factors, which are their own minimal normal subgroups, by
    minimal_normal_subgroups; abelian ones are kept whole and flagged.  The
    socle extends the first minimal normal subgroup's chain by the others'
    generators.
    """
    mins = minimal_normal_subgroups(g)
    factors: list[PermGroup] = []
    flags: list[bool] = []
    for n in mins:
        abelian = _is_abelian(n)
        parts = (n,) if abelian else minimal_normal_subgroups(n)
        factors.extend(parts)
        flags.extend(abelian for _ in parts)
    return SocleDecomposition(
        socle=mins[0].adjoin([x for n in mins[1:] for x in n.generators]),
        minimal_normals=mins,
        factors=tuple(factors),
        abelian_flags=tuple(flags),
    )


def _descending_series(g: PermGroup, step) -> tuple[PermGroup, ...]:
    """g >= step(g) >= step(step(g)) >= ... until stable."""
    series = [g]
    while (nxt := step(series[-1])).order() < series[-1].order():
        series.append(nxt)
    return tuple(series)


@functools.lru_cache(maxsize=None)
def derived_series(g: PermGroup) -> tuple[PermGroup, ...]:
    """G >= G' >= G'' >= ... until stable."""
    return _descending_series(g, derived_subgroup)


def is_soluble(g: PermGroup) -> bool:
    return derived_series(g)[-1].is_trivial()


def lower_central_series(g: PermGroup) -> tuple[PermGroup, ...]:
    """G >= [G,G] >= [[G,G],G] >= ... until stable."""
    return _descending_series(g, lambda h: commutator_subgroup(h, g, g))


def is_nilpotent(g: PermGroup) -> bool:
    return lower_central_series(g)[-1].is_trivial()


def is_simple(g: PermGroup) -> bool:
    """True iff g is nontrivial with no proper nontrivial normal subgroup."""
    if g.is_trivial():
        return False
    mins = minimal_normal_subgroups(g)
    return len(mins) == 1 and mins[0].order() == g.order()
