"""Normal structure: minimal normal subgroups, socle, solubility tests.

Minimal normal subgroups drive everything else here.  Two routes:

  * under the enumeration cap, every prime-order cyclic subgroup is
    harvested and its normal closure taken; the inclusion-minimal closures
    are exactly the minimal normal subgroups (any nontrivial normal subgroup
    contains one, and a minimal normal subgroup is the closure of each of
    its nontrivial elements);
  * over the cap, candidates come from kernels of block actions (every
    intransitive normal subgroup fixes an invariant partition) and each
    returned subgroup carries a certificate: either it is small enough to
    re-check exhaustively, or it factors into pairwise disjointly supported
    simple groups permuted transitively by the ambient group, which forces
    minimality.  A transitive minimal normal subgroup of an over-cap group
    has no such certificate and the computation fails loudly instead.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

from .config import enumeration_cap, search_seed
from .errors import CapExceeded, PreconditionError
from .group import (
    PermGroup,
    block_action_kernel,
    block_systems,
    commutator_subgroup,
    derived_subgroup,
    is_normal,
    normal_closure,
    pointwise_stabilizer,
    span,
)
from .perm import Permutation
from .primes import factorize, is_prime


def _dedupe_subgroups(groups: list[PermGroup]) -> list[PermGroup]:
    out: list[PermGroup] = []
    for g in groups:
        if not any(
            g.order() == h.order() and g.is_subgroup_of(h) for h in out
        ):
            out.append(g)
    return out


def _inclusion_minimal(groups: list[PermGroup]) -> list[PermGroup]:
    groups = _dedupe_subgroups(groups)
    out = []
    for g in groups:
        if not any(
            h.order() < g.order() and h.is_subgroup_of(g) for h in groups
        ):
            out.append(g)
    return sorted(out, key=lambda h: (h.order(), [p.images for p in h.generators]))


def _cyclic_subgroup_keys(g: PermGroup, cap: int, prime_only: bool) -> set[tuple[int, ...]]:
    """Canonical keys of the cyclic subgroups of prime (or prime-power) order.

    The key of a cyclic subgroup is the lexicographically least image tuple
    among its generators; each subgroup's generators are visited only once.
    """
    raw_seen: set[tuple[int, ...]] = set()
    keys: set[tuple[int, ...]] = set()
    for x in g.element_list(cap):
        o = x.order()
        if x.is_identity:
            continue
        if prime_only:
            if not is_prime(o):
                continue
        elif len(factorize(o)) != 1:
            continue
        if x.images in raw_seen:
            continue
        gens = [(x**k).images for k in range(1, o) if math.gcd(k, o) == 1]
        raw_seen.update(gens)
        keys.add(min(gens))
    return keys


def _conjugacy_reduced(ambient: PermGroup, keys: set[tuple[int, ...]]) -> list[Permutation]:
    """One representative per conjugation orbit of the given cyclic keys.

    Conjugate seeds have identical normal closures in the ambient group, so
    downstream closure computations only need one per orbit.
    """
    reps: list[Permutation] = []
    visited: set[tuple[int, ...]] = set()
    for key in sorted(keys):
        if key in visited:
            continue
        reps.append(Permutation(key))
        visited.add(key)
        frontier = [Permutation(key)]
        while frontier:
            x = frontier.pop()
            o = x.order()
            for s in ambient.generators:
                y = x.conjugate(s)
                k = min((y**e).images for e in range(1, o) if math.gcd(e, o) == 1)
                if k not in visited:
                    visited.add(k)
                    frontier.append(y)
    return reps


def _prime_order_cyclic_keys(g: PermGroup, cap: int) -> list[Permutation]:
    """Conjugacy representatives of the prime-order cyclic subgroups."""
    return _conjugacy_reduced(g, _cyclic_subgroup_keys(g, cap, prime_only=True))


def _minimal_normals_exhaustive(g: PermGroup, cap: int) -> list[PermGroup]:
    # Maintain the inclusion-minimal frontier incrementally so dominated
    # closures are dropped (and freed) as soon as they are seen.
    frontier: list[PermGroup] = []
    for x in _prime_order_cyclic_keys(g, cap):
        cyc = PermGroup(g.degree, [x])
        n = normal_closure(g, cyc)
        if any(h.order() <= n.order() and h.is_subgroup_of(n) for h in frontier):
            continue
        frontier = [h for h in frontier if not n.is_subgroup_of(h)]
        frontier.append(n)
    return sorted(frontier, key=lambda h: (h.order(), [p.images for p in h.generators]))


def _prime_parts(x: Permutation) -> list[Permutation]:
    """The nontrivial prime-power parts of x (each of prime-power order)."""
    n = x.order()
    out = []
    for p, e in factorize(n).items():
        part = x ** (n // p**e)
        # reduce to prime order for closure seeding
        part = part ** (p ** (e - 1))
        if not part.is_identity:
            out.append(part)
    return out


def _support_factorization(k: PermGroup, cap: int) -> list[PermGroup] | None:
    """Split k into disjointly supported simple factors, or None.

    Valid only when the factors together have the full order of k, each is a
    certified non-abelian simple group (checked exhaustively, so each factor
    must be under the cap), and supports are the orbits of k.
    """
    factors = []
    total = 1
    for orbit in k.orbits():
        if len(orbit) == 1:
            continue
        rest = [pt for pt in range(k.degree) if pt not in set(orbit)]
        t = pointwise_stabilizer(k, rest)
        if t.is_trivial() or t.order() > cap:
            return None
        factors.append(t)
        total *= t.order()
    if total != k.order() or not factors:
        return None
    for t in factors:
        if not is_simple(t) or _is_abelian(t):
            return None
    return factors


def _factor_images(gen: Permutation, factors) -> list[int] | None:
    """Index of the factor each listed factor is conjugated onto by gen, or
    None when conjugation by gen does not permute the factors."""
    images = []
    for f in factors:
        conj = [x.conjugate(gen) for x in f.generators]
        for j, other in enumerate(factors):
            if other.order() == f.order() and all(other.contains(c) for c in conj):
                images.append(j)
                break
        else:
            return None
    return images if sorted(images) == list(range(len(factors))) else None


def _factor_orbit_products(
    g: PermGroup, factors: list[PermGroup]
) -> list[PermGroup] | None:
    """Group the factors into orbits of g's conjugation action.

    Returns the products over each orbit, or None if conjugation fails to
    permute the factors (which voids the certificate).
    """
    perms = []
    for gen in g.generators:
        images = _factor_images(gen, factors)
        if images is None:
            return None
        perms.append(Permutation(images))
    return [
        PermGroup(g.degree, [x for j in orbit for x in factors[j].generators])
        for orbit in PermGroup(len(factors), perms).orbits()
    ]


def _minimal_normals_inside(g: PermGroup, k: PermGroup, cap: int) -> list[PermGroup]:
    """All minimal normal subgroups of g contained in the normal subgroup k."""
    if k.order() <= cap:
        seeds = _conjugacy_reduced(g, _cyclic_subgroup_keys(k, cap, prime_only=True))
        closures = [
            normal_closure(g, PermGroup(g.degree, [x])) for x in seeds
        ]
        return _inclusion_minimal(closures)
    factors = _support_factorization(k, cap)
    if factors is None:
        raise CapExceeded(
            f"normal subgroup of order {k.order()} exceeds cap {cap} and has no "
            "disjoint-support factorization",
            needed=k.order(),
            cap=cap,
        )
    products = _factor_orbit_products(g, factors)
    if products is None:
        raise CapExceeded(
            "conjugation does not permute the candidate simple factors; "
            "cannot certify minimality over the enumeration cap",
            needed=k.order(),
            cap=cap,
        )
    # Each orbit product is a direct product of non-abelian simple groups
    # permuted transitively by g, hence a minimal normal subgroup.
    return products


def _minimal_normals_structured(g: PermGroup, cap: int) -> list[PermGroup]:
    kernels: list[PermGroup] = []
    if g.is_transitive():
        for system in block_systems(g):
            k = block_action_kernel(g, system)
            if not k.is_trivial():
                kernels.append(k)
    else:
        for orbit in g.orbits():
            inside = pointwise_stabilizer(
                g, [pt for pt in range(g.degree) if pt not in set(orbit)]
            )
            outside = pointwise_stabilizer(g, orbit)
            for k in (inside, outside):
                if not k.is_trivial() and k.order() < g.order():
                    kernels.append(k)
    candidates: list[PermGroup] = []
    for k in _dedupe_subgroups(kernels):
        candidates.extend(_minimal_normals_inside(g, k, cap))
    # Seeded sampling catches normal subgroups missed by the kernels; any
    # candidate it adds is still certified below before being trusted.
    rng = random.Random(search_seed())
    pool: list[Permutation] = []
    for gen in g.generators:
        pool.extend(_prime_parts(gen))
    for _ in range(24):
        pool.extend(_prime_parts(g.random_element(rng)))
    for x in pool:
        n = normal_closure(g, PermGroup(g.degree, [x]))
        if n.order() < g.order():
            candidates.append(n)
    minimal = _inclusion_minimal(candidates)
    if not minimal:
        raise CapExceeded(
            f"group of order {g.order()} exceeds enumeration cap {cap} and no "
            "proper normal subgroup could be certified (possibly simple)",
            needed=g.order(),
            cap=cap,
        )
    certified: list[PermGroup] = []
    for n in minimal:
        certified.extend(_minimal_normals_inside(g, n, cap))
    return _inclusion_minimal(certified)


@functools.lru_cache(maxsize=None)
def minimal_normal_subgroups(g: PermGroup) -> tuple[PermGroup, ...]:
    """The minimal normal subgroups of a nontrivial group."""
    if g.is_trivial():
        raise PreconditionError("the trivial group has no minimal normal subgroups")
    cap = enumeration_cap()
    if g.order() <= cap:
        result = _minimal_normals_exhaustive(g, cap)
    else:
        result = _minimal_normals_structured(g, cap)
    for n in result:
        if not is_normal(n, g):
            raise AssertionError("computed minimal normal subgroup is not normal")
    return tuple(result)


def _is_abelian(g: PermGroup) -> bool:
    gens = g.generators
    return all(a * b == b * a for i, a in enumerate(gens) for b in gens[i + 1 :])


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
    factors (their own minimal normal subgroups); abelian ones are kept whole
    and flagged.
    """
    mins = minimal_normal_subgroups(g)
    gens: list[Permutation] = []
    factors: list[PermGroup] = []
    flags: list[bool] = []
    cap = enumeration_cap()
    for n in mins:
        gens.extend(n.generators)
        if _is_abelian(n):
            factors.append(n)
            flags.append(True)
        elif n.order() <= cap:
            for f in minimal_normal_subgroups(n):
                factors.append(f)
                flags.append(False)
        else:
            parts = _support_factorization(n, cap)
            if parts is None:
                raise CapExceeded(
                    f"cannot refine minimal normal subgroup of order {n.order()}",
                    needed=n.order(),
                    cap=cap,
                )
            factors.extend(parts)
            flags.extend(False for _ in parts)
    return SocleDecomposition(
        socle=PermGroup(g.degree, gens),
        minimal_normals=mins,
        factors=tuple(factors),
        abelian_flags=tuple(flags),
    )


@functools.lru_cache(maxsize=None)
def derived_series(g: PermGroup) -> tuple[PermGroup, ...]:
    """G >= G' >= G'' >= ... until stable."""
    series = [g]
    while True:
        nxt = derived_subgroup(series[-1])
        if nxt.order() == series[-1].order():
            return tuple(series)
        series.append(nxt)


def is_soluble(g: PermGroup) -> bool:
    return derived_series(g)[-1].is_trivial()


@functools.lru_cache(maxsize=None)
def lower_central_series(g: PermGroup) -> tuple[PermGroup, ...]:
    """G >= [G,G] >= [[G,G],G] >= ... until stable."""
    series = [g]
    while True:
        nxt = commutator_subgroup(series[-1], g, g)
        if nxt.order() == series[-1].order():
            return tuple(series)
        series.append(nxt)


def is_nilpotent(g: PermGroup) -> bool:
    return lower_central_series(g)[-1].is_trivial()


def is_simple(g: PermGroup) -> bool:
    """True iff g is nontrivial with no proper nontrivial normal subgroup."""
    if g.is_trivial():
        return False
    mins = minimal_normal_subgroups(g)
    return len(mins) == 1 and mins[0].order() == g.order()


def _cyclic_sweep_seeds(g: PermGroup, cap: int) -> list[Permutation]:
    """Conjugacy representatives of the prime-power-order cyclic subgroups.

    Every subgroup is generated by its elements of prime-power order, and a
    normal subgroup contains a seed exactly when it contains the seed's
    whole conjugacy class, so sweeps may restrict to these representatives.
    """
    return _conjugacy_reduced(g, _cyclic_subgroup_keys(g, cap, prime_only=False))


def normal_part(g: PermGroup, keep, seed_ok=None) -> PermGroup:
    """Largest normal subgroup satisfying `keep`, by a closure sweep.

    `keep` must hold for the trivial group and be inherited by subgroups and
    by products of normal subgroups, so that a largest normal `keep`-subgroup
    R exists.  The sweep adjoins a seed x exactly when the normal closure of
    the current part together with x still satisfies `keep`; accepted
    closures never leave R, and each seed inside R is absorbed at its turn,
    so the sweep ends at R itself.  Runs entirely on the original domain.
    `seed_ok` may discard seeds that cannot lie in R.
    """
    current = PermGroup.trivial(g.degree)
    for x in _cyclic_sweep_seeds(g, enumeration_cap()):
        if seed_ok is not None and not seed_ok(x):
            continue
        if current.contains(x):
            continue
        candidate = normal_closure(g, span(g.degree, (*current.generators, x)))
        if keep(candidate):
            current = candidate
    return current


@functools.lru_cache(maxsize=None)
def soluble_radical(g: PermGroup) -> PermGroup:
    """Largest soluble normal subgroup.

    A nontrivial radical contains an abelian minimal normal subgroup, so
    the absence of one settles triviality without enumeration; otherwise a
    closure sweep grows the radical.
    """
    if g.is_trivial() or is_soluble(g):
        return g
    if not any(_is_abelian(n) for n in minimal_normal_subgroups(g)):
        return PermGroup.trivial(g.degree)
    return normal_part(g, is_soluble)
