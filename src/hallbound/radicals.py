"""Radical subgroups, the layer, and height invariants.

The characteristic-subgroup tower: Sylow subgroups, pi-cores, the largest
normal p-soluble and soluble subgroups, the Fitting subgroup (product of
p-cores), the layer (product of subnormal quasisimple subgroups, computed
through the centralizer of the Fitting subgroup), their product, and the
heights of the ascending series they define.  Height computations return an
explicit ascending series as a certificate.

Every core is a pi-core above a normal subgroup N (_pi_core_above), N = 1
for pi_core: the span of N and the seed closures of G it can take, settled
without them when the index is a pi-number or when N = 1 and no minimal
normal subgroup of G is a pi-group.  The upper p-series and the Fitting
series take no quotient: each term is a span of such cores above the last,
and the two radicals are the tops of those series.
The layer and the generalized Fitting tower take G/N from quotient_or_self:
G's action on the orbits of N when N is its kernel, else on the cosets; the
tower recurses on that image, as the kernel series does.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

from .config import enumeration_cap
from .errors import PreconditionError, check_cap
from .group import PermGroup, _enlarge, center, centralizer, derived_subgroup, is_normal
from .primes import PrimeSet, is_prime, prime_divisors
from .quotient import quotient_or_self
from .structure import (
    is_nilpotent,
    is_soluble,
    minimal_normal_subgroups,
    seed_closures,
    socle,
)


@functools.lru_cache(maxsize=None)
def sylow_subgroup(g: PermGroup, p: int) -> PermGroup:
    """A Sylow p-subgroup, grown in one pass over the elements of g.

    Each x with p dividing its order offers its p-part y, and _enlarge,
    with the p-part of |g| as divisor, joins y to the current p-subgroup P
    when it lies outside P and <P, y> is a p-group.  A rejection is final:
    <P, y> lies in <P', y> whenever P lies in P'.  So the pass cannot end
    below a Sylow subgroup, for N(P) would then hold a p-element y outside
    P with <P, y> a p-group, and y would have been adjoined when the pass
    reached it.  The pass enumerates g, so this operation lives under the
    enumeration cap.
    """
    prime = PrimeSet([p])
    target = prime.part_of(g.order())
    current = PermGroup.trivial(g.degree)
    if target == 1:
        return current
    check_cap(g.order(), enumeration_cap(), "Sylow subgroup: enumerating group order")
    for x in g.elements():
        o = x.order()
        if o % p:
            continue
        current = _enlarge(current, (x ** prime.coprime_part_of(o),), target) or current
        if current.order() == target:
            return current
    raise AssertionError("Sylow growth stalled below the p-part")


def pi_core(g: PermGroup, pi: PrimeSet) -> PermGroup:
    """Largest normal pi-subgroup: the pi-core above the trivial group."""
    return _pi_core_above(g, PermGroup.trivial(g.degree), pi)


def p_core(g: PermGroup, p: int) -> PermGroup:
    return pi_core(g, PrimeSet([p]))


def p_prime_core(g: PermGroup, p: int) -> PermGroup:
    """The largest normal subgroup of order prime to p."""
    return pi_core(g, PrimeSet([p]).complement_in(g.order()))


def _pi_core_above(g: PermGroup, n: PermGroup, pi: PrimeSet) -> PermGroup:
    """The largest normal M >= n of g with |M : n| a pi-number, the preimage
    of O_pi(g/n), on g's own points: M spans n and the seed closures inside
    it.  The normal span m grows from n by each closure C with <m, C>/n a
    pi-group (|<m, C>| divides |n| times the pi-part of |g : n|); normal
    pi-subgroups of g/n multiply, so exactly the closures inside M join.
    A closure joins whole or not at all: _enlarge adjoins the generators m
    lacks one at a time, and its None keeps m as it was.

    Two cases settle without reading the seed closures: M is g when |g : n|
    is a pi-number, and M is n = 1 when no minimal normal subgroup of g is
    a pi-group, since a nontrivial M contains one.  The series reach a
    nontrivial proper n only after a step that harvested g, so
    seed_closures then reads its memo."""
    index = g.order() // n.order()
    if pi.is_pi_number(index):
        return g
    if n.is_trivial() and not any(
        pi.is_pi_number(k.order()) for k in minimal_normal_subgroups(g)
    ):
        return n
    bound = n.order() * pi.part_of(index)
    m = n
    for c in seed_closures(g):
        m = _enlarge(m, c.generators, bound) or m
    return m


def _ascend(g: PermGroup, above: Callable[[PermGroup], PermGroup]) -> list[PermGroup]:
    """1 = N_0 < N_1 < ... with N_{i+1} = above(N_i), a normal subgroup of g
    containing N_i.  The series stops at g, appending g itself for a term of
    order |G| (so caches keyed by the group see one handle), or when above
    adds nothing."""
    series = [PermGroup.trivial(g.degree)]
    while series[-1].order() < g.order():
        term = above(series[-1])
        if term.order() == series[-1].order():
            break
        series.append(g if term.order() == g.order() else term)
    return series


def _upper_p_series(g: PermGroup, p: int) -> list[PermGroup]:
    """Each term the p'-core above the last, or the p-core above it when
    that adds nothing: the steps alternate, as O_p'(G/O_p'(G)) = 1."""
    prime = PrimeSet([p])

    def above(n: PermGroup) -> PermGroup:
        term = _pi_core_above(g, n, prime.complement_in(g.order()))
        return term if term.order() > n.order() else _pi_core_above(g, n, prime)

    return _ascend(g, above)


def require_prime(p: int) -> None:
    """The one prime check of the p-parametrised invariants."""
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")


def p_soluble_radical(g: PermGroup, p: int) -> PermGroup:
    """Largest normal p-soluble subgroup.

    The top of the upper p-series, which p_length shares.  Both cores above
    its limit R add nothing, and a nontrivial p-soluble normal subgroup of
    G/R would contain a minimal normal p- or p'-subgroup, so R is the radical.
    """
    require_prime(p)
    if is_soluble(g):
        return g
    return _upper_p_series(g, p)[-1]


def is_p_soluble(g: PermGroup, p: int) -> bool:
    """Every composition factor is a p-group or a p'-group: the group equals
    its own p-soluble radical, which returns soluble groups outright."""
    return p_soluble_radical(g, p).order() == g.order()


def _fitting_above(g: PermGroup, n: PermGroup) -> PermGroup:
    """The preimage of F(g/n): the span of the p-cores above n, one for each
    prime dividing |g : n|."""
    cores = [_pi_core_above(g, n, PrimeSet([p])) for p in prime_divisors(g.order() // n.order())]
    return _enlarge(n, (x for c in cores for x in c.generators))


@functools.lru_cache(maxsize=None)
def fitting_subgroup(g: PermGroup) -> PermGroup:
    """Largest normal nilpotent subgroup: the product of all p-cores."""
    result = _fitting_above(g, PermGroup.trivial(g.degree))
    if not is_nilpotent(result) or not is_normal(result, g):
        raise AssertionError("Fitting subgroup failed its own invariants")
    return result


def layer(g: PermGroup) -> PermGroup:
    """Product of all subnormal quasisimple subgroups.

    Computed inside the centralizer C of the Fitting subgroup: the preimage
    S of the socle of C/Z(C) is Z(C)E with E the layer, and Z(C) is
    central, so S' = E' = E: the layer is S'.  When C equals its center
    there are no components and the layer is trivial.  C, like Z(C), is
    read off the action, so only the smaller of G and the centralizer of F
    in the symmetric groups of G's orbits is enumerated.
    """
    f = fitting_subgroup(g)
    c = centralizer(g, f)
    z = center(c)
    if z.order() == c.order():
        return PermGroup.trivial(g.degree)
    quotient, pull_back = quotient_or_self(c, z)
    return derived_subgroup(pull_back(socle(quotient).socle))


@functools.lru_cache(maxsize=None)
def generalized_fitting_subgroup(g: PermGroup) -> PermGroup:
    """Product of the Fitting subgroup and the layer."""
    f = fitting_subgroup(g)
    e = layer(g)
    result = f.adjoin(e.generators)
    if not is_normal(result, g):
        raise AssertionError("generalized Fitting subgroup is not normal")
    return result


@dataclass(frozen=True)
class HeightCertificate:
    """An ascending normal series witnessing a height computation.

    series starts at the trivial group and ends at the whole group; height
    counts the computation's characteristic steps (series terms for Fitting
    kinds, p-factors for length kinds).
    """

    series: tuple[PermGroup, ...]
    height: int
    kind: str


def _tower(g: PermGroup, series: list[PermGroup], kind: str) -> HeightCertificate:
    """The certificate of an ascending series, which must reach the whole group."""
    if series[-1].order() < g.order():
        stalled = f"{kind} series stalled at order {series[-1].order()}"
        raise PreconditionError(f"{stalled}; input violates the operation's hypothesis")
    return HeightCertificate(series=tuple(series), height=len(series) - 1, kind=kind)


def soluble_radical(g: PermGroup) -> PermGroup:
    """Largest soluble normal subgroup: g when g is soluble, else the top of
    the ascending Fitting series, which stalls exactly there (every term is
    soluble, and above the radical a minimal normal subgroup of the factor
    is non-abelian, so its Fitting subgroup is trivial).  A group without
    an abelian minimal normal subgroup stalls at once, on the p-cores' own
    early exit."""
    if is_soluble(g):
        return g
    return _ascend(g, functools.partial(_fitting_above, g))[-1]


def fitting_height(g: PermGroup) -> HeightCertificate:
    """Length of the ascending Fitting series, on g's own points; defined
    for soluble groups."""
    if not is_soluble(g):
        raise PreconditionError("Fitting height requires a soluble group")
    return _tower(g, _ascend(g, functools.partial(_fitting_above, g)), "fitting")


def _generalized_fitting_terms(g: PermGroup) -> tuple[PermGroup, ...]:
    """The generalized Fitting series of g above 1: F*(g), then the full
    preimages of the terms of G/F*(G)'s series below its top, then g; ()
    for a trivial g and (g,) when F*(g) = g.  Like kernel_series it recurses
    on the image that quotient_or_self returns."""
    if g.is_trivial():
        return ()
    f = generalized_fitting_subgroup(g)
    if f.order() == g.order():
        return (g,)
    image, pull_back = quotient_or_self(g, f)
    return (f, *map(pull_back, _generalized_fitting_terms(image)[:-1]), g)


def generalized_fitting_height(g: PermGroup) -> HeightCertificate:
    """Steps of the ascending generalized Fitting series; 0 for the trivial group.

    The generalized Fitting subgroup of a nontrivial finite group is
    nontrivial, so the tower always terminates.
    """
    series = [PermGroup.trivial(g.degree), *_generalized_fitting_terms(g)]
    return _tower(g, series, "generalized_fitting")


def p_length(g: PermGroup, p: int) -> HeightCertificate:
    """Number of p-factors in the alternating upper p-series.

    Requires a p-soluble group.  The series is the one p_soluble_radical
    ascends, and it stalls below the whole group exactly when the group is
    not p-soluble; each factor of order divisible by p is counted.
    """
    require_prime(p)
    kind = "two_length" if p == 2 else "p_length"
    series = _tower(g, _upper_p_series(g, p), kind).series
    count = sum((b.order() // a.order()) % p == 0 for a, b in zip(series, series[1:]))
    return HeightCertificate(series=series, height=count, kind=kind)


def p_length_value(g: PermGroup, p: int) -> int:
    return p_length(g, p).height
