"""Radical subgroups, the layer, and height invariants.

The characteristic-subgroup tower: Sylow subgroups, pi-cores, the largest
normal p-soluble subgroup, the Fitting subgroup (product of p-cores), the
layer (product of subnormal quasisimple subgroups, computed through the
centralizer of the Fitting subgroup), their product, and the heights read
off iterated quotients.  Height computations return an explicit ascending
series as a certificate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .config import enumeration_cap
from .errors import PreconditionError, check_cap
from .group import PermGroup, center, centralizer, is_normal
from .perm import Permutation
from .primes import PrimeSet, is_prime, prime_divisors
from .quotient import ascending_series, quotient_or_self
from .structure import (
    derived_series,
    is_nilpotent,
    is_soluble,
    normal_part,
    socle,
)


@functools.lru_cache(maxsize=None)
def sylow_subgroup(g: PermGroup, p: int) -> PermGroup:
    """A Sylow p-subgroup, grown in one pass over the elements of g.

    Each x with p dividing its order offers its p-part y, and y joins the
    current p-subgroup P when it lies outside P.  adjoin, with the p-part
    of |g| as divisor, returns None exactly when <P, y> is not a p-group,
    and such a rejection is final: <P, y> lies in <P', y> whenever P lies
    in P'.  So the pass cannot end below a Sylow subgroup, for N(P) would
    then hold a p-element y outside P with <P, y> a p-group, and y would
    have been adjoined when the pass reached it.  The pass enumerates g, so
    this operation lives under the enumeration cap.
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
        y = x ** prime.coprime_part_of(o)
        if not current.contains(y):
            current = current.adjoin((y,), target) or current
            if current.order() == target:
                return current
    raise AssertionError("Sylow growth stalled below the p-part")


def pi_core(g: PermGroup, pi: PrimeSet) -> PermGroup:
    """Largest normal pi-subgroup, by normal_part: groups without a minimal
    normal pi-subgroup finish on that structural certificate alone."""
    return normal_part(g, lambda n: pi.is_pi_number(n.order()))


def p_core(g: PermGroup, p: int) -> PermGroup:
    return pi_core(g, PrimeSet([p]))


def p_prime_core(g: PermGroup, p: int) -> PermGroup:
    """The largest normal subgroup of order prime to p."""
    return pi_core(g, PrimeSet([p]).complement_in(g.order()))


def _upper_p_step(q: PermGroup, p: int) -> PermGroup:
    """O_p'(Q), or O_p(Q) when that is trivial: one step of the upper
    p-series.  Above a p'-step the p'-core is trivial again, since
    O_p'(G/O_p'(G)) = 1, so the steps alternate."""
    core = p_prime_core(q, p)
    return p_core(q, p) if core.is_trivial() else core


def require_prime(p: int) -> None:
    """The one prime check of the p-parametrised invariants."""
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")


def p_soluble_radical(g: PermGroup, p: int) -> PermGroup:
    """Largest normal p-soluble subgroup.

    Ascends the upper p-series, sharing its step with p_length.  At the
    limit both cores of the quotient vanish, and a nontrivial p-soluble
    normal subgroup up there would contain a minimal normal subgroup lying
    inside one of them, so the limit is the whole radical.  Quotients are
    only ever taken by the accumulated radical, never by a small piece of it.
    """
    require_prime(p)
    if is_soluble(g):
        return g
    return ascending_series(g, lambda q: _upper_p_step(q, p))[-1]


def is_p_soluble(g: PermGroup, p: int) -> bool:
    """Every composition factor is a p-group or a p'-group: the group equals
    its own p-soluble radical, which returns soluble groups outright."""
    return p_soluble_radical(g, p).order() == g.order()


@functools.lru_cache(maxsize=None)
def fitting_subgroup(g: PermGroup) -> PermGroup:
    """Largest normal nilpotent subgroup: the product of all p-cores."""
    gens: list[Permutation] = []
    for p in prime_divisors(g.order()) if g.order() > 1 else ():
        gens.extend(p_core(g, p).generators)
    result = PermGroup(g.degree, gens)
    if not is_nilpotent(result) or not is_normal(result, g):
        raise AssertionError("Fitting subgroup failed its own invariants")
    return result


def _perfect_core(g: PermGroup) -> PermGroup:
    """Last term of the derived series."""
    return derived_series(g)[-1]


def layer(g: PermGroup) -> PermGroup:
    """Product of all subnormal quasisimple subgroups.

    Computed inside the centralizer C of the Fitting subgroup: the layer is
    the perfect core of the preimage of the socle of C/Z(C).  When C equals
    its center there are no components and the layer is trivial.  C, like
    Z(C), is read off the action, so only the smaller of G and the
    centralizer of F in the symmetric groups of G's orbits is enumerated.
    """
    f = fitting_subgroup(g)
    c = centralizer(g, f)
    z = center(c)
    if z.order() == c.order():
        return PermGroup.trivial(g.degree)
    quotient, pull_back = quotient_or_self(c, z)
    return _perfect_core(pull_back(socle(quotient).socle))


@functools.lru_cache(maxsize=None)
def generalized_fitting_subgroup(g: PermGroup) -> PermGroup:
    """Product of the Fitting subgroup and the layer."""
    f = fitting_subgroup(g)
    e = layer(g)
    result = PermGroup(g.degree, f.generators + e.generators)
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


def _ascending_tower(g: PermGroup, step, kind: str) -> HeightCertificate:
    """The ascending series of step, which must reach the whole group."""
    series = ascending_series(g, step)
    if series[-1].order() < g.order():
        raise PreconditionError(
            f"{kind} series stalled at order {series[-1].order()}; "
            "input violates the operation's hypothesis"
        )
    return HeightCertificate(series=tuple(series), height=len(series) - 1, kind=kind)


def fitting_height(g: PermGroup) -> HeightCertificate:
    """Length of the ascending Fitting series; defined for soluble groups."""
    if not is_soluble(g):
        raise PreconditionError("Fitting height requires a soluble group")
    return _ascending_tower(g, fitting_subgroup, "fitting")


def generalized_fitting_height(g: PermGroup) -> HeightCertificate:
    """Steps of the ascending generalized Fitting series; 0 for the trivial group.

    The generalized Fitting subgroup of a nontrivial finite group is
    nontrivial, so the tower always terminates.
    """
    return _ascending_tower(g, generalized_fitting_subgroup, "generalized_fitting")


def p_length(g: PermGroup, p: int) -> HeightCertificate:
    """Number of p-factors in the alternating upper p-series.

    Requires a p-soluble group.  The series is the one p_soluble_radical
    ascends, with the same step, and it stalls below the whole group
    exactly when the group is not p-soluble; each factor of order divisible
    by p is counted.
    """
    require_prime(p)
    kind = "two_length" if p == 2 else "p_length"
    series = _ascending_tower(g, lambda q: _upper_p_step(q, p), kind).series
    count = sum((b.order() // a.order()) % p == 0 for a, b in zip(series, series[1:]))
    return HeightCertificate(series=series, height=count, kind=kind)


def p_length_value(g: PermGroup, p: int) -> int:
    return p_length(g, p).height
