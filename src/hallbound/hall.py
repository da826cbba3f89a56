"""Hall subgroup search and related checks.

A Hall pi-subgroup has pi-number order and pi'-number index.  The search
answers each (group, pi) pair once under a given enumeration cap
(hall_search is the memo behind find_hall_subgroup, so results are shared
and their budget_used mapping is read-only) and tries, in order:

  1. the trivial cases, where the pi-part is 1 or the whole order;
  2. a seeded randomized greedy growth (fast, may miss), for its first
     GREEDY_RESTARTS[0] restarts;
  3. P. Hall's coset-action bound (Theorems like Sylow's, 1956) on G: a Hall
     pi-subgroup of index m makes G act on its m cosets with a kernel inside
     O_pi(G), so |G : O_pi(G)| divides m!.  A failure proves absence;
  4. a complete scan over subgroups generated by Sylow systems, which
     decides unless its own budgets refuse it: SYLOW_COMBINATION_BUDGET, or
     the enumeration cap under which sylow_subgroup enumerates G;
  5. after a refused scan, the remaining GREEDY_RESTARTS[1] restarts of
     the same seeded stream;
  6. then the same bound on each socle factor: a Hall pi-subgroup of G
     meets every subnormal subgroup in a Hall pi-subgroup of it.  Otherwise
     the verdict stays unknown.

The order is the same at every size of G.  The bound on G needs pi_core
only when |G| does not divide m!, and pi_core reads the memoized seed
closures of G, so it costs little next to the scan it spares every group it
decides.  The scan stops at its first witness, and its conjugate lists are
found as it goes; the last restarts stay for the groups it cannot scan.
The socle factors come last because socle can enumerate a large group.  A
CapExceeded inside either bound only means no certificate.  Both parts of
the greedy phase draw from one seeded stream, so after a refused scan every
witness is the one all the restarts in a row would find.

The scan is exact: a subgroup of full pi-part order contains a Sylow
p-subgroup of the whole group for every p in pi and is generated by one
such choice per prime, and all Sylow p-subgroups are conjugate, so fixing
one reference factor and ranging over conjugates of the rest visits a
conjugate of every Hall pi-subgroup, and its failure proves absence.  The
no-nilpotent-Hall confirmation needs no scan: one centralizer of a Sylow
2-subgroup decides it.

Greedy growth, by group._enlarge, and the scan build each candidate
<current, new> with PermGroup.adjoin, which extends current's complete chain
instead of building the join's from scratch.  It rejects a candidate whose
order cannot divide the pi-part of |G| first by Lagrange (the order of new *
old must divide it), then by the orbits of the join (each length must divide
it), and only then during the extension, at the first rebuilt level whose
orbit length does not; a candidate that cannot be a pi-group never pays for a
full Schreier-Sims run.  The decisions are the same as with the full order,
and the generators are those of PermGroup(degree, current.generators + new).
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
import random
from collections import deque
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator, Mapping

from .config import SEARCH_SEED, SYLOW_COMBINATION_BUDGET, enumeration_cap
from .errors import CapExceeded, PreconditionError, check_cap
from .group import (
    PermGroup,
    _enlarge,
    _require_subgroup,
    centralizer,
    conjugate_subgroup,
    is_normal,
)
from .perm import Permutation, _conj, _inv
from .primes import PrimeSet, factorize
from .radicals import pi_core, sylow_subgroup
from .structure import is_simple, is_soluble, socle


def _is_hall_order(order: int, index: int, pi: PrimeSet) -> bool:
    """The Hall condition: a pi-number order and a pi'-number index."""
    return pi.is_pi_number(order) and pi.part_of(index) == 1


def is_hall_subgroup(sub: PermGroup, g: PermGroup, pi: PrimeSet) -> bool:
    """Order is a pi-number and index is a pi'-number; membership checked."""
    _require_subgroup(sub, g, "is_hall_subgroup")
    return _is_hall_order(sub.order(), g.order() // sub.order(), pi)


@dataclass(frozen=True)
class HallSearchResult:
    """Outcome of a Hall search: found / proven_absent / unknown.

    budget_used is read-only.  Its "route" names the step that decided:
    "trivial", "greedy", "certificate" (with "certificate_order", the order
    of G when the coset-action bound fails on G after the first restarts,
    or of the socle factor that fails it after the last), "scan" (with
    "sylow_combinations", the joins it built), or "cap" when the verdict
    stays unknown.
    "random_growth_steps" counts the greedy steps of every restart run, and
    "scan_refused" is the CapExceeded message of a refused scan.
    """

    status: str
    pi: PrimeSet
    subgroup: PermGroup | None
    budget_used: Mapping = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "budget_used", MappingProxyType(dict(self.budget_used)))

    @property
    def found(self) -> bool:
        return self.status == "found"


def _pi_part_of_element(x: Permutation, pi: PrimeSet) -> Permutation:
    """Power of x whose order is the pi-part of x's order: x ** m, m the
    pi'-part of the order.  One walk finds the cycles and, from their
    lengths, the order; x ** m moves each point m steps along its cycle.
    The walk is not Permutation.cycles: with its cycle tuples the suite
    workload read 0.4 MB more peak RSS at a fixed pass count."""
    images = x.images
    seen = bytearray(len(images))
    cycles = []
    order = 1
    for start, pt in enumerate(images):
        if seen[start] or pt == start:
            continue
        cycle = [start]
        seen[start] = 1
        while pt != start:
            seen[pt] = 1
            cycle.append(pt)
            pt = images[pt]
        cycles.append(cycle)
        order = math.lcm(order, len(cycle))
    m = pi.coprime_part_of(order)
    if m == 1:
        return x
    power = list(images)
    for cycle in cycles:
        shift = m % len(cycle)
        for pt, image in zip(cycle, cycle[shift:] + cycle[:shift]):
            power[pt] = image
    return Permutation._trusted(tuple(power))


# Greedy restarts before the coset-action bound on G, and after a refused
# scan.  Every greedy witness of the scale-3 suite comes within 3 restarts
# (S7 with pi = {2,3} on the third); groups above the enumeration cap, whose
# Sylow subgroups the scan cannot find, need later ones (S10 with pi = {2}
# on the twelfth).
GREEDY_RESTARTS = (3, 17)


def _greedy_phase(
    g: PermGroup, pi: PrimeSet, target: int, rng, restarts: int
) -> tuple[PermGroup | None, int]:
    """Randomized growth by pi-parts of random elements, drawn from rng,
    starting from the trivial group up to restarts times."""
    tried = 0
    for _ in range(restarts):
        current = PermGroup.trivial(g.degree)
        stale = 0
        while current.order() < target and stale < 40:
            tried += 1
            y = _pi_part_of_element(g.random_element(rng), pi)
            grown = current if y.is_identity else _enlarge(current, (y,), target)
            if grown is None or grown is current:
                stale += 1
            else:
                current, stale = grown, 0
        if current.order() == target:
            return current, tried
    return None, tried


def _factorial_valuation(m: int, r: int) -> int:
    """Exponent of the prime r in m!, by Legendre's formula."""
    total = 0
    while m:
        m //= r
        total += m
    return total


def _fails_coset_bound(k: PermGroup, pi: PrimeSet) -> bool:
    """True when |k : O_pi(k)| does not divide m!, m the pi'-part of |k|:
    then k has no Hall pi-subgroup.  O_pi(k) is computed only when |k|
    itself does not divide m!."""
    order = k.order()
    m = pi.coprime_part_of(order)
    if all(e <= _factorial_valuation(m, r) for r, e in factorize(order).items()):
        return False
    index = order // pi_core(k, pi).order()
    return any(e > _factorial_valuation(m, r) for r, e in factorize(index).items())


def _bound_certificate(g: PermGroup, pi: PrimeSet, socle_factors: bool) -> PermGroup | None:
    """g, or with socle_factors the first proper socle factor of g, when it
    fails the coset-action bound; None otherwise, also when a cap stops the
    check (socle included)."""
    try:
        parts = [f for f in socle(g).factors if f.order() < g.order()] if socle_factors else [g]
        return next((k for k in parts if _fails_coset_bound(k, pi)), None)
    except CapExceeded:
        return None


def _conjugates(g: PermGroup, sub: PermGroup) -> Iterator[PermGroup]:
    """Every conjugate of sub under g, each yielded as it is found.

    Conjugating by generators reaches conjugation by arbitrary elements, so
    the closure is the full conjugacy orbit.  Deterministic order: breadth
    first from sub with g's generators applied in order.  A conjugate is
    keyed by its element set, conjugated from its parent's, so only sub is
    enumerated and no conjugate builds a chain.
    """
    conjugators = [(s, s.images, _inv(s.images)) for s in g.generators]
    key = frozenset(x.images for x in sub.elements())
    seen = {key}
    queue = deque([(sub, key)])
    yield sub
    while queue:
        current, elements = queue.popleft()
        for s, images, inverse in conjugators:
            key = frozenset(_conj(x, images, inverse) for x in elements)
            if key not in seen:
                seen.add(key)
                conj = conjugate_subgroup(current, s)
                queue.append((conj, key))
                yield conj


def _sylow_generated(g: PermGroup, pi: PrimeSet, target: int, built: list[int]):
    """Yield every join of the reference Sylow system with conjugate factors.

    For each prime in pi dividing the order, take one Sylow subgroup; fix the
    largest as a reference and range over all conjugates of the others.  Any
    subgroup of order target is generated by one full Sylow p-subgroup of g
    per prime (their join divides target yet is divisible by every p-part),
    and conjugating it to contain the reference factor keeps its order, so
    every order-target subgroup has a conjugate among the yields.

    Branches are pruned as factors accumulate: each partial join lies inside
    any order-target subgroup containing the chosen factors, so a partial
    join whose order does not divide the target closes off every extension.
    Along the path realizing an actual order-target subgroup every partial
    join passes the filter, so pruning never loses a witness.

    The conjugates are found as the walk first needs them and kept for
    every later pass, so a caller that stops at a witness stops their
    search too.  The number n_p of Sylow p-subgroups divides |G : P|, so
    when the product of those indices is within SYLOW_COMBINATION_BUDGET
    the combinations are too; otherwise every list is finished first and
    their exact product checked against the budget before any join.

    built[0] counts every subgroup the scan builds, pruned joins included.
    """
    primes = [p for p in pi if g.order() % p == 0]
    sylows = {p: sylow_subgroup(g, p) for p in primes}
    fixed = max(primes, key=lambda p: (sylows[p].order(), p))
    rest = [p for p in primes if p != fixed]
    walks = [_conjugates(g, sylows[p]) for p in rest]
    if math.prod(g.order() // sylows[p].order() for p in rest) > SYLOW_COMBINATION_BUDGET:
        walks = [list(w) for w in walks]
        total = math.prod(len(lst) for lst in walks)
        check_cap(total, SYLOW_COMBINATION_BUDGET, "Sylow system scan: combinations")
    # every pass over a level reads a fresh copy of one tee, whose shared
    # buffer keeps the conjugates found so far
    conjugates = [itertools.tee(w, 1)[0] for w in walks]

    def walk(joined: PermGroup, level: int):
        if level == len(conjugates):
            yield joined
            return
        for factor in copy.copy(conjugates[level]):
            candidate = joined.adjoin(factor.generators, target)
            built[0] += 1
            if candidate is not None:
                yield from walk(candidate, level + 1)

    yield from walk(sylows[fixed], 0)


def find_hall_subgroup(g: PermGroup, pi: PrimeSet) -> HallSearchResult:
    """Search for a Hall pi-subgroup; memoized per (g, pi) and the
    enumeration cap in force (see hall_search).

    After the trivial cases, seeded randomized greedy growth looks for a
    witness.  When its first restarts fail, the coset-action bound on g may
    prove absence.  Otherwise the complete Sylow system scan runs, whose first
    subgroup of order pi-part is a witness and whose failure proves absence;
    on a soluble group the result is therefore found unless a budget refuses
    the scan.  After a refused scan the remaining restarts run, and when
    they fail too the bound on g's socle factors may prove absence;
    otherwise the result is unknown.
    """
    return hall_search(g, pi, enumeration_cap())


@functools.lru_cache(maxsize=None)
def hall_search(g: PermGroup, pi: PrimeSet, cap: int) -> HallSearchResult:
    """find_hall_subgroup with cap the enumeration cap in force.  The cap
    only keys the memo: the certificate reads it at call time, so a verdict
    that a small cap left unknown is not served under a larger one."""
    target = pi.part_of(g.order())
    if target == 1:
        return HallSearchResult(
            "found", pi, PermGroup.trivial(g.degree), {"route": "trivial"}
        )
    if target == g.order():
        return HallSearchResult("found", pi, g, {"route": "trivial"})
    rng = random.Random(SEARCH_SEED)
    first, rest = GREEDY_RESTARTS
    witness, tried = _greedy_phase(g, pi, target, rng, first)
    budget = {"random_growth_steps": tried}
    if witness is None:
        if _bound_certificate(g, pi, socle_factors=False) is not None:
            budget.update(route="certificate", certificate_order=g.order())
            return HallSearchResult("proven_absent", pi, None, budget)
        built = [0]
        scan = _sylow_generated(g, pi, target, built)
        try:
            witness = next((c for c in scan if c.order() == target), None)
        except CapExceeded as exc:
            budget["scan_refused"] = str(exc)
            witness, tried = _greedy_phase(g, pi, target, rng, rest)
            budget["random_growth_steps"] += tried
        else:
            budget.update(route="scan", sylow_combinations=built[0])
            status = "found" if witness is not None else "proven_absent"
            return HallSearchResult(status, pi, witness, budget)
    if witness is not None:
        return HallSearchResult("found", pi, witness, {**budget, "route": "greedy"})
    failing = _bound_certificate(g, pi, socle_factors=True)
    if failing is not None:
        budget.update(route="certificate", certificate_order=failing.order())
        return HallSearchResult("proven_absent", pi, None, budget)
    return HallSearchResult("unknown", pi, None, {**budget, "route": "cap"})


@dataclass(frozen=True)
class HeredityReport:
    """Hall property inherited by a normal subgroup and its quotient."""

    intersection_is_hall: bool
    image_is_hall: bool

    @property
    def holds(self) -> bool:
        return self.intersection_is_hall and self.image_is_hall


def check_hall_heredity(
    g: PermGroup, hall: PermGroup, pi: PrimeSet, normal: PermGroup
) -> HeredityReport:
    """For normal N: H∩N is a Hall pi-subgroup of N and HN/N one of G/N."""
    if not is_hall_subgroup(hall, g, pi):
        raise PreconditionError("check_hall_heredity needs a genuine Hall subgroup")
    if not is_normal(normal, g):
        raise PreconditionError("check_hall_heredity needs a normal subgroup")
    # orders only: |H n N| = |H| |N| / |HN|, and HN/N has index |G : HN|
    joined = normal.adjoin(hall.generators)
    meet = hall.order() * normal.order() // joined.order()
    first = _is_hall_order(meet, normal.order() // meet, pi)
    second = _is_hall_order(joined.order() // normal.order(), g.order() // joined.order(), pi)
    return HeredityReport(intersection_is_hall=first, image_is_hall=second)


def confirm_no_nilpotent_hall_2p(simple_group: PermGroup, p: int) -> bool:
    """True iff the simple group has no nilpotent Hall {2,p}-subgroup.

    p must be an odd prime divisor of the order.  A nilpotent Hall
    {2,p}-subgroup is P' x Q, P' a Sylow 2-subgroup and Q a Sylow
    p-subgroup.  Conjugating it so that P' is P, the Sylow 2-subgroup taken
    here, puts Q inside C(P), the centralizer of P, so |C(P)| has the full
    p-part of the order.  Conversely, a Sylow p-subgroup Q of C(P) of that
    full p-part meets P trivially, since p is odd, so PQ = P x Q is a
    nilpotent Hall {2,p}-subgroup.  One centralizer decides the claim.
    """
    if p == 2:
        raise PreconditionError("p must be odd")
    if simple_group.order() % p != 0:
        raise PreconditionError(f"{p} does not divide the group order")
    if not is_simple(simple_group) or is_soluble(simple_group):
        raise PreconditionError("expected a non-abelian simple group")
    p_part = PrimeSet([p]).part_of
    c = centralizer(simple_group, sylow_subgroup(simple_group, 2))
    return p_part(c.order()) < p_part(simple_group.order())
