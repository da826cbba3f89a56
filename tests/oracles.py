"""Independent oracles for the non-p-soluble length, the p-length, the
centralizer and the no-nilpotent-Hall check.

The length oracles take the definition literally: each builds the whole
normal subgroup lattice of a small group and searches it for a shortest
normal series of the admissible kind, so the tests use them to cross-check
the kernel series and the upper p-series at small orders.  The lattice and
the series search share no code with those; the classification of a factor
still calls the package's socle and is_p_soluble.

centralizer_oracle enumerates the whole ambient group and keeps the elements
that commute with the subgroup's generators, against the package's
centralizer, which reads C_G(N) off the action.  no_nilpotent_hall_2p_oracle
walks the Hall search's Sylow system scan and tests each full-order join for
nilpotency, against the package's check by one centralizer.
normal_closure_oracle conjugates every generator in every round, against
the package's normal_closure, which conjugates only the generators the last
round added.

tuple_mul, tuple_inv and tuple_conj are the permutation primitives on image
tuples, as the engine computed them before it stored degrees up to 256 as
bytes, against the raw primitives of hallbound.perm.
"""

import functools
from collections import deque
from operator import itemgetter

from hallbound import (
    PermGroup,
    Permutation,
    PrimeSet,
    factor_group,
    is_nilpotent,
    is_normal,
    is_p_soluble,
    normal_closure,
    socle,
    span,
)
from hallbound.errors import PreconditionError, check_cap
from hallbound.group import _enlarge
from hallbound.hall import _sylow_generated
from hallbound.radicals import require_prime

def tuple_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Image-tuple product, a first then b."""
    if len(a) < 2:
        # itemgetter of one index returns the bare item, and of none fails
        return tuple(b[x] for x in a)
    return itemgetter(*a)(b)


def tuple_inv(a: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def tuple_conj(x: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """Image tuple of x ** g = g^-1 * x * g: one pass that sends g(i) to
    g(x(i))."""
    out = [0] * len(x)
    for i, v in enumerate(x):
        out[g[i]] = g[v]
    return tuple(out)


# Largest group order the lattice oracles enumerate.
LATTICE_ORDER_CAP = 2_000
# Most normal subgroups the lattice closure may hold.
NORMAL_LATTICE_BUDGET = 5_000


@functools.lru_cache(maxsize=None)
def normal_subgroup_lattice(g: PermGroup) -> tuple[PermGroup, ...]:
    """Every normal subgroup of g, for small g.

    Normal closures of cyclic subgroups are join-dense in the normal lattice
    (any normal subgroup is the join of the closures of its elements), so
    closing them under join and intersection reaches a fixed point that is
    the whole lattice.
    """
    elements = g.element_list(LATTICE_ORDER_CAP)
    element_sets: dict[frozenset, PermGroup] = {}

    def register(sub: PermGroup) -> frozenset:
        key = frozenset(x.images for x in sub.elements())
        if key not in element_sets:
            element_sets[key] = sub
        return key

    register(PermGroup.trivial(g.degree))
    register(g)
    seen_cyclic: set[frozenset] = set()
    for x in elements:
        if x.is_identity:
            continue
        cyc = frozenset((x**k).images for k in range(x.order()))
        if cyc in seen_cyclic:
            continue
        seen_cyclic.add(cyc)
        register(normal_closure(g, PermGroup(g.degree, [x])))
    work = list(element_sets)
    while work:
        check_cap(len(element_sets), NORMAL_LATTICE_BUDGET, "normal lattice: size")
        current = work.pop()
        for other in list(element_sets):
            meet = current & other
            if meet not in element_sets:
                element_sets[meet] = span(
                    g.degree,
                    sorted((Permutation(x) for x in meet), key=lambda q: q.images),
                )
                work.append(meet)
            if not (current <= other or other <= current):
                joined = span(
                    g.degree,
                    list(element_sets[current].generators)
                    + list(element_sets[other].generators),
                )
                before = len(element_sets)
                key = register(joined)
                if len(element_sets) > before:
                    work.append(key)
    return tuple(
        sorted(element_sets.values(), key=lambda s: (s.order(), [p.images for p in s.generators]))
    )


def _is_semisimple_with_p(h: PermGroup, p: int) -> bool:
    """True iff h is a direct product of non-abelian simple groups, each of
    order divisible by p."""
    if h.is_trivial():
        return False
    decomposition = socle(h)
    if decomposition.socle.order() != h.order():
        return False
    if any(decomposition.abelian_flags):
        return False
    return all(f.order() % p == 0 for f in decomposition.factors)


def _lattice_shortest(g: PermGroup, p: int, classify) -> int:
    """0/1-weighted shortest path from the trivial subgroup to g.

    classify(factor_group) must return 0, 1 or None (no edge).  Nodes are the
    normal subgroups; an edge goes from a smaller to a strictly larger one
    when the smaller is normal in the larger and the factor is classified.
    """
    lattice = normal_subgroup_lattice(g)
    bottom = next(i for i, n in enumerate(lattice) if n.is_trivial())
    top = next(i for i, n in enumerate(lattice) if n.order() == g.order())
    edges: list[list[tuple[int, int]]] = [[] for _ in lattice]
    for i, small in enumerate(lattice):
        for j, big in enumerate(lattice):
            if big.order() <= small.order() or not small.is_subgroup_of(big):
                continue
            if not is_normal(small, big):
                continue
            weight = classify(factor_group(big, small))
            if weight is not None:
                edges[i].append((j, weight))
    dist = [None] * len(lattice)
    dist[bottom] = 0
    queue = deque([bottom])
    while queue:
        i = queue.popleft()
        for j, w in edges[i]:
            d = dist[i] + w
            if dist[j] is None or d < dist[j]:
                dist[j] = d
                if w == 0:
                    queue.appendleft(j)
                else:
                    queue.append(j)
    if dist[top] is None:
        raise AssertionError("no admissible normal series found in the lattice")
    return dist[top]


def lambda_oracle(g: PermGroup, p: int) -> int:
    """Definitional value: fewest non-p-soluble factors over all normal
    series whose factors are p-soluble or semisimple with p dividing each
    simple factor's order.  Exhaustive; requires order <= 2000."""
    require_prime(p)
    if is_p_soluble(g, p):
        return 0

    def classify(h: PermGroup):
        if is_p_soluble(h, p):
            return 0
        if _is_semisimple_with_p(h, p):
            return 1
        return None

    return _lattice_shortest(g, p, classify)


def p_length_oracle(g: PermGroup, p: int) -> int:
    """Definitional p-length: fewest p-factors over all normal series with
    p-group or p'-group factors.  Exhaustive; requires order <= 1000."""
    require_prime(p)
    if not is_p_soluble(g, p):
        raise PreconditionError("p-length oracle requires a p-soluble group")
    check_cap(g.order(), 1000, "p-length oracle: group order")

    def classify(h: PermGroup):
        n = h.order()
        if n == 1:
            return 0
        while n % p == 0:
            n //= p
        if n == 1:
            return 1  # p-group
        if h.order() % p != 0:
            return 0  # p'-group
        return None

    return _lattice_shortest(g, p, classify)


def centralizer_oracle(ambient: PermGroup, sub: PermGroup) -> PermGroup:
    """C_G(N) by its definition: the span of the elements of G, enumerated
    under the enumeration cap, that commute with every generator of N."""
    gens = sub.generators
    hits = [x for x in ambient.element_list() if all(x * s == s * x for s in gens)]
    result = span(ambient.degree, hits)
    assert result.order() == len(hits)
    return result


def normal_closure_oracle(ambient: PermGroup, sub: PermGroup) -> PermGroup:
    """The normal closure by rounds that conjugate every generator of the
    group found so far by every generator of ambient, until a round adds
    nothing; a closure of full order is ambient itself."""
    if sub.is_trivial():
        return PermGroup.trivial(ambient.degree)
    current = span(ambient.degree, sub.generators)
    while True:
        conjugates = (h.conjugate(g) for g in ambient.generators for h in current.generators)
        grown = _enlarge(current, conjugates)
        if grown is current:
            return ambient if current.order() == ambient.order() else current
        current = grown


def no_nilpotent_hall_2p_oracle(simple_group: PermGroup, p: int) -> bool:
    """True iff no subgroup of the full {2,p}-part order is nilpotent: every
    such subgroup has a conjugate among the Sylow system joins, and
    conjugation keeps nilpotency."""
    pi = PrimeSet([2, p])
    target = pi.part_of(simple_group.order())
    joins = _sylow_generated(simple_group, pi, target, [0])
    return not any(c.order() == target and is_nilpotent(c) for c in joins)
