"""The non-p-soluble length invariant via the p-kernel series.

For a prime p, the p-kernel of G is G itself when G is p-soluble; otherwise
quotient by the largest normal p-soluble subgroup, take the socle of the
quotient (all of whose factors are then non-abelian simple groups of order
divisible by p), and pull back the kernel of the conjugation action on those
factors.  Iterating full preimages of kernels gives a strictly ascending
series; the number of steps until the quotient becomes p-soluble is the
invariant.  The definitional route, a shortest-series search over the full
normal subgroup lattice, is implemented independently as an oracle for
cross-checking at small orders.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass

from .config import LATTICE_ORDER_CAP, NORMAL_LATTICE_BUDGET
from .errors import PreconditionError, check_cap
from .group import PermGroup, action_kernel, is_normal, normal_closure, span
from .perm import Permutation
from .quotient import ascending_series, factor_group, quotient_or_self
from .radicals import is_p_soluble, p_soluble_radical, require_prime
from .structure import is_soluble, socle


def _kernel_of_factor_action(g: PermGroup, factors) -> PermGroup:
    """Subgroup of g normalizing every listed socle factor.

    This is the kernel of the conjugation action on the factors, computed as
    an action kernel on factor indices (no coset enumeration).
    """

    def on_factors(gen: Permutation) -> list[int]:
        images = []
        for f in factors:
            conj = [x.conjugate(gen) for x in f.generators]
            images += [
                j for j, h in enumerate(factors)
                if h.order() == f.order() and all(h.contains(c) for c in conj)
            ]
        if sorted(images) != list(range(len(factors))):
            raise AssertionError("conjugation does not permute the socle factors")
        return images

    return action_kernel(g, len(factors), on_factors)


@dataclass(frozen=True)
class KernelSeries:
    """The ascending kernel series with its per-level factor counts, and the
    preimage in G of the first socle above the p-soluble radical (None for a
    p-soluble G)."""

    group: PermGroup
    p: int
    kernels: tuple[PermGroup, ...]
    socle_factor_counts: tuple[int, ...]
    socle_preimage: PermGroup | None

    @property
    def length(self) -> int:
        return len(self.kernels)


@functools.lru_cache(maxsize=None)
def kernel_series(g: PermGroup, p: int) -> KernelSeries:
    """Iterated full preimages of p-kernels until the quotient is p-soluble.

    Each step reads the stage's p-soluble radical once, ends the series when
    it is the whole stage, and keeps the socle's preimage on the first step.
    The series is strictly ascending and the number of terms is the
    non-p-soluble length; a p-soluble group yields the empty series.
    """
    require_prime(p)
    counts: list[int] = []
    socle_preimage: PermGroup | None = None

    def step(stage: PermGroup) -> PermGroup:
        nonlocal socle_preimage
        radical = p_soluble_radical(stage, p)
        if radical.order() == stage.order():
            return PermGroup.trivial(stage.degree)
        reduced, pull_back = quotient_or_self(stage, radical)
        decomposition = socle(reduced)
        if any(decomposition.abelian_flags):
            raise AssertionError(
                "socle above the p-soluble radical has an abelian factor"
            )
        for f in decomposition.factors:
            if f.order() % p != 0:
                raise AssertionError(
                    "socle factor above the p-soluble radical has order prime to p"
                )
        kernel = pull_back(_kernel_of_factor_action(reduced, decomposition.factors))
        if kernel.is_trivial():
            raise AssertionError("kernel series failed to ascend")
        if socle_preimage is None:
            socle_preimage = pull_back(decomposition.socle)
        counts.append(len(decomposition.factors))
        return kernel

    kernels = tuple(ascending_series(g, step)[1:])
    return KernelSeries(g, p, kernels, tuple(counts), socle_preimage)


def p_kernel(g: PermGroup, p: int) -> PermGroup:
    """The p-kernel: G itself if p-soluble, else the pulled-back joint
    normalizer of the socle factors above the p-soluble radical, which is
    the first term of the kernel series."""
    kernels = kernel_series(g, p).kernels
    return kernels[0] if kernels else g


def non_p_soluble_length(g: PermGroup, p: int) -> int:
    """The invariant itself: zero exactly for p-soluble groups."""
    return kernel_series(g, p).length


# ---------------------------------------------------------------------------
# Independent oracle: shortest normal series over the full normal lattice


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


@dataclass(frozen=True)
class KernelLemmaReport:
    """Witness that one kernel step removes all non-p-soluble content."""

    group: PermGroup
    p: int
    kernel: PermGroup
    kernel_length: int
    outer_soluble: bool | None
    holds: bool


def check_kernel_lemma(g: PermGroup, p: int) -> KernelLemmaReport:
    """Check that the p-kernel has non-p-soluble length at most one, and that
    above the socle's preimage the kernel is soluble (vacuous when p-soluble)."""
    socle_preimage = kernel_series(g, p).socle_preimage
    kernel = p_kernel(g, p)
    kernel_length = non_p_soluble_length(kernel, p)
    outer_soluble: bool | None = None
    if socle_preimage is not None:
        outer_soluble = is_soluble(factor_group(kernel, socle_preimage))
    holds = kernel_length <= 1 and (outer_soluble is None or outer_soluble)
    return KernelLemmaReport(
        group=g,
        p=p,
        kernel=kernel,
        kernel_length=kernel_length,
        outer_soluble=outer_soluble,
        holds=holds,
    )
