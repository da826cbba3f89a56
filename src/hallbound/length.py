"""The non-p-soluble length invariant via the p-kernel series.

For a prime p, the p-kernel of G is G itself when G is p-soluble; otherwise
quotient by the largest normal p-soluble subgroup R, take the socle of G/R
(all of whose factors are then non-abelian simple groups of order divisible
by p), and pull back the kernel K/R of G/R's conjugation action on those
factors.  The invariant is 1 + its value on G/K, and G/K is the target of
that same action, a group on as many points as there are factors: the
series recurses on the target, and pulls each kernel of the target's series
back through ActionMap.preimage and then through G/R.  The definitional
route, a shortest-series search over the full normal subgroup lattice, is an
independent oracle of the test suite (tests/oracles.py), which cross-checks
this one at small orders.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .group import ActionMap, PermGroup
from .perm import Permutation
from .quotient import quotient_or_self
from .radicals import p_soluble_radical, require_prime
from .structure import derived_series, socle


def _factor_action(g: PermGroup, factors) -> ActionMap:
    """g's conjugation action on its listed socle factors.

    A generator sends each factor to the one factor holding the conjugate of
    its first generator: distinct simple factors meet trivially, so no other
    factor holds that element.
    """

    def on_factors(gen: Permutation) -> list[int]:
        images = []
        for f in factors:
            conj = f.generators[0].conjugate(gen)
            images += [j for j, h in enumerate(factors) if h.contains(conj)]
        if sorted(images) != list(range(len(factors))):
            raise AssertionError("conjugation does not permute the socle factors")
        return images

    return ActionMap(g, len(factors), on_factors)


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
    """The p-kernel K of g, then the full preimages of the terms of the
    series of G/K, read as the target of the socle-factor action.

    The series is strictly ascending, its top term is g itself, and the
    number of terms is the non-p-soluble length; a p-soluble group yields
    the empty series.
    """
    require_prime(p)
    radical = p_soluble_radical(g, p)
    if radical.order() == g.order():
        return KernelSeries(g, p, (), (), None)
    reduced, pull_back = quotient_or_self(g, radical)
    decomposition = socle(reduced)
    if any(decomposition.abelian_flags):
        raise AssertionError("socle above the p-soluble radical has an abelian factor")
    for f in decomposition.factors:
        if f.order() % p != 0:
            raise AssertionError(
                "socle factor above the p-soluble radical has order prime to p"
            )
    action = _factor_action(reduced, decomposition.factors)
    kernel = action.kernel()
    if kernel.is_trivial():
        raise AssertionError("kernel series failed to ascend")
    rest = kernel_series(action.target, p)
    terms = [pull_back(kernel)] + [pull_back(action.preimage(k)) for k in rest.kernels]
    kernels = tuple(g if k.order() == g.order() else k for k in terms)
    counts = (len(decomposition.factors),) + rest.socle_factor_counts
    return KernelSeries(g, p, kernels, counts, pull_back(decomposition.socle))


def p_kernel(g: PermGroup, p: int) -> PermGroup:
    """The p-kernel: G itself if p-soluble, else the pulled-back joint
    normalizer of the socle factors above the p-soluble radical, which is
    the first term of the kernel series."""
    kernels = kernel_series(g, p).kernels
    return kernels[0] if kernels else g


def non_p_soluble_length(g: PermGroup, p: int) -> int:
    """The invariant itself: zero exactly for p-soluble groups."""
    return kernel_series(g, p).length


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
    """Check that the p-kernel K has non-p-soluble length at most one, and
    that K/S is soluble for S the socle's preimage (vacuous when p-soluble):
    (K/S)^(i) = K^(i)S/S, so K/S is soluble exactly when the last term of
    K's derived series lies in S, and no quotient is built."""
    socle_preimage = kernel_series(g, p).socle_preimage
    kernel = p_kernel(g, p)
    kernel_length = non_p_soluble_length(kernel, p)
    outer_soluble: bool | None = None
    if socle_preimage is not None:
        outer_soluble = derived_series(kernel)[-1].is_subgroup_of(socle_preimage)
    holds = kernel_length <= 1 and (outer_soluble is None or outer_soluble)
    return KernelLemmaReport(
        group=g,
        p=p,
        kernel=kernel,
        kernel_length=kernel_length,
        outer_soluble=outer_soluble,
        holds=holds,
    )
