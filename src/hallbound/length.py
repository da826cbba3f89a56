"""The non-p-soluble length invariant via the p-kernel series.

For a prime p, the p-kernel of G is G itself when G is p-soluble; otherwise
quotient by the largest normal p-soluble subgroup, take the socle of the
quotient (all of whose factors are then non-abelian simple groups of order
divisible by p), and pull back the kernel of the conjugation action on those
factors.  Iterating full preimages of kernels gives a strictly ascending
series; the number of steps until the quotient becomes p-soluble is the
invariant.  The definitional route, a shortest-series search over the full
normal subgroup lattice, is an independent oracle of the test suite
(tests/oracles.py), which cross-checks this one at small orders.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .group import PermGroup, action_kernel
from .perm import Permutation
from .quotient import ascending_series, quotient_or_self
from .radicals import p_soluble_radical, require_prime
from .structure import derived_series, socle


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
