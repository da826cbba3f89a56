"""Quotients by normal subgroups: G's action on the orbits of N, or on its
cosets.

The orbits of a normal N are blocks of G; when N is the whole kernel of
G's action on them, that action, an ActionMap, is G/N on at most deg(G)
points (Dixon & Mortimer, *Permutation Groups*, 1996, §1.6).  Otherwise G/N
is the target of QuotientMap, the right-coset action of G on the cosets of
N.  Both pull subgroups back through _preimage.
Each coset is named by its canonical representative: the lexicographically
least element of the coset under image-array order, computed greedily from
N's stabilizer chain without enumerating N.  Coset 0 is N itself (the least
element of a group is always the identity), so the target degree equals the
index and the map of the identity is the identity.

The rule that a trivial kernel never builds a quotient (which would be the
regular representation) lives here, in quotient_or_self.
"""

from __future__ import annotations

import functools
from collections import deque
from typing import Callable

from .config import DEFAULT_QUOTIENT_DEGREE_CAP
from .errors import SubgroupError, check_cap
from .group import ActionMap, PermGroup, _block_action, is_normal
from .perm import Permutation, _mul


class QuotientMap:
    """The coset-action homomorphism for a normal subgroup N of G."""

    __slots__ = ("source", "kernel", "target", "coset_reps", "_index_of")

    def __init__(self, source: PermGroup, kernel: PermGroup):
        if not is_normal(kernel, source):
            raise SubgroupError("quotient kernel must be normal in the source")
        index = source.order() // kernel.order()
        check_cap(index, DEFAULT_QUOTIENT_DEGREE_CAP, "quotient: coset action degree")
        nchain = kernel.chain
        identity = tuple(range(source.degree))
        reps: list[tuple[int, ...]] = [nchain.min_coset_rep(identity)]
        index_of: dict[tuple[int, ...], int] = {reps[0]: 0}
        queue = deque([0])
        gen_images = [g.images for g in source.generators]
        # cosets are walked in index order, so each target row fills in order
        target_gens: list[list[int]] = [[] for _ in gen_images]
        while queue:
            i = queue.popleft()
            base = reps[i]
            for g, target in zip(gen_images, target_gens):
                rep = nchain.min_coset_rep(_mul(base, g))
                if rep not in index_of:
                    index_of[rep] = len(reps)
                    reps.append(rep)
                    queue.append(len(reps) - 1)
                target.append(index_of[rep])
        if len(reps) != index:
            raise AssertionError(
                f"coset walk found {len(reps)} cosets, index is {index}"
            )
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "coset_reps", tuple(Permutation(r) for r in reps))
        object.__setattr__(self, "_index_of", index_of)
        object.__setattr__(
            self,
            "target",
            PermGroup(max(index, 1), [Permutation(t) for t in target_gens]),
        )

    def __setattr__(self, name, value):
        raise AttributeError("QuotientMap is immutable")

    @property
    def index(self) -> int:
        return len(self.coset_reps)

    def image(self, x: Permutation) -> Permutation:
        """Image of a source element in the coset action."""
        if not self.source.contains(x):
            raise SubgroupError("element is not in the quotient's source group")
        min_rep, index_of = self.kernel.chain.min_coset_rep, self._index_of
        return Permutation([index_of[min_rep(_mul(r.images, x.images))] for r in self.coset_reps])

    def image_subgroup(self, sub: PermGroup) -> PermGroup:
        """Image of a subgroup of the source."""
        if not sub.is_subgroup_of(self.source):
            raise SubgroupError("image_subgroup argument is not a subgroup of source")
        return PermGroup(self.target.degree, [self.image(g) for g in sub.generators])

    def preimage_of(self, t: Permutation) -> Permutation:
        """One source element mapping to t (the canonical rep of its coset).

        The cosets are numbered so that image(r_i) sends 0 to i; since elements
        with the same image at 0 lie in the same coset, agreeing at coset 0
        forces full agreement.
        """
        if not self.target.contains(t):
            raise SubgroupError("element is not in the quotient's target group")
        return self.coset_reps[t(0)]

    def preimage_subgroup(self, sub: PermGroup) -> PermGroup:
        """Full preimage of a subgroup of the target."""
        return _preimage(self.kernel, self.target, self.preimage_of, sub)


def _preimage(
    kernel: PermGroup, target: PermGroup, lift: Callable[[Permutation], Permutation], sub: PermGroup
) -> PermGroup:
    """<kernel, a lift of each generator of sub>, extended from the kernel's
    chain: the full preimage of sub, a subgroup of the quotient target,
    checked by its order."""
    if not sub.is_subgroup_of(target):
        raise SubgroupError("preimage argument is not a subgroup of the quotient")
    lifts = [lift(t) for t in sub.generators]
    result = kernel.adjoin(lifts)
    expected = sub.order() * kernel.order()
    if result.order() != expected:
        raise AssertionError(
            f"preimage order {result.order()} != |sub| * |kernel| = {expected}"
        )
    return result


def quotient_by(source: PermGroup, kernel: PermGroup) -> QuotientMap:
    """Quotient map of a group by a normal subgroup."""
    return QuotientMap(source, kernel)


def quotient_or_self(
    g: PermGroup, n: PermGroup
) -> tuple[PermGroup, Callable[[PermGroup], PermGroup]]:
    """G/N as a permutation group, with the map taking its subgroups to
    their full preimages in G.

    For a trivial N this is g itself (same degree) and the identity, which
    keeps series computations off the regular representation.  Else it is
    G's action on the orbits of N when N is its whole kernel and there are
    fewer than |G : N| orbits, and the coset action when not.
    """
    if n.is_trivial():
        return g, lambda sub: sub
    if not is_normal(n, g):
        raise SubgroupError("quotient kernel must be normal in the source")
    blocks = n.orbits()
    index = g.order() // n.order()
    if len(blocks) < index:
        action = ActionMap(g, len(blocks), _block_action(blocks))
        if action.image.order() == index:
            return action.image, functools.partial(_preimage, n, action.image, action.lift)
    q = quotient_by(g, n)
    return q.target, q.preimage_subgroup


def factor_group(big: PermGroup, small: PermGroup) -> PermGroup:
    """The abstract factor big/small as a permutation group, from
    quotient_or_self: big itself when small is trivial, else big's action
    on the orbits of small or on its cosets."""
    return quotient_or_self(big, small)[0]
