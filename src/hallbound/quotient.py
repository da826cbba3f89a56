"""Quotients by normal subgroups: G's action on the orbits of N, or on its
cosets.

The orbits of a normal N are blocks of G; when N is the whole kernel of
G's action on them, that action, an ActionMap, is G/N on at most deg(G)
points (Dixon & Mortimer, *Permutation Groups*, 1996, §1.6).  Otherwise G/N
is the target of QuotientMap, the ActionMap of G on the right cosets of N,
whose lifts are the coset representatives, so it builds no chain on the
cosets.  Either map is given N as its kernel, and ActionMap.preimage pulls
subgroups back by extending N's own chain.
Each coset is named by its canonical representative: the lexicographically
least element of the coset under image-array order, computed greedily from
N's stabilizer chain without enumerating N.  Coset 0 is N itself (the least
element of a group is always the identity), so the target degree equals the
index and the map of the identity is the identity.

The rule that a trivial kernel never builds a quotient (which would be the
regular representation) lives here, in quotient_or_self.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from .config import DEFAULT_QUOTIENT_DEGREE_CAP
from .errors import SubgroupError, check_cap
from .group import ActionMap, PermGroup, _block_action, is_normal
from .perm import Permutation, _identity, _mul


class QuotientMap(ActionMap):
    """The coset-action homomorphism for a normal subgroup N of G: its
    kernel is N and its lifts are the coset representatives, so it never
    builds ActionMap's extended chain."""

    def __init__(self, source: PermGroup, kernel: PermGroup):
        if not is_normal(kernel, source):
            raise SubgroupError("quotient kernel must be normal in the source")
        index = source.order() // kernel.order()
        check_cap(index, DEFAULT_QUOTIENT_DEGREE_CAP, "quotient: coset action degree")
        min_rep = kernel.chain.min_coset_rep
        reps = [min_rep(_identity(source.degree))]
        index_of = {reps[0]: 0}
        queue = deque([0])
        # cosets are walked in index order, so each generator's row fills in order
        rows: dict[Permutation, list[int]] = {gen: [] for gen in source.generators}
        while queue:
            base = reps[queue.popleft()]
            for gen, row in rows.items():
                rep = min_rep(_mul(base, gen._raw))
                if rep not in index_of:
                    index_of[rep] = len(reps)
                    queue.append(len(reps))
                    reps.append(rep)
                row.append(index_of[rep])
        if len(reps) != index:
            raise AssertionError(f"coset walk found {len(reps)} cosets, index is {index}")

        def on_cosets(x: Permutation) -> list[int]:
            # a generator's image is its row from the walk, not a second reduction
            return rows.get(x) or [index_of[min_rep(_mul(r, x._raw))] for r in reps]

        super().__init__(source, index, on_cosets, kernel)
        self.coset_reps = tuple(map(Permutation._trusted, reps))

    def lift(self, t: Permutation) -> Permutation:
        """The canonical representative of the coset t sends N to.  The
        cosets are numbered so that image(r_i) sends 0 to i; elements with
        the same image at 0 lie in one coset, so agreeing at coset 0 forces
        full agreement."""
        return self.coset_reps[t(0)]


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
    # N fixes its own orbits, so it is the whole kernel exactly when the
    # target has order |G : N|; a map that fails this never leaves here
    action = ActionMap(g, len(blocks), _block_action(blocks), n) if len(blocks) < index else None
    if action is None or action.target.order() != index:
        action = QuotientMap(g, n)
    return action.target, action.preimage


def factor_group(big: PermGroup, small: PermGroup) -> PermGroup:
    """The abstract factor big/small as a permutation group, from
    quotient_or_self: big itself when small is trivial, else big's action
    on the orbits of small or on its cosets."""
    return quotient_or_self(big, small)[0]
