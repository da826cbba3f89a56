"""Permutation groups backed by a deterministic stabilizer chain.

The chain uses the full ordered base (every point is a base point, taken in
increasing order unless a prefix is prescribed).  That buys two structural
guarantees used throughout the library:

  * a permutation fixing every base point is the identity, so sifting needs
    no base extension and membership is a single pass;
  * the level-k subgroup of the chain is exactly the pointwise stabilizer of
    the first k base points, which gives polynomial-time pointwise
    stabilizers, action kernels and minimal coset representatives.

Most levels of a full base are trivial (their orbit is the base point
alone), and no per-level work runs on them: construction, sifting, random
elements and coset representatives visit only the non-trivial levels, and
only those store a transversal, so neither time nor memory grows with the
degree.  The chain is still exactly the full-base chain, with the same
strong generators and transversals.

Construction is deterministic: no randomization, fixed generator order,
orbit points processed in sorted order.  Schreier generators are processed
bottom-up in the classical way; a non-trivial sift residue is appended as a
new strong generator and the scan resumes at the residue's level.
"""

from __future__ import annotations

import bisect
import copy
import functools
import itertools
import math
from collections import deque
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .config import enumeration_cap
from .errors import DegreeMismatch, SubgroupError, check_cap
from .perm import Permutation, _inv, _mul, _order_divides


class _OrbitDoesNotDivide(Exception):
    """A divisor-bounded chain build stopped early; never leaves this module."""


def _extend_products(
    prefixes: Iterable[tuple[int, ...]], level: Sequence[tuple[int, ...]]
) -> Iterator[tuple[int, ...]]:
    """p * u for each prefix p in turn and each u of level, in that order."""
    for p in prefixes:
        yield from map(_mul, itertools.repeat(p, len(level)), level)


def _orbit(gens: Sequence[tuple[int, ...]], point: int) -> list[int]:
    """Orbit of a point under image tuples, in BFS order from the point."""
    out = [point]
    seen = {point}
    for pt in out:
        for g in gens:
            img = g[pt]
            if img not in seen:
                seen.add(img)
                out.append(img)
    return out


def _orbits(gens: Sequence[tuple[int, ...]], degree: int) -> Iterator[list[int]]:
    """All orbits under image tuples, ordered by least point, each in BFS
    order from it, each found when it is asked for."""
    seen: set[int] = set()
    for pt in range(degree):
        if pt not in seen:
            orb = _orbit(gens, pt)
            seen.update(orb)
            yield orb


class StabChain:
    """Stabilizer chain with the full ordered base.

    Level i is non-trivial exactly when some strong generator has level i
    (moves base[i] and fixes the base points before it); only those levels
    are built, scanned and sifted through.

    * Build: a trivial level needs no Schreier generators.  Its orbit is the
      base point alone, so its Schreier generators are the deeper strong
      generators themselves, which already sift to the identity through the
      finished deeper levels.  On a non-trivial level, a product u * x that
      is itself the coset representative of its image of the base point
      gives the identity as Schreier generator and is skipped; the BFS tree
      edges, which give it by construction, are skipped before the product
      is formed.  Each level's generator list is formed once per rebuild.
    * Sift: between two non-trivial levels one C-level comparison checks
      that p fixes every skipped base point; where it does not, p is
      returned as it stands, exactly where a pass over every level would
      have stopped, so sift residues (and hence the strong generators) are
      those of the full pass.  After the last non-trivial level p is the
      identity or the residue.
    * Walks: random elements and minimal coset representatives take one
      step per non-trivial level, with the same draws as over every level.

    Every build extends a complete chain (incremental Schreier-Sims; Seress,
    *Permutation Group Algorithms*, 2003, §4.2): the constructor extends the
    trivial chain by all generators, ``extended`` a copy of a finished chain
    by a few more.  The new strong generators are appended and the build
    resumes at the deepest level among them: the levels deeper than that
    keep their generators, so they are still complete (resuming at a
    shallower new level would leave a deeper one unbuilt).  A level is
    rebuilt only when a strong generator at that level or deeper has arrived
    since its last build, and the scan then descends from the level of the
    last residue.  A Schreier generator once proved is not sifted again: the
    scan of a rebuilt level skips a pair (beta, x) that its last scan (in
    this build, or the parent chain's complete one) reached, with x one of
    that scan's generators and u_beta and u_x(beta) unchanged.  That pair's
    Schreier generator is the one proved then, and it lies in K_(i+1), which
    only grows and whose levels are complete whenever level i is scanned, so
    it would sift to the identity: the residues, and so the chain, are those
    of the scan that sifts every pair.
    A rebuild restarts its BFS from scratch into a fresh dict (extending an
    orbit in place would pick other coset representatives, so the skipped
    pairs are only those whose representatives came out unchanged), so the
    levels a copy does not rebuild share their transversal dicts, and the
    inverse caches that both fill with the same values, with the chain it
    came from.  Inverse transversal elements are computed when first needed;
    a rebuilt level starts a fresh inverse cache that keeps the entries of
    the representatives that came out unchanged.

    A build given the group's order stops scanning once the chain is
    complete (see _build; Seress ch. 4), with the chain of the full build.

    With a divisor n the build stops (``_OrbitDoesNotDivide``) at the first
    rebuilt level whose orbit length does not divide n.  That level's orbit
    is an orbit of K_i = <strong generators at level >= i>, a subgroup of the
    group C being built, so its length divides |K_i| and hence |C|: the
    early stop proves that |C| does not divide n.  A trivial level's orbit
    length 1 always divides.  A build that is not stopped is exactly the
    build without a divisor.
    """

    def __init__(
        self,
        degree: int,
        generators: Sequence[tuple[int, ...]],
        base: Sequence[int] | None = None,
        order: int | None = None,
    ):
        self.degree = degree
        identity = tuple(range(degree))
        self._identity = identity
        if base is None:
            self.base = identity
        else:
            prefix = list(dict.fromkeys(base))
            if any(not 0 <= b < degree for b in prefix):
                raise ValueError("base point out of range")
            chosen = set(prefix)
            rest = [p for p in range(degree) if p not in chosen]
            self.base = tuple(prefix + rest)
        # master list of (strong generator, level); level = first index i in
        # base order with g[base[i]] != base[i]
        self._strong: list[tuple[tuple[int, ...], int]] = []
        # transversals and their inverses (filled on first use) by
        # non-trivial level; a trivial level's transversal is never stored
        self._trans: dict[int, dict[int, tuple[int, ...]]] = {}
        self._transversal_inv: dict[int, dict[int, tuple[int, ...]]] = {}
        self._levels: list[tuple] = []
        # each non-trivial level's transversal in sorted point order, with
        # its size and the size's bit length, deepest first, kept by
        # random_element once the chain is finished
        self._draws: list[tuple[list[tuple[int, ...]], int, int]] | None = None
        self._extend(generators, None, order)

    def extended(self, generators: Sequence[tuple[int, ...]], divisor: int | None = None):
        """The chain of <this group, generators>, built on a copy of this
        chain, which is left as it was; raises ``_OrbitDoesNotDivide`` when
        the divisor stops the build."""
        chain = copy.copy(self)
        chain._strong = list(self._strong)
        chain._trans = dict(self._trans)
        chain._transversal_inv = dict(self._transversal_inv)
        chain._draws = None
        chain._extend(generators, divisor)
        return chain

    def _extend(
        self, generators: Sequence[tuple[int, ...]], divisor: int | None, order: int | None = None
    ) -> None:
        """Append the new strong generators and resume the build at the
        deepest level among them."""
        parent = len(self._strong)
        fresh = []
        for g in generators:
            if g != self._identity and all(s[0] != g for s in self._strong):
                lv = self._level_of(g)
                self._strong.append((g, lv))
                fresh.append(lv)
        if not fresh:
            return
        levels = sorted({entry[0] for entry in self._levels}.union(fresh))
        self._set_levels(levels)
        self._build(levels.index(max(fresh)), divisor, parent, order)

    @property
    def transversal(self) -> list[dict[int, tuple[int, ...]]]:
        """One transversal per base point, {base point: identity} on the
        trivial levels; built on demand."""
        return [
            self._trans[i] if i in self._trans else {b: self._identity}
            for i, b in enumerate(self.base)
        ]

    def _level_of(self, g: tuple[int, ...]) -> int:
        for i, b in enumerate(self.base):
            if g[b] != b:
                return i
        return len(self.base)

    def _set_levels(self, levels: Sequence[int]) -> None:
        """Record the non-trivial levels, in base order, as (level, base
        point, gap check, gap points): the gap check (None for no gap) reads
        the base points strictly between the previous non-trivial level and
        this one, which a sifted permutation must fix."""
        table = []
        prev = -1
        for i in levels:
            gap = self.base[prev + 1 : i]
            check = itemgetter(*gap) if gap else None
            table.append((i, self.base[i], check, gap[0] if len(gap) == 1 else gap))
            prev = i
        self._levels = table

    def _rebuild_level(
        self, i: int, gens: Sequence[tuple[int, ...]]
    ) -> tuple[dict[int, tuple[int, ...]], set[int], dict[int, tuple[int, ...]]]:
        """Rebuild level i's transversal from gens; returns it with the
        points whose representative came out unchanged, which keep their
        cached inverses, and the BFS tree: each point's representative is
        u * x for the point x maps to it and the generator x held here."""
        b = self.base[i]
        old = self._trans.get(i) or {b: self._identity}
        trans = {b: self._identity}
        tree: dict[int, tuple[int, ...]] = {}
        queue = [b]
        for pt in queue:
            u = trans[pt]
            for g in gens:
                img = g[pt]
                if img not in trans:
                    trans[img] = _mul(u, g)
                    tree[img] = g
                    queue.append(img)
        kept = {pt for pt, u in trans.items() if old.get(pt) == u}
        inv = self._transversal_inv.get(i, {})
        self._trans[i] = trans
        self._transversal_inv[i] = {pt: v for pt, v in inv.items() if pt in kept}
        return trans, kept, tree

    def _u_inv(self, i: int, pt: int) -> tuple[int, ...]:
        """Inverse of the level-i transversal element for pt, cached."""
        inv = self._transversal_inv[i]
        u_inv = inv.get(pt)
        if u_inv is None:
            u_inv = inv[pt] = _inv(self._trans[i][pt])
        return u_inv

    def _sift(self, p: tuple[int, ...], k: int = 0) -> tuple[int, ...] | None:
        """Reduce p through the non-trivial levels from the k-th one on.

        p must fix the base points before the k-th non-trivial level's gap.
        Returns None when p sifts to the identity, else the residue.  Only
        points of the transversal have a cached inverse.
        """
        for i, b, gap_check, gap in self._levels[k:] if k else self._levels:
            if gap_check is not None and gap_check(p) != gap:
                return p
            img = p[b]
            if img != b:
                inv = self._transversal_inv[i]
                u_inv = inv.get(img)
                if u_inv is None:
                    u = self._trans[i].get(img)
                    if u is None:
                        return p
                    u_inv = inv[img] = _inv(u)
                p = _mul(p, u_inv)
        # full base: anything fixing every base point is the identity
        return None if p == self._identity else p

    def _first_residue(
        self,
        k: int,
        gens: list[tuple[int, ...]],
        kept: set[int],
        tree: dict[int, tuple[int, ...]],
        count: int,
        stop: tuple[int, int] | None,
    ) -> tuple[tuple[int, ...] | None, tuple[int, int] | None]:
        """First Schreier generator of the k-th non-trivial level that does
        not sift through the deeper levels, as its sift residue, with its
        pair (beta, index of x in gens); (None, None) when there is none.

        tree maps each point to the generator of its BFS tree edge: a pair
        (beta, x) with tree[x(beta)] the generator x is that edge, whose
        Schreier generator is the identity by construction, so it is skipped
        before u * x is formed.  kept holds the points whose representative
        the rebuild left unchanged; count and stop describe the level's last
        scan: its number of generators (a prefix of gens) and the pair whose
        residue it returned (None: it completed).  A pair that scan reached,
        with x among its generators and u_beta and u_x(beta) unchanged, has
        the same Schreier generator as then, which lies in K_(i+1) and so
        sifts to the identity: it is skipped.
        """
        i, b, _, _ = self._levels[k]
        trans = self._trans[i]
        for beta in sorted(trans):
            u = trans[beta]
            proved = 0
            if beta in kept:
                if stop is None or beta < stop[0]:
                    proved = count
                elif beta == stop[0]:
                    proved = stop[1] + 1
            for j, x in enumerate(gens):
                img = x[beta]  # u * x maps b to img
                if tree.get(img) is x or j < proved and img in kept:
                    continue
                v = _mul(u, x)
                if v == trans[img]:
                    continue  # the Schreier generator is the identity
                residue = self._sift(_mul(v, self._u_inv(i, img)), k + 1)
                if residue is not None:
                    return residue, (beta, j)
        return None, None

    def _build(self, k: int, divisor: int | None, parent: int, order: int | None = None) -> None:
        """Rebuild the k-th non-trivial level and every shallower one, and
        descend again from the level of each new residue.

        scans keeps each level's last scan in this build as (generator
        count, stop pair).  A level not yet scanned was complete in the
        chain being extended, with the first `parent` strong generators
        (those at its level or deeper), and its transversal is still in
        place; a trivial one had {base point: identity}.

        With the order of the group known, the scans stop once the product
        of the levels' orbit lengths reaches it, and the shallower levels
        are only rebuilt.  The orbit a level holds is an orbit of a subgroup
        of G_j, the pointwise stabilizer of the base points before it (a
        level not rebuilt yet holds its base point alone), so its length is
        at most |G_j : G_(j+1)|, and the product reaches |G| only when the
        strong generators at each level and deeper generate G_j: the strong
        generating set is complete, no scan left would find a residue, and
        the rebuilds give each level the transversal of the full build.
        """
        levels = [entry[0] for entry in self._levels]
        scans: dict[int, tuple[int, tuple[int, int] | None]] = {}
        while k >= 0:
            i = levels[k]
            gens = [g for g, lv in self._strong if lv >= i]
            if i not in scans:
                scans[i] = (sum(lv >= i for _, lv in self._strong[:parent]), None)
            trans, kept, tree = self._rebuild_level(i, gens)
            if divisor is not None and divisor % len(trans):
                raise _OrbitDoesNotDivide
            if order is not None and order == math.prod(
                len(self._trans[lv]) for lv in levels if lv in self._trans
            ):
                for lv in reversed(levels[:k]):
                    self._rebuild_level(lv, [g for g, at in self._strong if at >= lv])
                return
            residue, stop = self._first_residue(k, gens, kept, tree, *scans[i])
            scans[i] = (len(gens), stop)
            if residue is None:
                k -= 1
                continue
            lv = self._level_of(residue)
            self._strong.append((residue, lv))
            k = bisect.bisect_left(levels, lv)
            if k == len(levels) or levels[k] != lv:
                levels.insert(k, lv)
                self._set_levels(levels)

    def _level_transversals(self) -> list[dict[int, tuple[int, ...]]]:
        """Transversals of the non-trivial levels, in base order."""
        return [self._trans[entry[0]] for entry in self._levels]

    def order(self) -> int:
        return math.prod(len(trans) for trans in self._level_transversals())

    def contains(self, p: tuple[int, ...]) -> bool:
        return self._sift(p) is None

    def strong_generators(self) -> list[tuple[int, ...]]:
        return [g for g, _ in self._strong]

    def level_generators(self, level: int) -> list[tuple[int, ...]]:
        """Generators of the pointwise stabilizer of the first `level` base points."""
        return [g for g, lv in self._strong if lv >= level]

    def elements(self) -> Iterator[tuple[int, ...]]:
        """All elements, deterministically, as transversal products.

        With u_j ranging over the sorted transversal of the j-th non-trivial
        level, the elements are u_(k-1) * ... * u_0 in the order of
        ``itertools.product`` over the levels from the deepest one (Seress,
        *Permutation Group Algorithms*, §4.1).  Each stage lazily extends the
        partial products of the deeper levels by one level, so every prefix
        u_(k-1) * ... * u_j is formed once and shared by all elements below
        it: an element costs one product, plus a share of its prefixes.
        """
        products: Iterator[tuple[int, ...]] = iter([self._identity])
        for level in self._sorted_levels():
            products = _extend_products(products, level)
        return products

    def _sorted_levels(self) -> list[list[tuple[int, ...]]]:
        """Each non-trivial level's transversal in sorted point order,
        deepest level first."""
        return [
            [trans[pt] for pt in sorted(trans)]
            for trans in reversed(self._level_transversals())
        ]

    def random_element(self, rng) -> tuple[int, ...]:
        """Uniformly random element via one transversal pick per level, in
        sorted point order; the sorted levels are kept for later draws.

        Each pick is rng.choice(level), drawn as Random.choice draws it: k
        bits from rng.getrandbits, k the bit length of the level's size n,
        again while the value is n or more."""
        if self._draws is None:
            levels = self._sorted_levels()
            self._draws = [(level, len(level), len(level).bit_length()) for level in levels]
        getrandbits = rng.getrandbits
        p = None
        for level, n, k in self._draws:
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            p = level[r] if p is None else _mul(p, level[r])
        return self._identity if p is None else p

    def min_coset_rep(self, c: tuple[int, ...]) -> tuple[int, ...]:
        """Lexicographically least element of (this group) * c.

        Requires the natural base 0..n-1: at level i the remaining freedom
        fixes all points below i, so greedily minimizing position i is exact.
        """
        if self.base != self._identity:
            raise ValueError("min_coset_rep requires the natural base order")
        rep = c
        for i, _, _, _ in self._levels:
            trans = self._trans[i]
            best = min(trans, key=rep.__getitem__)
            if best != i:
                rep = _mul(trans[best], rep)
        return rep


class PermGroup:
    """A finite permutation group given by generators on {0..degree-1}.

    Immutable; the stabilizer chain is built lazily and cached.  The build is
    deterministic, so threads racing on a first build only repeat identical
    work and keep equal chains.
    Equality and hashing go by (degree, generator tuple) so identically
    constructed handles share memoized structure results.
    """

    __slots__ = ("degree", "generators", "_chain", "_order")

    def __init__(self, degree: int, generators: Iterable[Permutation]):
        if degree < 1:
            raise ValueError("degree must be at least 1")
        gens = []
        seen = set()
        for g in generators:
            if not isinstance(g, Permutation):
                raise TypeError(f"expected Permutation, got {type(g).__name__}")
            if g.degree != degree:
                raise DegreeMismatch(
                    f"generator degree {g.degree} != group degree {degree}"
                )
            if not g.is_identity and g.images not in seen:
                seen.add(g.images)
                gens.append(g)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "generators", tuple(gens))
        object.__setattr__(self, "_chain", None)
        object.__setattr__(self, "_order", None)

    def __setattr__(self, name, value):
        raise AttributeError("PermGroup is immutable")

    @classmethod
    def trivial(cls, degree: int) -> "PermGroup":
        return cls(degree, [])

    @property
    def chain(self) -> StabChain:
        if self._chain is None:
            built = StabChain(self.degree, [g.images for g in self.generators])
            object.__setattr__(self, "_chain", built)
        return self._chain

    def order(self) -> int:
        if self._order is None:
            object.__setattr__(self, "_order", self.chain.order())
        return self._order

    def adjoin(
        self, new: Sequence[Permutation], divisor: int | None = None
    ) -> "PermGroup | None":
        """<self, new>, its chain extended from self's (which stays as it
        was); with a divisor n, None unless its order divides n.

        The checks run cheapest first, each a divisor of the order that
        must divide n: the order of y * x for each new y and each generator
        x of self (Lagrange), read off its cycle lengths, then the length
        of each orbit of <self, new> (an index), each check stopping at the
        first that does not divide n, and only then the chain levels: the
        extension stops at the first rebuilt orbit whose length does not
        divide n (see StabChain).  The generators are self.generators + new, as
        PermGroup(degree, self.generators + new) has them.
        """
        images = [y.images for y in new]
        if divisor is not None:
            for y in images:
                for x in self.generators:
                    if not _order_divides(_mul(y, x.images), divisor):
                        return None
            gens = [x.images for x in self.generators] + images
            if any(divisor % len(orbit) for orbit in _orbits(gens, self.degree)):
                return None
        try:
            chain = self.chain.extended(images, divisor)
        except _OrbitDoesNotDivide:
            return None
        if divisor is not None and divisor % chain.order():
            return None
        joined = PermGroup(self.degree, self.generators + tuple(new))
        object.__setattr__(joined, "_chain", chain)
        return joined

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise DegreeMismatch(
                f"element degree {p.degree} != group degree {self.degree}"
            )
        return self.chain.contains(p.images)

    def __contains__(self, p: Permutation) -> bool:
        return self.contains(p)

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def is_trivial(self) -> bool:
        return not self.generators

    def elements(self) -> Iterator[Permutation]:
        for images in self.chain.elements():
            yield Permutation._trusted(images)

    def element_list(self, cap: int | None = None) -> list[Permutation]:
        """All elements, guarded by cap (default: the enumeration cap)."""
        limit = enumeration_cap() if cap is None else cap
        check_cap(self.order(), limit, "element list: group order")
        return list(self.elements())

    def random_element(self, rng) -> Permutation:
        return Permutation._trusted(self.chain.random_element(rng))

    def orbit(self, point: int) -> list[int]:
        """Orbit of a point, BFS order starting at the point."""
        if not 0 <= point < self.degree:
            raise ValueError(f"point {point} out of range")
        return _orbit([g.images for g in self.generators], point)

    def orbits(self) -> list[list[int]]:
        """All orbits, each sorted, ordered by least point."""
        return [sorted(orb) for orb in _orbits([g.images for g in self.generators], self.degree)]

    def is_transitive(self) -> bool:
        return len(self.orbit(0)) == self.degree

    def stabilizer_order(self, point: int) -> int:
        return self.order() // len(self.orbit(point))

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        if self.degree != other.degree:
            raise DegreeMismatch("degree mismatch in subgroup test")
        return all(other.contains(g) for g in self.generators)

    def same_group_as(self, other: "PermGroup") -> bool:
        return (
            self.degree == other.degree
            and self.order() == other.order()
            and self.is_subgroup_of(other)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PermGroup)
            and self.degree == other.degree
            and self.generators == other.generators
        )

    def __hash__(self) -> int:
        return hash((self.degree, self.generators))

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, ngens={len(self.generators)})"


def _require_subgroup(sub: PermGroup, ambient: PermGroup, label: str) -> None:
    if sub.degree != ambient.degree:
        raise DegreeMismatch(f"{label}: degree mismatch")
    if not sub.is_subgroup_of(ambient):
        raise SubgroupError(f"{label}: not a subgroup")


def conjugate_subgroup(sub: PermGroup, g: Permutation) -> PermGroup:
    return PermGroup(sub.degree, [h.conjugate(g) for h in sub.generators])


def is_normal(sub: PermGroup, ambient: PermGroup) -> bool:
    """True iff every ambient generator conjugates every sub generator into sub."""
    _require_subgroup(sub, ambient, "is_normal")
    for g in ambient.generators:
        for h in sub.generators:
            if not sub.contains(h.conjugate(g)):
                return False
    return True


def normal_closure(ambient: PermGroup, sub: PermGroup) -> PermGroup:
    """Smallest normal subgroup of ambient containing sub.

    Conjugates are adjoined in rounds until a round adds none.  Each round
    conjugates, by every generator of ambient, the generators the last
    round added (the first round: the start group's); a conjugate of an
    older generator was taken in an earlier round and lies in the group
    already, so the adjoin calls are those of rounds over every generator.
    The start group is a span and each round enlarges it the same way,
    keeping a conjugate only when it enlarges the group, so a closure of
    order n has at most log2 n generators.  A closure of full order is
    returned as ambient itself.
    """
    _require_subgroup(sub, ambient, "normal_closure")
    if sub.is_trivial():
        return PermGroup.trivial(ambient.degree)
    current = span(ambient.degree, sub.generators)
    fresh = current.generators
    while fresh:
        conjugates = (h.conjugate(g) for g in ambient.generators for h in fresh)
        grown = _enlarge(current, conjugates)
        fresh = grown.generators[len(current.generators) :]
        current = grown
    return ambient if current.order() == ambient.order() else current


def commutator_subgroup(a: PermGroup, b: PermGroup, ambient: PermGroup) -> PermGroup:
    """[A, B]: normal closure in <A, B> of all generator commutators, with
    <A, B> extended from A's chain (for G' a copy of G's)."""
    _require_subgroup(a, ambient, "commutator_subgroup")
    _require_subgroup(b, ambient, "commutator_subgroup")
    joint = a.adjoin(b.generators)
    seeds = PermGroup(ambient.degree, [x.commutator(y) for x in a.generators for y in b.generators])
    return normal_closure(joint, seeds)


def derived_subgroup(g: PermGroup) -> PermGroup:
    return commutator_subgroup(g, g, g)


def span(degree: int, perms: Iterable[Permutation]) -> PermGroup:
    """Generate a group from perms with a greedily reduced generating set."""
    return _enlarge(PermGroup.trivial(degree), perms)


def _enlarge(
    current: PermGroup, perms: Iterable[Permutation], divisor: int | None = None
) -> PermGroup | None:
    """<current, perms>, adjoining to current each of perms that enlarges
    the group.  On a span this is the span of its generators followed by
    perms, each step extending the last step's chain.  With a divisor n,
    None as soon as one step's order does not divide n (see adjoin).  This
    is the one loop that grows a subgroup by the elements it lacks."""
    for p in perms:
        if not current.contains(p):
            current = current.adjoin((p,), divisor)
            if current is None:
                break
    return current


def _filtered_subgroup(
    group: PermGroup, keep: Callable[[Permutation], bool], label: str
) -> PermGroup:
    """The span of the elements of group that satisfy keep, enumerated under
    the cap; keep must select a subgroup, so the span has exactly the hits."""
    check_cap(group.order(), enumeration_cap(), f"{label}: enumerating group order")
    hits = [x for x in group.elements() if keep(x)]
    result = span(group.degree, hits)
    if result.order() != len(hits):
        raise AssertionError(f"{label} span lost elements")
    return result


def _is_abelian(g: PermGroup) -> bool:
    gens = g.generators
    return all(a * b == b * a for i, a in enumerate(gens) for b in gens[i + 1 :])


def _commuting_map(
    gens: Sequence[tuple[int, ...]], alpha: int, beta: int, degree: int
) -> Permutation | None:
    """A permutation commuting with every generator, built from the map z
    with z(alpha) = beta along alpha's orbit, or None when there is no such
    map.  With beta in alpha's orbit it is z there and fixes every other
    point.  With beta in another orbit of the same length it is the
    involution that swaps the two orbits, z one way and its inverse back,
    and fixes every other point.

    z is forced along the orbit: z(gamma^s) = z(gamma)^s for each generator
    s, so one BFS from alpha defines it and checks every such equation,
    stopping at the first that fails.  A map that satisfies them all maps
    the orbit onto beta's orbit, for its image is a non-empty invariant
    subset of it, and so bijectively when the orbits have the same length.
    """
    z = list(range(degree))
    z[alpha] = beta
    reached = [alpha]
    seen = {alpha}
    for gamma in reached:
        for s in gens:
            img, want = s[gamma], s[z[gamma]]
            if img not in seen:
                seen.add(img)
                z[img] = want
                reached.append(img)
            elif z[img] != want:
                return None
    if beta not in seen:
        for gamma in reached:
            z[z[gamma]] = gamma
    return Permutation._trusted(tuple(z))


def centralizer(ambient: PermGroup, sub: PermGroup) -> PermGroup:
    """C_G(N), G = ambient and N = sub, read off the action: G's
    intersection with D, the centralizer of N in the product of Sym(Delta)
    over the G-orbits Delta (which contains G).

    D permutes N's orbits, and an element taking orbit O to O' restricts to
    a map that commutes with N, a bijection, so O and O' have one length: D
    is the product, over the classes of N-orbits in one Delta with
    equivalent actions, of C_Sym(O)(N^O) wr S_m, of order c^m * m!.
    C_Sym(O)(N^O) is semiregular, so each of its elements is determined by
    the image beta of O's first point alpha, and one exists exactly when
    the stabilizer of alpha fixes beta (Dixon & Mortimer, *Permutation
    Groups*, 1996, Thm 4.2A; Wielandt, *Finite Permutation Groups*, 1964,
    §4): c counts the betas for which _commuting_map finds one, and those
    maps generate it; the swaps of O with each other orbit of its class
    generate the S_m.  An orbit joins a class only when it has the class's
    length; for a normal N all its orbits in one Delta do.  |D| is known
    before D is built, so C is G outright when N's generators commute with
    G's, trivial when |D| = 1, and otherwise only the smaller of G and D is
    enumerated, under the cap.
    """
    _require_subgroup(sub, ambient, "centralizer")
    gens = [x.images for x in sub.generators]

    def commutes(s: tuple[int, ...]) -> bool:
        return all(_mul(s, x) == _mul(x, s) for x in gens)

    if all(commutes(s.images) for s in ambient.generators):
        return ambient
    delta_of = {pt: i for i, delta in enumerate(ambient.orbits()) for pt in delta}
    by_delta: dict[int, list[list[int]]] = {}
    for orbit in sub.orbits():
        by_delta.setdefault(delta_of[orbit[0]], []).append(orbit)
    maps: list[Permutation] = []
    order = 1
    for orbits in by_delta.values():
        classes: list[list[int]] = []  # [first point, orbit length, c, m]
        for orbit in orbits:
            for cls in (cls for cls in classes if cls[1] == len(orbit)):
                swaps = (_commuting_map(gens, cls[0], beta, ambient.degree) for beta in orbit)
                swap = next((z for z in swaps if z is not None), None)
                if swap is not None:
                    maps.append(swap)
                    cls[3] += 1
                    break
            else:
                own = [_commuting_map(gens, orbit[0], beta, ambient.degree) for beta in orbit[1:]]
                maps.extend(z for z in own if z is not None)
                classes.append([orbit[0], len(orbit), 1 + sum(z is not None for z in own), 1])
        order *= math.prod(c**m * math.factorial(m) for _, _, c, m in classes)
    if order == 1:
        return PermGroup.trivial(ambient.degree)
    if order < ambient.order():
        return _filtered_subgroup(span(ambient.degree, maps), ambient.contains, "centralizer")
    return _filtered_subgroup(ambient, lambda x: commutes(x.images), "centralizer")


def center(g: PermGroup) -> PermGroup:
    """Z(G) = C_G(G), read off the action by centralizer: the G-orbits are
    G's own, so D is the product of the centralizers C_Sym(Delta)(G^Delta),
    and only the smaller of G and D is enumerated."""
    return centralizer(g, g)


def intersection(a: PermGroup, b: PermGroup) -> PermGroup:
    """Intersection by enumerating the smaller group under the cap."""
    if a.degree != b.degree:
        raise DegreeMismatch("intersection: degree mismatch")
    small, big = (a, b) if a.order() <= b.order() else (b, a)
    return _filtered_subgroup(small, big.contains, "intersection")


def pointwise_stabilizer(g: PermGroup, points: Sequence[int]) -> PermGroup:
    """Subgroup fixing every listed point, via a chain based at those points."""
    prefix = list(dict.fromkeys(points))
    if not prefix:
        return g
    chain = StabChain(g.degree, [p.images for p in g.generators], base=prefix, order=g.order())
    gens = [
        Permutation._trusted(images) for images in chain.level_generators(len(prefix))
    ]
    return PermGroup(g.degree, gens)


# ---------------------------------------------------------------------------
# Action homomorphisms.  An ActionMap reads a homomorphism G -> Sym(m), given
# on generators, as its target on the m points, and its lifts, and its kernel
# unless the caller passes it, from one chain of G on its own points plus the
# m points, those first in the base (Seress, *Permutation Group Algorithms*,
# 2003, ch. 5), built on first use.


class ActionMap:
    """The action of g on aux_count points, aux_action(x) listing the images.
    A caller that holds the kernel passes it: N, for the coset action and for
    quotient_or_self's action on N's orbits.  Without it, as for the factor
    action and the block kernels, kernel() reads it off the chain."""

    def __init__(
        self, g: PermGroup, aux_count: int, aux_action: Callable[[Permutation], Sequence[int]],
        kernel: PermGroup | None = None,
    ):
        n = g.degree
        # one per generator of g: the target's list drops identities and repeats
        aux_perms = [Permutation(aux_action(gen)) for gen in g.generators]
        self.source = g
        self.target = PermGroup(aux_count, aux_perms)
        self._aux_action = aux_action
        self._kernel = kernel
        self._extended = [
            gen.images + tuple(n + a for a in aux.images)
            for gen, aux in zip(g.generators, aux_perms)
        ]

    @functools.cached_property
    def _chain(self) -> StabChain:
        n, m = self.source.degree, self.target.degree
        # the action on n + m points is faithful, so its order is |source|
        return StabChain(n + m, self._extended, base=range(n, n + m), order=self.source.order())

    def image(self, x: Permutation) -> Permutation:
        """The image of an element of the source."""
        if not self.source.contains(x):
            raise SubgroupError("element is not in the action's source group")
        return Permutation(self._aux_action(x))

    def kernel(self) -> PermGroup:
        """The kernel passed in, else generated by the chain's levels below
        the aux points: no coset enumeration.  Computed once."""
        if self._kernel is None:
            n, m = self.source.degree, self.target.degree
            kernel_gens = self._chain.level_generators(m)
            if any(images[n + j] != n + j for images in kernel_gens for j in range(m)):
                raise AssertionError("kernel generator moves an auxiliary point")
            self._kernel = PermGroup(n, [Permutation(images[:n]) for images in kernel_gens])
        return self._kernel

    def lift(self, t: Permutation) -> Permutation:
        """An element of g acting as t, an element of the target.  Sifting
        p = (identity on g's points, t) leaves r with p = r * w, w in the
        group; r fixes the auxiliary points, whose levels come first, so w
        acts as t there and as r^-1 on g's points."""
        n = self.source.degree
        p = tuple(range(n)) + tuple(n + a for a in t.images)
        residue = self._chain._sift(p) or p  # None only for the identity t
        return Permutation._trusted(_inv(residue[:n]))

    def preimage(self, sub: PermGroup) -> PermGroup:
        """<kernel, a lift of each generator of sub>, extended from the
        kernel's chain: the full preimage of sub, a subgroup of the target,
        checked by its order."""
        if not sub.is_subgroup_of(self.target):
            raise SubgroupError("preimage argument is not a subgroup of the target")
        kernel = self.kernel()
        result = kernel.adjoin([self.lift(t) for t in sub.generators])
        expected = sub.order() * kernel.order()
        if result.order() != expected:
            raise AssertionError(f"preimage order {result.order()} != |sub||kernel| = {expected}")
        return result


# ---------------------------------------------------------------------------
# Block systems (used by the structured path for very large groups)


def minimal_block_system(g: PermGroup, alpha: int, beta: int) -> tuple[tuple[int, ...], ...]:
    """Finest G-invariant partition with alpha and beta in one block, each
    block sorted and the blocks ordered by least point; alpha and beta must
    lie in one orbit.  Atkinson's merge loop (*Math. Comp.* 29, 1975): the
    points of a block share one list, and merging the blocks of a pair
    queues the pair's images under every generator."""
    block_of = [[pt] for pt in range(g.degree)]
    queue = deque([(alpha, beta)])
    while queue:
        x, y = queue.popleft()
        block, other = block_of[x], block_of[y]
        if block is not other:
            block.extend(other)
            for pt in other:
                block_of[pt] = block
            queue.extend((s(x), s(y)) for s in g.generators)
    blocks = {id(b): b for b in block_of}.values()
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def minimal_block_systems(g: PermGroup) -> list[tuple[tuple[int, ...], ...]]:
    """The distinct non-trivial systems minimal_block_system(g, alpha, beta)
    of a group transitive on the points it moves, alpha its least moved
    point; every point it fixes is a block of its own in each system.

    Every non-trivial system holds a block with alpha and some beta, and so
    is coarser than one of these; the minimal systems are among them.  The system
    for beta is the one for beta^h, h in the stabilizer G_alpha (an
    invariant partition is fixed by h), so one beta per G_alpha-orbit is
    tried.  Every point before alpha is fixed, so G_alpha is a level of the
    natural-base chain.
    """
    moved = [orbit for orbit in g.orbits() if len(orbit) > 1]
    if len(moved) != 1:
        raise ValueError("block systems require a group transitive on its support")
    support = set(moved[0])
    alpha = moved[0][0]
    n = g.degree
    # a system is non-trivial when it splits the support into more than one
    # block and fewer than all of its points
    fewest = n - len(support) + 1
    systems: dict[tuple[tuple[int, ...], ...], None] = {}
    for orbit in _orbits(g.chain.level_generators(alpha + 1), n):
        if orbit[0] != alpha and orbit[0] in support:
            system = minimal_block_system(g, alpha, orbit[0])
            if fewest < len(system) < n:
                systems.setdefault(system, None)
    return list(systems)


def _block_action(system: Sequence[Sequence[int]]) -> Callable[[Permutation], list[int]]:
    """A permutation's action on the blocks of a partition, as an image list."""
    index_of = {pt: i for i, block in enumerate(system) for pt in block}
    return lambda gen: [index_of[gen(block[0])] for block in system]
