"""Permutations on {0, ..., n-1} with left-to-right composition.

A permutation is stored as its image tuple: p.images[x] is the image of x.
Composition is left-to-right throughout the library: (a * b)(x) = b(a(x)),
i.e. a acts first.  Conjugation x ** g is g^-1 * x * g and the commutator
[a, b] is a^-1 * b^-1 * a * b.

Trust boundary: images are validated only where they enter the program.
The public constructor ``Permutation(images)`` checks that the images are a
bijection of 0..n-1, and ``identity``, ``from_cycles`` and ``parse_cycles``
build through it, as do group files, the corpus builders and any caller.
Products, inverses, powers, conjugates and commutators are built through the
unvalidated ``Permutation._trusted``: an image tuple derived from bijections
of one degree by composition or inversion is again such a bijection, so
checking it again would only repeat a loop over every image.  Images that
other modules assemble by other means (coset actions, restrictions of an
extended action) keep the checking constructor, where the check doubles as
an invariant check.
"""

from __future__ import annotations

import math
import re
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import DegreeMismatch

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _mul(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Raw image-tuple product, a first then b."""
    if len(a) < 2:
        # itemgetter of one index returns the bare item, and of none fails
        return tuple(b[x] for x in a)
    return itemgetter(*a)(b)


def _inv(a: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def _conj(
    x: Sequence[int], g: Sequence[int], g_inv: Sequence[int] | None = None
) -> tuple[int, ...]:
    """Raw image tuple of x ** g = g^-1 * x * g.

    With the inverse of g at hand this is two products; without it, one pass
    that sends g(i) to g(x(i)), which is cheaper than inverting g first.
    """
    if g_inv is not None:
        return _mul(_mul(g_inv, x), g)
    out = [0] * len(x)
    for i, v in enumerate(x):
        out[g[i]] = g[v]
    return tuple(out)


def _order_divides(images: Sequence[int], n: int) -> bool:
    """Whether the order divides n: every cycle length does.  One walk over
    the cycles, stopping at the first whose length does not."""
    seen = bytearray(len(images))
    for start, pt in enumerate(images):
        if seen[start] or pt == start:
            continue
        length = 1
        seen[start] = 1
        while pt != start:
            seen[pt] = 1
            pt = images[pt]
            length += 1
        if n % length:
            return False
    return True


class Permutation:
    """An immutable permutation of fixed degree."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        n = len(imgs)
        seen = [False] * n
        for v in imgs:
            if not isinstance(v, int) or not 0 <= v < n or seen[v]:
                raise ValueError(f"not a bijection on 0..{n - 1}: {imgs}")
            seen[v] = True
        object.__setattr__(self, "images", imgs)

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Permutation":
        """Wrap an image tuple without validating it.

        Only for images derived from valid permutations of one degree (by
        composition, inversion or conjugation) or read off a stabilizer
        chain built from them: those are bijections by construction.
        Anything from outside the permutation algebra goes through
        ``Permutation(images)``, which checks it.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        if degree < 1:
            raise ValueError("degree must be at least 1")
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Iterable[int]]) -> "Permutation":
        """Build from a list of cycles; points absent from all cycles are fixed."""
        images = list(range(degree))
        assigned: set[int] = set()
        for cycle in cycles:
            pts = list(cycle)
            for pt in pts:
                if not 0 <= pt < degree:
                    raise ValueError(f"point {pt} out of range for degree {degree}")
                if pt in assigned:
                    raise ValueError(f"point {pt} appears in two cycles")
                assigned.add(pt)
            for i, pt in enumerate(pts):
                images[pt] = pts[(i + 1) % len(pts)]
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.degree != other.degree:
            raise DegreeMismatch(
                f"cannot compose degree {self.degree} with degree {other.degree}"
            )
        return Permutation._trusted(_mul(self.images, other.images))

    def inverse(self) -> "Permutation":
        return Permutation._trusted(_inv(self.images))

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        result = tuple(range(self.degree))
        base = self.images
        while k:
            if k & 1:
                result = _mul(result, base)
            base = _mul(base, base)
            k >>= 1
        return Permutation._trusted(result)

    def conjugate(self, g: "Permutation") -> "Permutation":
        """self ** g = g^-1 * self * g, built in one pass (see ``_conj``)."""
        if self.degree != g.degree:
            raise DegreeMismatch(
                f"cannot conjugate degree {self.degree} by degree {g.degree}"
            )
        return Permutation._trusted(_conj(self.images, g.images))

    def commutator(self, other: "Permutation") -> "Permutation":
        return self.inverse() * other.inverse() * self * other

    @property
    def is_identity(self) -> bool:
        return self.images == tuple(range(len(self.images)))

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles without fixed points, each from its least point."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            pt = self.images[start]
            while pt != start:
                seen[pt] = True
                cycle.append(pt)
                pt = self.images[pt]
            if len(cycle) > 1:
                out.append(tuple(cycle))
        return out

    def order(self) -> int:
        """The lcm of the cycle lengths, from one pass over the images."""
        images = self.images
        seen = bytearray(len(images))
        result = 1
        for start, pt in enumerate(images):
            if seen[start] or pt == start:
                continue
            length = 1
            seen[start] = 1
            while pt != start:
                seen[pt] = 1
                pt = images[pt]
                length += 1
            result = math.lcm(result, length)
        return result

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({format_cycles(self)!r}, degree={self.degree})"


def parse_cycles(text: str, degree: int | None = None, offset: int = 0) -> Permutation:
    """Parse cycle notation like '(0 1 2)(3 4)' into a permutation.

    Points may be separated by spaces or commas.  With offset=1 the input is
    read as 1-based.  The degree is inferred from the largest point unless
    given explicitly.  '()' or an empty string denotes the identity.
    """
    stripped = text.strip()
    body = _CYCLE_RE.sub("", stripped).strip()
    if body:
        raise ValueError(f"malformed cycle notation: {text!r}")
    cycles = []
    assigned: set[int] = set()
    for match in _CYCLE_RE.finditer(stripped):
        inner = match.group(1).replace(",", " ").split()
        if not inner:
            continue
        try:
            pts = [int(tok) - offset for tok in inner]
        except ValueError as exc:
            raise ValueError(f"malformed cycle notation: {text!r}") from exc
        if any(pt < 0 for pt in pts):
            raise ValueError(f"point below {offset} in {text!r}")
        if len(set(pts)) != len(pts):
            raise ValueError(f"repeated point inside a cycle: {text!r}")
        for pt in pts:
            if pt in assigned:
                raise ValueError(f"point {pt + offset} appears in two cycles: {text!r}")
            assigned.add(pt)
        cycles.append(pts)
    needed = 1 + max((pt for c in cycles for pt in c), default=0)
    if degree is None:
        degree = needed
    elif needed > degree:
        raise ValueError(f"cycle notation needs degree {needed}, given {degree}")
    return Permutation.from_cycles(degree, cycles)


def format_cycles(p: Permutation, offset: int = 0) -> str:
    """Disjoint-cycle string for p; '()' for the identity."""
    cycles = p.cycles()
    if not cycles:
        return "()"
    return "".join(
        "(" + " ".join(str(pt + offset) for pt in cycle) + ")" for cycle in cycles
    )
