"""Permutations on {0, ..., n-1} with left-to-right composition.

p.images reads as the image tuple: p.images[x] is the image of x.
Composition is left-to-right throughout the library: (a * b)(x) = b(a(x)),
i.e. a acts first.  Conjugation x ** g is g^-1 * x * g and the commutator
[a, b] is a^-1 * b^-1 * a * b.

Storage: a permutation holds its raw images, ``bytes`` when the degree is
at most 256 and a tuple of ints above it.  The degree alone picks the form,
in ``_to_raw``, which builds every raw image that is not derived from raw
images.  On bytes the primitives run in C: a product a * b is one
``bytes.translate`` of a by b padded to a 256-entry table, an inverse one
``bytes.maketrans`` against the identity, a quotient a * b^-1 (``_div``)
one translate of a by that full table, and a conjugate one maketrans over a
translate; on tuples (``translate`` needs the 256-entry table) they are an
itemgetter and loops.  Both forms index to ints and compare
lexicographically by their ints, so the engine keeps one code path over
both and reads the raw form (``_raw``) rather than ``images``, which
converts.  A product of raw images of the two forms raises.  Hashes of
bytes are salted per process, so no iteration order of a set of raw images
may reach an answer.

Trust boundary: images are validated only where they enter the program.
The public constructor ``Permutation(images)`` checks that the images are a
bijection of 0..n-1 and converts them to the raw form; ``identity``,
``from_cycles`` and ``parse_cycles`` build through it, as do group files,
the corpus builders and any caller.  A stabilizer chain converts the images
it is given to the raw form without checking them.  Products, inverses, powers, conjugates
and commutators are built through the unvalidated ``Permutation._trusted``,
which takes raw images: raw images derived from bijections of one degree by
composition or inversion are again such a bijection, so checking them again
would only repeat a loop over every image.  Images that other modules
assemble by other means (coset actions, restrictions of an extended action)
keep the checking constructor, where the check doubles as an invariant
check.
"""

from __future__ import annotations

import math
import re
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import DegreeMismatch

_CYCLE_RE = re.compile(r"\(([^()]*)\)")

# The raw images of a permutation: bytes up to degree _BYTES_DEGREE, a tuple above.
Raw = bytes | tuple[int, ...]

# bytes.translate reads a 256-entry table, so bytes hold degrees up to 256.
_BYTES_DEGREE = 256


def _to_raw(images: Sequence[int]) -> Raw:
    """The raw form of an image sequence, picked by its degree alone."""
    return bytes(images) if len(images) <= _BYTES_DEGREE else tuple(images)


_POINTS = bytes(range(_BYTES_DEGREE))
# The raw identity of each degree up to 256, and _PADS[n], which completes
# raw images of degree n to a translate table; slices of one table, so
# building them at import takes microseconds.
_IDENTITIES = [_to_raw(_POINTS[:n]) for n in range(_BYTES_DEGREE + 1)]
_PADS = [_POINTS[n:] for n in range(_BYTES_DEGREE + 1)]


def _identity(degree: int) -> Raw:
    return _IDENTITIES[degree] if degree <= _BYTES_DEGREE else _to_raw(range(degree))


def _mul(a: Raw, b: Raw) -> Raw:
    """Raw product, a first then b; raw images of two forms raise."""
    if type(b) is bytes:
        return bytes.translate(a, b + _PADS[len(b)])
    if type(a) is not tuple:
        raise TypeError("cannot multiply bytes images by tuple images")
    return itemgetter(*a)(b)


def _inv(a: Raw) -> Raw:
    if type(a) is bytes:
        n = len(a)
        return bytes.maketrans(a, _IDENTITIES[n])[:n]
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def _div(a: Raw, b: Raw) -> Raw:
    """Raw quotient a * b^-1; raw images of two forms raise."""
    if type(b) is bytes:
        return bytes.translate(a, bytes.maketrans(b, _IDENTITIES[len(b)]))
    if type(a) is not tuple:
        raise TypeError("cannot divide bytes images by tuple images")
    return itemgetter(*a)(_inv(b))


def _conj(x: Raw, g: Raw) -> Raw:
    """Raw x ** g = g^-1 * x * g as the map sending g(i) to g(x(i)), with
    no inverse: on bytes one maketrans from g to x * g, on tuples one pass."""
    if type(g) is bytes:
        return bytes.maketrans(g, _mul(x, g))[: len(g)]
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

    __slots__ = ("_raw",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        n = len(imgs)
        seen = [False] * n
        for v in imgs:
            if not isinstance(v, int) or not 0 <= v < n or seen[v]:
                raise ValueError(f"not a bijection on 0..{n - 1}: {imgs}")
            seen[v] = True
        object.__setattr__(self, "_raw", _to_raw(imgs))

    @classmethod
    def _trusted(cls, images: Raw) -> "Permutation":
        """Wrap raw images without validating them.

        Only for images derived from valid permutations of one degree (by
        composition, inversion or conjugation) or read off a stabilizer
        chain built from them: those are bijections by construction.
        Anything from outside the permutation algebra goes through
        ``Permutation(images)``, which checks it.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "_raw", images)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    def __reduce__(self):
        return Permutation, (self.images,)

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
    def images(self) -> tuple[int, ...]:
        return tuple(self._raw)

    @property
    def degree(self) -> int:
        return len(self._raw)

    def __call__(self, point: int) -> int:
        return self._raw[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.degree != other.degree:
            raise DegreeMismatch(
                f"cannot compose degree {self.degree} with degree {other.degree}"
            )
        return Permutation._trusted(_mul(self._raw, other._raw))

    def inverse(self) -> "Permutation":
        return Permutation._trusted(_inv(self._raw))

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        result = _identity(self.degree)
        base = self._raw
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
        return Permutation._trusted(_conj(self._raw, g._raw))

    def commutator(self, other: "Permutation") -> "Permutation":
        return self.inverse() * other.inverse() * self * other

    @property
    def is_identity(self) -> bool:
        return self._raw == _identity(len(self._raw))

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles without fixed points, each from its least point."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            pt = self._raw[start]
            while pt != start:
                seen[pt] = True
                cycle.append(pt)
                pt = self._raw[pt]
            if len(cycle) > 1:
                out.append(tuple(cycle))
        return out

    def order(self) -> int:
        """The lcm of the cycle lengths, from one pass over the images."""
        images = self._raw
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
        return isinstance(other, Permutation) and self._raw == other._raw

    def __hash__(self) -> int:
        return hash(self._raw)

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
