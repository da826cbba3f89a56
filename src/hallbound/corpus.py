"""Deterministic constructors for a universe of test groups.

Named families come with their classical generators (adjacent transposition
plus full cycle for symmetric groups, translation plus negated inversion on
the projective line for PSL, and so on), and two combinators build direct
and wreath products on explicit disjoint domains.  A small grammar turns
strings like "A5 wr C2" or "S3 x C4" into groups, and a file format reads
hand-written generators in 1-based disjoint-cycle notation.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

from .config import DEFAULT_QUOTIENT_DEGREE_CAP
from .errors import PreconditionError, check_cap
from .group import PermGroup
from .perm import Permutation, parse_cycles
from .primes import is_prime

# Largest permutation domain a constructor will build.  Keeps accidental
# "S10 wr S10" style requests from allocating silly amounts of memory.
DEGREE_CAP = DEFAULT_QUOTIENT_DEGREE_CAP


def _check_degree(degree: int) -> None:
    check_cap(degree, DEGREE_CAP, "construction: degree")


def cyclic_group(n: int) -> PermGroup:
    """C_n as the rotation of n points; C1 is the trivial group on one point."""
    if n < 1:
        raise PreconditionError(f"cyclic group needs n >= 1, got {n}")
    _check_degree(n)
    if n == 1:
        return PermGroup(1, [])
    return PermGroup(n, [Permutation([(i + 1) % n for i in range(n)])])


def dihedral_group(order: int) -> PermGroup:
    """The dihedral group of the given (even) order.

    For order 2m with m >= 3 this is the symmetry group of the m-gon on m
    points; order 4 gives the Klein four-group on 4 points and order 2 a
    single transposition, keeping |D_order| = order throughout.
    """
    if order < 2 or order % 2 != 0:
        raise PreconditionError(f"dihedral order must be even and >= 2, got {order}")
    m = order // 2
    if m == 1:
        return PermGroup(2, [Permutation([1, 0])])
    if m == 2:
        return PermGroup(4, [Permutation([1, 0, 2, 3]), Permutation([0, 1, 3, 2])])
    _check_degree(m)
    rotation = Permutation([(i + 1) % m for i in range(m)])
    reflection = Permutation([(m - i) % m for i in range(m)])
    return PermGroup(m, [rotation, reflection])


def symmetric_group(n: int) -> PermGroup:
    """S_n from an adjacent transposition and the n-cycle; 1 <= n <= 10."""
    if not 1 <= n <= 10:
        raise PreconditionError(f"symmetric group supported for 1 <= n <= 10, got {n}")
    if n == 1:
        return PermGroup(1, [])
    swap = list(range(n))
    swap[0], swap[1] = 1, 0
    cycle = [(i + 1) % n for i in range(n)]
    return PermGroup(n, [Permutation(swap), Permutation(cycle)])


def alternating_group(n: int) -> PermGroup:
    """A_n from a 3-cycle and an even full-support cycle; 1 <= n <= 10.

    For odd n the n-cycle is even; for even n the cycle on the last n-1
    points is used instead.
    """
    if not 1 <= n <= 10:
        raise PreconditionError(f"alternating group supported for 1 <= n <= 10, got {n}")
    if n <= 2:
        return PermGroup(n, [])
    three = list(range(n))
    three[0], three[1], three[2] = 1, 2, 0
    if n % 2 == 1:
        cycle = [(i + 1) % n for i in range(n)]
    else:
        cycle = [0] + [1 + ((i + 1) % (n - 1)) for i in range(n - 1)]
    return PermGroup(n, [Permutation(three), Permutation(cycle)])


_PSL_PARAMS = (2, 3, 5, 7, 11, 13)
_SL_PARAMS = (2, 3, 5)


def projective_special_linear_group(q: int) -> PermGroup:
    """PSL(2,q) on the projective line over the q-element field, degree q+1.

    Point q plays the role of infinity.  Generators are the translation
    x -> x+1 and the inversion x -> -1/x, whose images generate the whole
    group for every prime q.
    """
    if q not in _PSL_PARAMS or not is_prime(q):
        raise PreconditionError(f"PSL(2,q) supported for prime q in {_PSL_PARAMS}, got {q}")
    translation = [(x + 1) % q for x in range(q)] + [q]
    inversion = list(range(q + 1))
    inversion[0], inversion[q] = q, 0
    for x in range(1, q):
        inversion[x] = (-pow(x, q - 2, q)) % q
    return PermGroup(q + 1, [Permutation(translation), Permutation(inversion)])


def special_linear_group(q: int) -> PermGroup:
    """SL(2,q) on the q*q-1 nonzero row vectors of the plane over F_q.

    Vectors are indexed lexicographically.  Generators are the transvection
    ((1,1),(0,1)) and the rotation ((0,-1),(1,0)) acting by right
    multiplication.  For odd q the centre is the sign map, so the group is
    quasisimple rather than simple when q = 5.
    """
    if q not in _SL_PARAMS or not is_prime(q):
        raise PreconditionError(f"SL(2,q) supported for prime q in {_SL_PARAMS}, got {q}")
    vectors = [(a, b) for a in range(q) for b in range(q) if (a, b) != (0, 0)]
    index = {v: i for i, v in enumerate(vectors)}

    def act(matrix) -> Permutation:
        (m00, m01), (m10, m11) = matrix
        images = [0] * len(vectors)
        for i, (a, b) in enumerate(vectors):
            images[i] = index[((a * m00 + b * m10) % q, (a * m01 + b * m11) % q)]
        return Permutation(images)

    return PermGroup(len(vectors), [act(((1, 1), (0, 1))), act(((0, q - 1), (1, 0)))])


def direct_product(a: PermGroup, b: PermGroup) -> PermGroup:
    """A x B acting on the disjoint union of the two domains."""
    total = a.degree + b.degree
    _check_degree(total)
    gens = []
    for g in a.generators:
        gens.append(Permutation(list(g.images) + list(range(a.degree, total))))
    for g in b.generators:
        gens.append(Permutation(list(range(a.degree)) + [a.degree + i for i in g.images]))
    return PermGroup(total, gens)


def wreath_product(base: PermGroup, top: PermGroup) -> PermGroup:
    """base wr top: k = top degree copies of the base, blocks permuted by top.

    The domain is k blocks of base-degree points; generators are one copy of
    every base generator per block plus the top generators acting on whole
    blocks.  Order is |base|^k * |top|.
    """
    k = top.degree
    deg = base.degree
    total = deg * k
    _check_degree(total)
    gens = []
    for block in range(k):
        for g in base.generators:
            images = list(range(total))
            for i in range(deg):
                images[block * deg + i] = block * deg + g(i)
            gens.append(Permutation(images))
    for t in top.generators:
        images = list(range(total))
        for block in range(k):
            for i in range(deg):
                images[block * deg + i] = t(block) * deg + i
        gens.append(Permutation(images))
    return PermGroup(total, gens)


_NAME_RE = re.compile(
    r"^(?:C(?P<cyclic>\d+)|D(?P<dihedral>\d+)|S(?P<symmetric>\d+)|A(?P<alternating>\d+)"
    r"|PSL\(2,(?P<psl>\d+)\)|SL\(2,(?P<sl>\d+)\))$"
)

# Named families, keyed by their _NAME_RE group: the constructor and the
# textbook order, each a function of the name's integer parameter.
_FAMILIES = {
    "cyclic": (cyclic_group, lambda n: n),
    "dihedral": (dihedral_group, lambda n: n),
    "symmetric": (symmetric_group, math.factorial),
    "alternating": (alternating_group, lambda n: math.factorial(n) // 2 if n > 2 else 1),
    "psl": (projective_special_linear_group, lambda q: q * (q * q - 1) // math.gcd(2, q - 1)),
    "sl": (special_linear_group, lambda q: q * (q * q - 1)),
}


def _family(name: str):
    """(constructor, order formula, parameter) of a group name."""
    match = _NAME_RE.match(name.replace(" ", ""))
    if match is None:
        raise PreconditionError(f"unknown group name {name!r}")
    build, order = _FAMILIES[match.lastgroup]
    return build, order, int(match.group(match.lastgroup))


def make_named(name: str) -> PermGroup:
    """Build a named group: C<n>, D<order>, S<n>, A<n>, PSL(2,q), SL(2,q)."""
    build, _, n = _family(name)
    return build(n)


_TOKEN_RE = re.compile(r"\s*(PSL\(2,\d+\)|SL\(2,\d+\)|[ACDS]\d+|wr|x|\(|\))")


def _tokenize_spec(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            if text[pos:].strip() == "":
                break
            raise PreconditionError(f"cannot parse group spec at {text[pos:]!r}")
        tokens.append(match.group(1))
        pos = match.end()
    return tokens


def group_from_spec(text: str) -> PermGroup:
    """Parse a group expression: names combined with `x` and `wr`, parenthesized.

    `wr` binds tighter than `x`, both associate left, so
    "A5 wr C2 x S3" means (A5 wr C2) x S3.
    """
    tokens = _tokenize_spec(text)
    if not tokens:
        raise PreconditionError("empty group spec")
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> str:
        nonlocal pos
        token = tokens[pos]
        pos += 1
        return token

    def atom() -> PermGroup:
        token = peek()
        if token is None:
            raise PreconditionError(f"group spec {text!r} ends unexpectedly")
        if token == "(":
            take()
            inner = expr()
            if peek() != ")":
                raise PreconditionError(f"missing ')' in group spec {text!r}")
            take()
            return inner
        if token in (")", "x", "wr"):
            raise PreconditionError(f"unexpected {token!r} in group spec {text!r}")
        return make_named(take())

    def term() -> PermGroup:
        value = atom()
        while peek() == "wr":
            take()
            value = wreath_product(value, atom())
        return value

    def expr() -> PermGroup:
        value = term()
        while peek() == "x":
            take()
            value = direct_product(value, term())
        return value

    result = expr()
    if pos != len(tokens):
        raise PreconditionError(f"trailing tokens in group spec {text!r}")
    return result


def group_from_file(path: str | Path) -> PermGroup:
    """Read a group from a text file.

    Format: a `degree N` header line, then one generator per line written as
    disjoint cycles on 1-based points, e.g. `(1 2 3)(4 5)`.  Blank lines and
    `#` comments are ignored.
    """
    lines = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise PreconditionError(f"group file {path} has no content")
    header = lines[0].split()
    if len(header) != 2 or header[0].lower() != "degree" or not header[1].isdecimal():
        raise PreconditionError(f"group file {path} must start with 'degree N'")
    degree = int(header[1])
    if degree < 1:
        raise PreconditionError("degree must be at least 1")
    _check_degree(degree)
    gens = [parse_cycles(line, degree=degree, offset=1) for line in lines[1:]]
    return PermGroup(degree, gens)


def closed_form_order(name: str) -> int:
    """Textbook order of a named group, for cross-checking the engine."""
    _, order, n = _family(name)
    return order(n)


# Suite tiers are cumulative: scale n runs every spec at scales <= n.
SUITE_SCALES: dict[int, tuple[str, ...]] = {
    1: (
        "C6",
        "C12",
        "S3",
        "A4",
        "D12",
        "S4",
        "SL(2,3)",
        "C2 x A4",
        "S3 x C4",
        "A5",
        "SL(2,5)",
    ),
    2: (
        "S5",
        "A6",
        "PSL(2,7)",
        "PSL(2,11)",
        "PSL(2,13)",
        "A4 x S4",
        "A5 x A5",
        "A5 wr C2",
    ),
    3: (
        "S6",
        "S7",
        "A5 x S4",
        "C2 wr A5",
    ),
}


def suite_specs(scale: int) -> tuple[str, ...]:
    """Sorted spec strings for every tier up to the requested scale."""
    if scale not in SUITE_SCALES:
        raise PreconditionError(f"scale must be one of {sorted(SUITE_SCALES)}, got {scale}")
    names: list[str] = []
    for tier in sorted(SUITE_SCALES):
        if tier <= scale:
            names.extend(SUITE_SCALES[tier])
    return tuple(sorted(names))
