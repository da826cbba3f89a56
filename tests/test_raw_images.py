"""Raw images: bytes up to degree 256, tuples above.

The primitives of hallbound.perm are checked against the image-tuple
oracles on both sides of the boundary, every chain holds one form only,
an action whose extended degree crosses the boundary still lifts and pulls
back, and the CLI's answers do not depend on the salted hashes of bytes.
"""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallbound import (
    PermGroup,
    Permutation,
    StabChain,
    direct_product,
    group_from_spec,
    quotient_by,
    symmetric_group,
)
from hallbound.group import ActionMap
from hallbound.perm import _conj, _div, _inv, _mul, _order_divides, _to_raw
from hallbound.primes import prime_divisors

from conftest import SRC
from oracles import tuple_conj, tuple_inv, tuple_mul

DEGREES = [1, 2, 3, 10, 100, 255, 256, 257, 300]


def _random_images(rng: random.Random, degree: int) -> tuple[int, ...]:
    images = list(range(degree))
    rng.shuffle(images)
    return tuple(images)


def _tuple_power(a: tuple[int, ...], k: int) -> tuple[int, ...]:
    """a ** k for k >= 0 by squaring, on image tuples."""
    result, base = tuple(range(len(a))), a
    while k:
        if k & 1:
            result = tuple_mul(result, base)
        base = tuple_mul(base, base)
        k >>= 1
    return result


def _assert_primitives_match(rng: random.Random, degree: int) -> None:
    form = bytes if degree <= 256 else tuple
    a, b, g = (_random_images(rng, degree) for _ in range(3))
    ra, rb, rg = (_to_raw(x) for x in (a, b, g))
    assert type(ra) is form
    results = {
        "mul": (_mul(ra, rb), tuple_mul(a, b)),
        "inv": (_inv(ra), tuple_inv(a)),
        "conj": (_conj(ra, rg), tuple_conj(a, g)),
        "div": (_div(ra, rb), tuple_mul(a, tuple_inv(b))),
    }
    for name, (ours, oracle) in results.items():
        assert type(ours) is form, (name, degree)
        assert tuple(ours) == oracle, (name, degree)


@pytest.mark.parametrize("degree", DEGREES)
def test_primitives_match_the_tuple_oracles(degree):
    rng = random.Random(degree)
    for _ in range(20):
        _assert_primitives_match(rng, degree)


@pytest.mark.property_based
@given(seed=st.integers(0, 2**32 - 1), degree=st.integers(1, 300))
@settings(max_examples=100, deadline=None)
def test_primitives_match_the_tuple_oracles_at_random_degrees(seed, degree):
    _assert_primitives_match(random.Random(seed), degree)


@pytest.mark.parametrize("degree", DEGREES)
def test_powers_and_orders_match_the_tuple_oracles(degree):
    rng = random.Random(degree)
    identity = tuple(range(degree))
    for _ in range(5):
        a = _random_images(rng, degree)
        x = Permutation(a)
        order = x.order()
        # the order by its definition, on image tuples
        assert _tuple_power(a, order) == identity
        assert all(_tuple_power(a, order // q) != identity for q in prime_divisors(order))
        exponents = list(range(-3, 9)) + [order, order - 1, rng.randrange(1, 10**6)]
        exponents += [order // q for q in prime_divisors(order)]
        for k in exponents:
            expected = _tuple_power(a, k) if k >= 0 else _tuple_power(tuple_inv(a), -k)
            power = x**k
            assert power.images == expected, (degree, k)
            assert type(power._raw) is type(x._raw)
        for m in [order, 2 * order, order + 1, rng.randrange(1, 10**6)] + [
            order // q for q in prime_divisors(order)
        ]:
            assert _order_divides(x._raw, m) == (m % order == 0), (degree, m)


def test_a_product_of_the_two_forms_raises():
    small, large = _to_raw(range(5)), _to_raw(range(300))
    assert (type(small), type(large)) == (bytes, tuple)
    for a, b in [(small, tuple(range(5))), (tuple(range(5)), small), (large, small)]:
        with pytest.raises(TypeError):
            _mul(a, b)


def _spread(x: Permutation, degree: int) -> Permutation:
    """x moved onto the points 3 + 11*i of a larger degree, fixing the rest."""
    points = [3 + 11 * i for i in range(x.degree)]
    images = list(range(degree))
    for i, pt in enumerate(points):
        images[pt] = points[x(i)]
    return Permutation(images)


def _raw_forms(chain: StabChain, g: PermGroup) -> set[type]:
    """The types of every raw image a chain holds or hands out: strong
    generators, transversals, sift residues of non-members (each element
    times the transposition of the last two points, which g lacks), random
    draws, elements and minimal coset representatives."""
    elements = list(chain.elements())
    assert len(elements) == g.order() and all(chain.contains(x) for x in elements)
    rng = random.Random(3)
    held = chain.strong_generators() + elements
    held += [u for trans in chain.transversal for u in trans.values()]
    n = chain.degree
    swap = _to_raw([*range(n - 2), n - 1, n - 2])
    outside = [_mul(x, swap) for x in elements]
    residues = [chain._sift(x) for x in outside]
    assert None not in residues
    # some residues went through a division, so _div's output is among them
    assert any(r != x for r, x in zip(residues, outside))
    held += residues
    held += [chain.random_element(rng) for _ in range(20)]
    held += [chain.min_coset_rep(x) for x in elements[:20]]
    return {type(x) for x in held}


def test_a_degree_10_chain_holds_only_bytes():
    g = group_from_spec("A5 wr C2")
    assert g.degree == 10
    assert _raw_forms(g.chain, g) == {bytes}
    # a chain given image tuples converts them
    tuples = StabChain(g.degree, [x.images for x in g.generators])
    assert _raw_forms(tuples, g) == {bytes}
    assert all(type(x.images) is tuple for x in g.elements())


def test_a_degree_300_chain_holds_only_tuples():
    s4 = group_from_spec("S4")
    g = PermGroup(300, [_spread(x, 300) for x in s4.generators])
    assert g.order() == 24
    assert _raw_forms(g.chain, g) == {tuple}


def test_an_action_across_the_boundary_lifts_and_pulls_back():
    """G = S6 x S3 on 9 points acting on the 720 cosets of its S3 factor N:
    the extended chain has degree 729 and holds tuples, G's elements are
    bytes.  Each lift maps back onto its element of the target, the kernel
    read off the chain is N, and each preimage is the coset action's."""
    g = direct_product(symmetric_group(6), symmetric_group(3))
    n = PermGroup(9, [x for x in g.generators if x(0) == 0])
    assert n.order() == 6
    q = quotient_by(g, n)
    action = ActionMap(g, q.target.degree, q._aux_action)
    assert g.degree <= 256 < g.degree + action.target.degree
    rng = random.Random(6)
    targets = list(action.target.generators)
    targets += [action.target.random_element(rng) for _ in range(10)]
    for t in targets:
        lifted = action.lift(t)
        assert type(lifted._raw) is bytes
        assert action.image(lifted) == t
    assert type(action._chain.strong_generators()[0]) is tuple
    kernel = action.kernel()
    assert kernel.same_group_as(n)
    assert all(type(x._raw) is bytes for x in kernel.generators)
    subs = [PermGroup(action.target.degree, [t]) for t in targets[:4]] + [action.target]
    for sub in subs:
        assert action.preimage(sub).same_group_as(q.preimage(sub))


# Prints what the suite's numbers are read from: the class seeds of a
# harvest, the minimal normal subgroups and the Hall witnesses, as images.
_PROBE = """
import hallbound as hb
from hallbound.structure import _class_seeds
for spec in ("A4 x C3", "S4 x S3", "C5 x C5", "A5 x A5", "PSL(2,7)", "A5 wr C2"):
    g = hb.group_from_spec(spec)
    if g.order() <= 10_000:
        print(spec, [x.images for x in _class_seeds(g, g, 10_000)])
    print([[x.images for x in n.generators] for n in hb.minimal_normal_subgroups(g)])
    r = hb.find_hall_subgroup(g, hb.PrimeSet([2, 3]))
    print(r.status, dict(r.budget_used), r.subgroup and [x.images for x in r.subgroup.generators])
"""


def test_answers_do_not_depend_on_the_hash_seed():
    """bytes hashes are salted per process, so an answer that read the
    iteration order of a set of raw images would differ between seeds: the
    suite's JSON and the structures behind it are compared byte for byte
    under two seeds."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    commands = [["-m", "hallbound", "suite", "--scale", "2", "--json"], ["-c", _PROBE]]
    for command in commands:
        outputs = [
            subprocess.run(
                [sys.executable, *command],
                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
                capture_output=True,
                check=True,
            ).stdout
            for seed in ("0", "1")
        ]
        assert outputs[0] and outputs[0] == outputs[1], command[:2]
