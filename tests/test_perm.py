"""Permutation arithmetic: group laws, orders, cycle notation round-trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallbound import Permutation
from hallbound.errors import DegreeMismatch
from hallbound.perm import format_cycles, parse_cycles

from conftest import permutations_of_degree

DEGREE = 7
perms = permutations_of_degree(DEGREE)


def test_identity_basics():
    e = Permutation.identity(5)
    assert e.is_identity
    assert e.degree == 5
    assert e.order() == 1
    assert [e(i) for i in range(5)] == [0, 1, 2, 3, 4]


def test_composition_is_left_to_right():
    # (a*b)(x) applies a first, then b.
    a = Permutation.from_cycles(3, [(0, 1)])
    b = Permutation.from_cycles(3, [(1, 2)])
    assert (a * b)(0) == 2
    assert (b * a)(0) == 1


def test_from_cycles_and_cycles_round_trip():
    p = Permutation.from_cycles(6, [(0, 1, 2), (4, 5)])
    assert p.cycles() == [(0, 1, 2), (4, 5)]
    assert p.order() == 6


def test_parse_and_format_cycles():
    p = parse_cycles("(1 2 3)(5 6)", degree=6, offset=1)
    assert p == Permutation.from_cycles(6, [(0, 1, 2), (4, 5)])
    assert format_cycles(p, offset=1) == "(1 2 3)(5 6)"
    assert format_cycles(Permutation.identity(4)) == "()"


def test_degree_one_products():
    e = Permutation.identity(1)
    assert e * e == e
    assert (e * e).images == (0,)
    assert e**3 == e
    assert e.inverse() == e


def test_degree_mismatch_rejected():
    a = Permutation.identity(3)
    b = Permutation.identity(4)
    with pytest.raises(DegreeMismatch):
        a * b


def test_invalid_images_rejected():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


@pytest.mark.parametrize(
    "build",
    [
        lambda: Permutation((0, 3, 1)),
        lambda: Permutation((0, 1.0)),
        lambda: Permutation.identity(0),
        lambda: Permutation.from_cycles(4, [(0, 1), (1, 2)]),
        lambda: Permutation.from_cycles(3, [(0, 3)]),
        lambda: parse_cycles("(1 2"),
        lambda: parse_cycles("(1 x)"),
        lambda: parse_cycles("(1 2) 3"),
        lambda: parse_cycles("(0 1 0)"),
        lambda: parse_cycles("(0 1)(1 2)"),
        lambda: parse_cycles("(0 5)", degree=3),
    ],
)
def test_outside_input_is_validated(build):
    with pytest.raises(ValueError):
        build()


def test_point_repeated_across_cycles_is_named_with_offset():
    with pytest.raises(ValueError, match="point 2 appears in two cycles"):
        parse_cycles("(1 2)(2 3)", offset=1)


def test_conjugate_degree_mismatch_rejected():
    with pytest.raises(DegreeMismatch):
        Permutation.identity(3).conjugate(Permutation.identity(4))
    with pytest.raises(DegreeMismatch):
        Permutation.identity(4).conjugate(Permutation.identity(3))


def test_product_with_non_permutation_is_type_error():
    a = Permutation([1, 0, 2])
    with pytest.raises(TypeError):
        a * 3
    with pytest.raises(TypeError):
        3 * a


@pytest.mark.property_based
@given(a=perms, b=perms, k=st.integers(-20, 20))
@settings(max_examples=100)
def test_derived_permutations_are_bijections(a, b, k):
    """Derived images skip validation; the checking constructor must accept
    each of them as a bijection of the same degree."""
    for x in (a * b, a.inverse(), a**k, a.conjugate(b), a.commutator(b)):
        assert x.degree == DEGREE
        assert Permutation(x.images) == x


@pytest.mark.property_based
@given(a=perms, b=perms, c=perms)
@settings(max_examples=100)
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@pytest.mark.property_based
@given(a=perms)
@settings(max_examples=100)
def test_inverse_cancels(a):
    e = Permutation.identity(DEGREE)
    assert a * a.inverse() == e
    assert a.inverse() * a == e


@pytest.mark.property_based
@given(a=perms, b=perms)
@settings(max_examples=100)
def test_product_acts_left_to_right(a, b):
    assert all((a * b)(x) == b(a(x)) for x in range(DEGREE))


@pytest.mark.property_based
@given(a=perms)
@settings(max_examples=100)
def test_order_is_minimal_exponent(a):
    n = a.order()
    assert (a**n).is_identity
    assert all(not (a**k).is_identity for k in range(1, n))


@pytest.mark.property_based
@given(a=perms, k=st.integers(-20, 20))
@settings(max_examples=100)
def test_power_matches_repeated_product(a, k):
    expected = Permutation.identity(DEGREE)
    step = a if k >= 0 else a.inverse()
    for _ in range(abs(k)):
        expected = expected * step
    assert a**k == expected


@pytest.mark.property_based
@given(a=perms, g=perms)
@settings(max_examples=100)
def test_conjugate_definition(a, g):
    assert a.conjugate(g) == g.inverse() * a * g
    assert a.conjugate(g).order() == a.order()


@pytest.mark.property_based
@given(a=perms, b=perms)
@settings(max_examples=100)
def test_commutator_definition(a, b):
    assert a.commutator(b) == a.inverse() * b.inverse() * a * b


@pytest.mark.property_based
@given(a=perms)
@settings(max_examples=100)
def test_cycle_format_round_trip(a):
    assert parse_cycles(format_cycles(a), degree=DEGREE) == a
