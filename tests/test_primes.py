"""Prime arithmetic and PrimeSet parsing/part extraction."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallbound import PrimeSet
from hallbound.primes import factorize, is_prime, prime_divisors


def test_factorize_known_values():
    assert factorize(1) == {}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(7200) == {2: 5, 3: 2, 5: 2}


def test_is_prime_small_table():
    primes_below_30 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert [n for n in range(2, 30) if is_prime(n)] == primes_below_30
    assert not is_prime(1)
    assert not is_prime(0)


def test_prime_divisors_sorted():
    assert prime_divisors(360) == (2, 3, 5)
    assert prime_divisors(1) == ()


def test_prime_set_rejects_composites():
    with pytest.raises(ValueError):
        PrimeSet([2, 4])


def test_prime_set_parse_forms():
    assert PrimeSet.parse("2,3").primes == (2, 3)
    assert PrimeSet.parse("5 3 2").primes == (2, 3, 5)
    assert PrimeSet.parse("2, 3, 5").primes == (2, 3, 5)
    with pytest.raises(ValueError):
        PrimeSet.parse("2,six")
    # an empty item is a typo, not a shorter set
    for text in ("2,,3", "2,3,", ","):
        with pytest.raises(ValueError, match="malformed prime set"):
            PrimeSet.parse(text)


def test_part_of_and_complement():
    pi = PrimeSet([2, 3])
    assert pi.part_of(7200) == 288
    assert pi.coprime_part_of(7200) == 25
    assert pi.is_pi_number(96)
    assert not pi.is_pi_number(10)
    assert pi.complement_in(7200).primes == (5,)


def test_str_form():
    assert str(PrimeSet([3, 2])) == "{2,3}"


@pytest.mark.property_based
@given(n=st.integers(1, 10**6))
@settings(max_examples=200)
def test_factorize_reconstructs(n):
    product = 1
    for p, e in factorize(n).items():
        assert is_prime(p)
        product *= p**e
    assert product == n


@pytest.mark.property_based
@given(n=st.integers(1, 10**6))
@settings(max_examples=200)
def test_pi_part_times_coprime_part(n):
    pi = PrimeSet([2, 3, 5])
    a = pi.part_of(n)
    b = pi.coprime_part_of(n)
    assert a * b == n
    assert math.gcd(a, b) == 1
    assert pi.is_pi_number(a)
