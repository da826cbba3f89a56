"""Small-integer prime arithmetic and prime sets.

Group orders in this library are products of small primes, so plain trial
division is all that is ever needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer as {prime: exponent}."""
    if n <= 0:
        raise ValueError(f"cannot factorize non-positive integer {n}")
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def is_prime(n: int) -> bool:
    return n > 1 and factorize(n) == {n: 1}


def prime_divisors(n: int) -> tuple[int, ...]:
    return tuple(sorted(factorize(n)))


@dataclass(frozen=True)
class PrimeSet:
    """An immutable set of primes, the pi in 'Hall pi-subgroup'."""

    primes: tuple[int, ...]

    def __init__(self, primes: Iterable[int]):
        unique = sorted(set(primes))
        for p in unique:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "primes", tuple(unique))

    @classmethod
    def parse(cls, text: str) -> "PrimeSet":
        """Parse a comma- or space-separated list such as '2,3' or '2 3 5'.

        An empty comma-separated item, as in '2,,3' or '2,3,', is malformed
        rather than skipped, so a typo cannot silently drop a prime.
        """
        chunks = [chunk.split() for chunk in text.split(",")]
        if len(chunks) > 1 and not all(chunks):
            raise ValueError(f"malformed prime set {text!r}")
        parts = [p for chunk in chunks for p in chunk]
        if not parts:
            raise ValueError("empty prime set")
        try:
            values = [int(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"malformed prime set {text!r}") from exc
        return cls(values)

    def __contains__(self, p: int) -> bool:
        return p in self.primes

    def __iter__(self):
        return iter(self.primes)

    def __len__(self) -> int:
        return len(self.primes)

    def __str__(self) -> str:
        return "{" + ",".join(str(p) for p in self.primes) + "}"

    def part_of(self, n: int) -> int:
        """The pi-part of n: the largest divisor with all prime factors in pi."""
        if n <= 0:
            raise ValueError(f"pi-part undefined for {n}")
        part = 1
        for p, e in factorize(n).items():
            if p in self.primes:
                part *= p**e
        return part

    def coprime_part_of(self, n: int) -> int:
        """The pi'-part of n, i.e. n divided by its pi-part."""
        return n // self.part_of(n)

    def is_pi_number(self, n: int) -> bool:
        """True iff every prime factor of n lies in this set (1 qualifies)."""
        return self.part_of(n) == n

    def complement_in(self, n: int) -> "PrimeSet":
        """Primes dividing n that are not in this set."""
        return PrimeSet(p for p in prime_divisors(n) if p not in self.primes)
