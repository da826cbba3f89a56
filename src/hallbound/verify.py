"""Machine checks of the Hall-subgroup height bounds, plus invariant reports.

The central claims being verified, for a group G with a Hall pi-subgroup H
where pi contains 2 and an odd prime p:

* theorem: the non-p-soluble length of G is at most the generalized Fitting
  height of H;
* corollary: it is also at most 2*l2(H) + 1 when H is soluble, where l2 is
  the 2-length, with an internal proof route through a Hall {2,p}-subgroup
  T of H (Fitting height of T at most 2*l2(T)+1, and l2(T) at most l2(H));
* containment chain: F(H) and F*(H) lie inside the p-kernel of G;
* kernel lemma: one kernel step removes all non-p-soluble content.

Reports carry every number a check used, so serialized reports can be
re-validated by recomputing the inequality flags from the numbers alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import PreconditionError
from .group import PermGroup
from .hall import find_hall_subgroup, is_hall_subgroup
from .length import check_kernel_lemma, kernel_series, non_p_soluble_length, p_kernel
from .primes import PrimeSet, prime_divisors
from .radicals import (
    fitting_height,
    fitting_subgroup,
    generalized_fitting_height,
    generalized_fitting_subgroup,
    p_length_value,
)
from .structure import is_soluble

SCHEMA_VERSION = 1


def validate_hypotheses(pi: PrimeSet, p: int) -> None:
    """The checks require 2 in pi and an odd prime p in pi."""
    if 2 not in pi:
        raise PreconditionError("pi must contain 2")
    if p == 2:
        raise PreconditionError("p must be odd")
    if p not in pi:
        raise PreconditionError(f"p={p} must belong to pi={pi}")


def _require_hall(g: PermGroup, hall: PermGroup, pi: PrimeSet) -> None:
    if not is_hall_subgroup(hall, g, pi):
        raise PreconditionError("supplied subgroup is not a Hall pi-subgroup")


@dataclass(frozen=True)
class TheoremCheck:
    """Non-p-soluble length of G against the generalized Fitting height of H."""

    lambda_p: int
    h_star_hall: int

    @property
    def holds(self) -> bool:
        return self.lambda_p <= self.h_star_hall


def verify_theorem(g: PermGroup, pi: PrimeSet, p: int, hall: PermGroup) -> TheoremCheck:
    """Check lambda_p(G) <= h*(H) for a supplied Hall pi-subgroup H."""
    validate_hypotheses(pi, p)
    _require_hall(g, hall, pi)
    return TheoremCheck(
        lambda_p=non_p_soluble_length(g, p),
        h_star_hall=generalized_fitting_height(hall).height,
    )


@dataclass(frozen=True)
class CorollaryCheck:
    """lambda_p(G) against 2*l2(H)+1, with the internal proof route.

    The route fields are None when no Hall {2,p}-subgroup of H was found
    (only possible when a budget refuses the Sylow system scan and the
    later restarts miss; for soluble H one always exists, and the scan
    finds it), and route_holds is then None too: a route not walked is
    skipped, not passed.
    """

    lambda_p: int
    two_length_hall: int
    route_fitting_height: int | None
    route_two_length: int | None

    @property
    def bound(self) -> int:
        return 2 * self.two_length_hall + 1

    @property
    def holds(self) -> bool:
        return self.lambda_p <= self.bound

    @property
    def route_holds(self) -> bool | None:
        """h_F(T) <= 2*l2(T)+1 and l2(T) <= l2(H), or None when not walked."""
        if self.route_fitting_height is None:
            return None
        return (
            self.route_fitting_height <= 2 * self.route_two_length + 1
            and self.route_two_length <= self.two_length_hall
        )


def verify_corollary(g: PermGroup, pi: PrimeSet, p: int, hall: PermGroup) -> CorollaryCheck:
    """Check lambda_p(G) <= 2*l2(H)+1 for a soluble Hall pi-subgroup H.

    Also walks the proof route: extract a Hall {2,p}-subgroup T of H, then
    check fitting_height(T) <= 2*l2(T)+1 and l2(T) <= l2(H).
    """
    validate_hypotheses(pi, p)
    _require_hall(g, hall, pi)
    if not is_soluble(hall):
        raise PreconditionError("corollary check needs a soluble Hall subgroup")
    lam = non_p_soluble_length(g, p)
    l2 = p_length_value(hall, 2)
    inner = find_hall_subgroup(hall, PrimeSet([2, p]))
    route_height = route_l2 = None
    if inner.found:
        t = inner.subgroup
        route_height = fitting_height(t).height
        route_l2 = p_length_value(t, 2)
    return CorollaryCheck(
        lambda_p=lam,
        two_length_hall=l2,
        route_fitting_height=route_height,
        route_two_length=route_l2,
    )


@dataclass(frozen=True)
class ChainCheck:
    """Containment of F(H) and F*(H) in the p-kernel of G."""

    fitting_contained: bool
    generalized_fitting_contained: bool

    @property
    def holds(self) -> bool:
        return self.fitting_contained and self.generalized_fitting_contained


def verify_proposition_chain(
    g: PermGroup, pi: PrimeSet, p: int, hall: PermGroup
) -> ChainCheck:
    """Check F(H) <= K_p(G) and F*(H) <= K_p(G) by generator membership."""
    validate_hypotheses(pi, p)
    _require_hall(g, hall, pi)
    kernel = p_kernel(g, p)
    fit = fitting_subgroup(hall)
    star = generalized_fitting_subgroup(hall)
    return ChainCheck(
        fitting_contained=all(kernel.contains(x) for x in fit.generators),
        generalized_fitting_contained=all(kernel.contains(x) for x in star.generators),
    )


@dataclass(frozen=True)
class InvariantReport:
    """Everything one (group, pi, p) verification computed, JSON-serializable.

    Check values are True/False when evaluated and None when skipped (for
    example the theorem check when no Hall subgroup was found, or the
    corollary when the Hall subgroup is insoluble).
    """

    name: str
    order: int
    degree: int
    p: int
    pi: tuple[int, ...]
    lambda_p: int
    kernel_orders: tuple[int, ...]
    hall_status: str
    hall_order: int | None
    h_star_hall: int | None
    two_length_hall: int | None
    theorem: bool | None
    corollary: bool | None
    proposition: bool | None
    lemma_fitting: bool | None
    kernel_lemma: bool | None
    skipped_reason: str | None = None
    # The corollary's internal proof route.  Deliberately outside the
    # serialized schema (and outside equality) because it cannot be
    # recomputed from the report's numbers alone; the invariants and suite
    # commands still fail on it.
    corollary_route: bool | None = field(default=None, compare=False)

    @property
    def checks(self) -> dict[str, bool | None]:
        return {
            "theorem": self.theorem,
            "corollary": self.corollary,
            "proposition": self.proposition,
            "lemma_F": self.lemma_fitting,
            "kernel_lemma": self.kernel_lemma,
        }

    def to_dict(self) -> dict:
        data = {
            "schema": SCHEMA_VERSION,
            "group": {"name": self.name, "order": self.order, "degree": self.degree},
            "p": self.p,
            "pi": list(self.pi),
            "lambda_p": self.lambda_p,
            "kernel_orders": list(self.kernel_orders),
            "hall": {"status": self.hall_status, "order": self.hall_order},
            "h_star_H": self.h_star_hall,
            "l2_H": self.two_length_hall,
            "checks": self.checks,
        }
        if self.skipped_reason is not None:
            data["skipped_reason"] = self.skipped_reason
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "InvariantReport":
        if data.get("schema") != SCHEMA_VERSION:
            raise PreconditionError(f"unsupported report schema {data.get('schema')!r}")
        checks = data["checks"]
        return cls(
            name=data["group"]["name"],
            order=data["group"]["order"],
            degree=data["group"]["degree"],
            p=data["p"],
            pi=tuple(data["pi"]),
            lambda_p=data["lambda_p"],
            kernel_orders=tuple(data["kernel_orders"]),
            hall_status=data["hall"]["status"],
            hall_order=data["hall"]["order"],
            h_star_hall=data["h_star_H"],
            two_length_hall=data["l2_H"],
            theorem=checks["theorem"],
            corollary=checks["corollary"],
            proposition=checks["proposition"],
            lemma_fitting=checks["lemma_F"],
            kernel_lemma=checks["kernel_lemma"],
            skipped_reason=data.get("skipped_reason"),
        )

    @classmethod
    def from_json(cls, text: str) -> "InvariantReport":
        return cls.from_dict(json.loads(text))


def revalidate(data: dict) -> bool:
    """Recompute the inequality flags from a serialized report's numbers.

    True iff the stored theorem and corollary flags match what the stored
    lambda_p, h_star_H and l2_H values imply (None where a side is missing).
    """
    checks = data["checks"]
    lam = data["lambda_p"]
    h_star = data["h_star_H"]
    l2 = data["l2_H"]
    expect_theorem = None if h_star is None else TheoremCheck(lam, h_star).holds
    expect_corollary = None if l2 is None else CorollaryCheck(lam, l2, None, None).holds
    return checks["theorem"] == expect_theorem and checks["corollary"] == expect_corollary


def compute_invariant_report(name: str, g: PermGroup, pi: PrimeSet, p: int) -> InvariantReport:
    """Run every check for one (group, pi, p) instance and collect the report.

    The kernel-series invariants and the kernel lemma are always evaluated;
    the Hall-dependent checks are None with a skipped_reason when the Hall
    search does not return a subgroup.
    """
    validate_hypotheses(pi, p)
    series = kernel_series(g, p)
    lemma = check_kernel_lemma(g, p)
    result = find_hall_subgroup(g, pi)
    hall_order = h_star = l2 = None
    theorem = corollary = proposition = lemma_fitting = route = None
    skipped_reason = None
    if result.found:
        hall = result.subgroup
        hall_order = hall.order()
        theorem_record = verify_theorem(g, pi, p, hall)
        h_star = theorem_record.h_star_hall
        theorem = theorem_record.holds
        if is_soluble(hall):
            corollary_record = verify_corollary(g, pi, p, hall)
            l2 = corollary_record.two_length_hall
            corollary = corollary_record.holds
            route = corollary_record.route_holds
        chain = verify_proposition_chain(g, pi, p, hall)
        proposition = chain.generalized_fitting_contained
        lemma_fitting = chain.fitting_contained
    elif result.status == "proven_absent":
        skipped_reason = "no_hall_pi_subgroup"
    else:
        skipped_reason = "hall_subgroup_unknown"
    return InvariantReport(
        name=name,
        order=g.order(),
        degree=g.degree,
        p=p,
        pi=tuple(pi),
        lambda_p=series.length,
        kernel_orders=tuple(k.order() for k in series.kernels),
        hall_status=result.status,
        hall_order=hall_order,
        h_star_hall=h_star,
        two_length_hall=l2,
        theorem=theorem,
        corollary=corollary,
        proposition=proposition,
        lemma_fitting=lemma_fitting,
        kernel_lemma=lemma.holds,
        skipped_reason=skipped_reason,
        corollary_route=route,
    )


def valid_instances(g: PermGroup) -> tuple[tuple[PrimeSet, int], ...]:
    """Every (pi, p) pair the checks accept, over prime divisors of |G|.

    pi ranges over subsets of the prime divisors that contain 2 and at
    least one odd prime; p over the odd members of pi.  Groups of odd order
    or prime-power order admit no instance.
    """
    divisors = prime_divisors(g.order())
    if 2 not in divisors:
        return ()
    odds = [q for q in divisors if q != 2]
    instances = []
    for mask in range(1, 1 << len(odds)):
        chosen = [odds[i] for i in range(len(odds)) if mask >> i & 1]
        pi = PrimeSet([2, *chosen])
        for p in chosen:
            instances.append((pi, p))
    instances.sort(key=lambda item: (tuple(item[0]), item[1]))
    return tuple(instances)
