"""Command-line interface.

Subcommands:

* ``order SPEC``          print the group order
* ``invariants SPEC``     full invariant report for one (group, pi, p)
* ``hall SPEC``           Hall pi-subgroup search
* ``verify SPEC``         check the height bounds, with exit-code verdict
* ``suite``               run every check over the built-in corpus

Group SPECs use the corpus grammar ("A5", "S3 x C4", "A5 wr C2", ...) or
``@path`` / an existing path to a generator file ("degree N" header, one
generator per line in 1-based disjoint cycles).

Exit codes: 0 every evaluated check holds, 1 some check failed, 2 usage or
computation error, 3 all requested checks were skipped, 4 internal error
(a bug in hallbound, never a verdict on the theorem).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

from .corpus import group_from_file, group_from_spec, suite_specs
from .errors import GroupError
from .group import PermGroup
from .hall import find_hall_subgroup
from .primes import PrimeSet
from .verify import (
    InvariantReport,
    SCHEMA_VERSION,
    compute_invariant_report,
    valid_instances,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_ERROR = 2
EXIT_SKIPPED = 3
EXIT_INTERNAL = 4


def _load_group(spec: str) -> PermGroup:
    """Resolve a SPEC argument: @file, existing file path, or grammar."""
    if spec.startswith("@"):
        return group_from_file(spec[1:])
    try:
        return group_from_spec(spec)
    except GroupError:
        if Path(spec).is_file():
            return group_from_file(spec)
        raise


def _status_word(flag: bool | None) -> str:
    if flag is None:
        return "skipped"
    return "holds" if flag else "FAILED"


def _verdict(flags: list[bool | None]) -> int:
    """Exit code from a set of check outcomes."""
    if any(flag is False for flag in flags):
        return EXIT_CHECK_FAILED
    if any(flag is True for flag in flags):
        return EXIT_OK
    return EXIT_SKIPPED


def _print_report(report: InvariantReport, out) -> None:
    print(
        f"group {report.name} (order {report.order}, degree {report.degree})"
        f"  pi={{{','.join(str(q) for q in report.pi)}}}  p={report.p}",
        file=out,
    )
    orders = ", ".join(str(n) for n in report.kernel_orders)
    print(f"lambda_p = {report.lambda_p}  kernel orders: [{orders}]", file=out)
    hall_line = f"hall: {report.hall_status}"
    if report.hall_order is not None:
        hall_line += f", order {report.hall_order}"
    print(hall_line, file=out)
    if report.h_star_hall is not None:
        print(f"h*(H) = {report.h_star_hall}", file=out)
    if report.two_length_hall is not None:
        print(f"l2(H) = {report.two_length_hall}", file=out)
    for label, flag in report.checks.items():
        line = f"check {label}: {_status_word(flag)}"
        if label == "corollary" and flag is not None:
            line += f" (route: {_status_word(report.corollary_route)})"
        print(line, file=out)
    if report.skipped_reason is not None:
        print(f"skipped: {report.skipped_reason}", file=out)


def _cmd_order(args) -> int:
    print(_load_group(args.spec).order())
    return EXIT_OK


def _route_line(budget) -> str:
    """The deciding step of a Hall search and the budget it used."""
    details = ", ".join(f"{k} {v}" for k, v in sorted(budget.items()) if k != "route")
    return f"route: {budget['route']}" + (f" ({details})" if details else "")


def _cmd_hall(args) -> int:
    g = _load_group(args.spec)
    pi = PrimeSet.parse(args.pi)
    result = find_hall_subgroup(g, pi)
    if args.json:
        payload = {
            "schema": SCHEMA_VERSION,
            "group": {"name": args.spec, "order": g.order(), "degree": g.degree},
            "pi": list(pi),
            "hall": {
                "status": result.status,
                "order": result.subgroup.order() if result.subgroup else None,
            },
            "budget": dict(result.budget_used),
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        line = f"hall pi={{{','.join(str(q) for q in pi)}}}: {result.status}"
        if result.subgroup is not None:
            line += f", order {result.subgroup.order()}"
        print(line)
        print(_route_line(result.budget_used))
    if result.status == "unknown":
        return EXIT_SKIPPED
    return EXIT_OK


def _report_for_args(args) -> InvariantReport:
    """The report for one (group, pi, p) argument set, printed as text or JSON."""
    g = _load_group(args.spec)
    pi = PrimeSet.parse(args.pi) if args.pi else PrimeSet([2, args.p])
    report = compute_invariant_report(args.spec, g, pi, args.p)
    if args.json:
        print(report.to_json())
    else:
        _print_report(report, sys.stdout)
    return report


def _all_flags(report: InvariantReport) -> list[bool | None]:
    """Every check of a report, and the corollary's proof route."""
    return [*report.checks.values(), report.corollary_route]


def _cmd_invariants(args) -> int:
    return _verdict(_all_flags(_report_for_args(args)))


def _cmd_verify(args) -> int:
    report = _report_for_args(args)
    flags: list[bool | None] = [report.theorem]
    if args.corollary:
        flags.append(report.corollary)
        flags.append(report.corollary_route)
    if args.chain:
        flags.append(report.proposition)
        flags.append(report.lemma_fitting)
        flags.append(report.kernel_lemma)
    return _verdict(flags)


def _suite_instances(scale: int) -> list[tuple[str, PermGroup, PrimeSet, int]]:
    instances = []
    for name in suite_specs(scale):
        g = group_from_spec(name)
        for pi, p in valid_instances(g):
            instances.append((name, g, pi, p))
    instances.sort(key=lambda item: (item[0], tuple(item[2]), item[3]))
    return instances


def _cmd_suite(args) -> int:
    reports = [
        compute_invariant_report(name, g, pi, p)
        for name, g, pi, p in _suite_instances(args.scale)
    ]
    all_flags = [flag for report in reports for flag in _all_flags(report)]
    if args.json:
        payload = {
            "schema": SCHEMA_VERSION,
            "scale": args.scale,
            "reports": [r.to_dict() for r in reports],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        for report in reports:
            checks = "  ".join(
                f"{label}={_status_word(flag)}" for label, flag in report.checks.items()
            )
            hall = report.hall_status
            if report.hall_order is not None:
                hall += f"({report.hall_order})"
            print(
                f"{report.name}  pi={{{','.join(str(q) for q in report.pi)}}} "
                f"p={report.p}  lambda={report.lambda_p}  hall={hall}  {checks}"
            )
        evaluated = sum(1 for f in all_flags if f is not None)
        failed = sum(1 for f in all_flags if f is False)
        print(
            f"suite: {len(reports)} instances, {evaluated} checks evaluated, "
            f"{failed} failed"
        )
    return _verdict(all_flags)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hallbound",
        description="Invariants and Hall-subgroup height bounds for finite permutation groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_order = sub.add_parser("order", help="print the order of a group")
    p_order.add_argument("spec", help="group spec or @file")
    p_order.set_defaults(func=_cmd_order)

    p_inv = sub.add_parser("invariants", help="full invariant report")
    p_inv.add_argument("spec", help="group spec or @file")
    p_inv.add_argument("--p", dest="p", type=int, required=True, help="odd prime p")
    p_inv.add_argument("--pi", dest="pi", help="comma-separated primes (default: 2,p)")
    p_inv.add_argument("--json", action="store_true", help="JSON output")
    p_inv.set_defaults(func=_cmd_invariants)

    p_hall = sub.add_parser("hall", help="search for a Hall pi-subgroup")
    p_hall.add_argument("spec", help="group spec or @file")
    p_hall.add_argument("--pi", dest="pi", required=True, help="comma-separated primes")
    p_hall.add_argument("--json", action="store_true", help="JSON output")
    p_hall.set_defaults(func=_cmd_hall)

    p_verify = sub.add_parser("verify", help="check the height bounds")
    p_verify.add_argument("spec", help="group spec or @file")
    p_verify.add_argument("--pi", dest="pi", required=True, help="comma-separated primes")
    p_verify.add_argument("--p", dest="p", type=int, required=True, help="odd prime p")
    p_verify.add_argument(
        "--corollary", action="store_true", help="also require the 2-length bound"
    )
    p_verify.add_argument(
        "--chain", action="store_true", help="also require the containment chain"
    )
    p_verify.add_argument("--json", action="store_true", help="JSON output")
    p_verify.set_defaults(func=_cmd_verify)

    p_suite = sub.add_parser("suite", help="run the full corpus")
    p_suite.add_argument(
        "--scale", type=int, default=2, help="corpus tier: 1 small, 2 standard, 3 large"
    )
    p_suite.add_argument("--json", action="store_true", help="JSON output")
    p_suite.set_defaults(func=_cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GroupError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
