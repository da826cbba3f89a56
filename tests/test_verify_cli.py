"""End-to-end checks of the verification layer and the command line."""

import json
from dataclasses import replace

import pytest

from hallbound import (
    PrimeSet,
    compute_invariant_report,
    find_hall_subgroup,
    make_named,
    revalidate,
    valid_instances,
    validate_hypotheses,
    verify_corollary,
    verify_proposition_chain,
    verify_theorem,
)
from hallbound import cli, clear_caches
from hallbound.cli import main
from hallbound.errors import PreconditionError
from hallbound.verify import SCHEMA_VERSION, CorollaryCheck, InvariantReport


def test_validate_hypotheses_rejects_bad_input():
    with pytest.raises(PreconditionError, match="pi must contain 2"):
        validate_hypotheses(PrimeSet([3, 5]), 5)
    with pytest.raises(PreconditionError, match="p must be odd"):
        validate_hypotheses(PrimeSet([2, 3]), 2)
    with pytest.raises(PreconditionError, match="must belong to pi"):
        validate_hypotheses(PrimeSet([2, 3]), 5)
    validate_hypotheses(PrimeSet([2, 3]), 3)


def test_verify_theorem_on_a5(a5):
    hall = find_hall_subgroup(a5, PrimeSet([2, 3])).subgroup
    record = verify_theorem(a5, PrimeSet([2, 3]), 3, hall)
    assert record.lambda_p == 1
    assert record.h_star_hall >= 1
    assert record.holds


def test_verify_corollary_on_a5(a5):
    hall = find_hall_subgroup(a5, PrimeSet([2, 3])).subgroup
    record = verify_corollary(a5, PrimeSet([2, 3]), 3, hall)
    assert record.holds
    assert record.bound == 2 * record.two_length_hall + 1
    assert record.route_holds


def test_a_route_not_walked_is_skipped():
    assert CorollaryCheck(1, 1, None, None).route_holds is None
    assert CorollaryCheck(1, 1, 3, 1).route_holds is True
    assert CorollaryCheck(1, 1, 4, 1).route_holds is False
    assert CorollaryCheck(1, 1, 1, 2).route_holds is False


def test_verify_proposition_chain_on_a5(a5):
    hall = find_hall_subgroup(a5, PrimeSet([2, 3])).subgroup
    chain = verify_proposition_chain(a5, PrimeSet([2, 3]), 3, hall)
    assert chain.fitting_contained
    assert chain.generalized_fitting_contained


def test_compute_invariant_report_found(a5):
    report = compute_invariant_report("A5", a5, PrimeSet([2, 3]), 3)
    assert report.hall_status == "found"
    assert report.hall_order == 12
    assert report.lambda_p == 1
    assert report.theorem is True
    assert report.corollary is True
    assert report.proposition is True
    assert report.lemma_fitting is True
    assert report.kernel_lemma is True
    assert report.skipped_reason is None


def test_compute_invariant_report_absent(a5):
    report = compute_invariant_report("A5", a5, PrimeSet([2, 5]), 5)
    assert report.hall_status == "proven_absent"
    assert report.theorem is None
    assert report.corollary is None
    assert report.skipped_reason == "no_hall_pi_subgroup"
    assert report.kernel_lemma is True  # evaluated regardless of the Hall search


def test_report_schema_keys(a5):
    report = compute_invariant_report("A5", a5, PrimeSet([2, 3]), 3)
    data = report.to_dict()
    assert data["schema"] == SCHEMA_VERSION
    assert set(data) == {
        "schema",
        "group",
        "p",
        "pi",
        "lambda_p",
        "kernel_orders",
        "hall",
        "h_star_H",
        "l2_H",
        "checks",
    }
    assert set(data["group"]) == {"name", "order", "degree"}
    assert set(data["hall"]) == {"status", "order"}
    assert set(data["checks"]) == {
        "theorem",
        "corollary",
        "proposition",
        "lemma_F",
        "kernel_lemma",
    }


def test_report_json_round_trip(a5):
    report = compute_invariant_report("A5", a5, PrimeSet([2, 3]), 3)
    restored = InvariantReport.from_json(report.to_json())
    assert restored == report


def test_revalidate_accepts_consistent_and_rejects_tampered(a5):
    report = compute_invariant_report("A5", a5, PrimeSet([2, 3]), 3)
    data = report.to_dict()
    assert revalidate(data)
    tampered = json.loads(json.dumps(data))
    tampered["lambda_p"] = tampered["h_star_H"] + 5
    assert not revalidate(tampered)


def test_valid_instances_structure(a5):
    pairs = valid_instances(a5)
    as_tuples = {(tuple(pi), p) for pi, p in pairs}
    assert ((2, 3), 3) in as_tuples
    assert ((2, 5), 5) in as_tuples
    assert ((2, 3, 5), 3) in as_tuples
    assert ((2, 3, 5), 5) in as_tuples
    assert all(2 in pi and p % 2 == 1 and p in pi for pi, p in pairs)


def test_valid_instances_empty_for_odd_or_prime_power():
    assert valid_instances(make_named("C9")) == ()
    assert valid_instances(make_named("D8")) == ()


def test_cli_order(capsys):
    assert main(["order", "A5"]) == 0
    assert capsys.readouterr().out.strip() == "60"


def test_cli_order_of_product(capsys):
    assert main(["order", "A5 wr C2"]) == 0
    assert capsys.readouterr().out.strip() == "7200"


def test_cli_verify_ok(capsys):
    code = main(["verify", "A5", "--pi", "2,3", "--p", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "check theorem: holds" in out


def test_cli_internal_error_has_its_own_exit_code(capsys, monkeypatch):
    import hallbound.cli as cli

    def broken(*args, **kwargs):
        raise AssertionError("invariant broken")

    monkeypatch.setattr(cli, "compute_invariant_report", broken)
    code = main(["verify", "A5", "--pi", "2,3", "--p", "3"])
    assert code == cli.EXIT_INTERNAL == 4
    assert "internal error: AssertionError: invariant broken" in capsys.readouterr().err


def test_cli_verify_with_corollary_and_chain(capsys):
    code = main(["verify", "S4", "--pi", "2,3", "--p", "3", "--corollary", "--chain"])
    assert code == 0


def test_cli_verify_rejects_bad_hypotheses(capsys):
    code = main(["verify", "A5", "--pi", "3,5", "--p", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert "pi must contain 2" in captured.err


def test_cli_verify_skips_when_no_hall_subgroup(capsys):
    code = main(["verify", "A5", "--pi", "2,5", "--p", "5"])
    out = capsys.readouterr().out
    assert code == 3
    assert "proven_absent" in out


def test_cli_hall_json(capsys):
    code = main(["hall", "A5", "--pi", "2,5", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["hall"]["status"] == "proven_absent"
    assert payload["hall"]["order"] is None
    assert payload["group"]["order"] == 60
    assert payload["budget"]["route"] == "certificate"


def test_cli_hall_prints_route(capsys):
    assert main(["hall", "A6", "--pi", "2,5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "hall pi={2,5}: proven_absent"
    assert lines[1].startswith("route: scan (random_growth_steps ")
    assert "sylow_combinations" in lines[1]
    assert main(["hall", "A5", "--pi", "2,3"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("route: greedy")


def test_cli_invariants_json_revalidates(capsys):
    code = main(["invariants", "A5", "--p", "3", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert revalidate(payload)
    assert payload["pi"] == [2, 3]  # defaulted to {2, p}


def test_cli_invariants_json_when_the_hall_search_is_unknown(capsys):
    # A5 wr A5 is over the enumeration cap for a Sylow scan, and no bound
    # decides {2, 3}: the report skips the four Hall checks but keeps the
    # kernel lemma
    code = main(["invariants", "A5 wr A5", "--p", "3", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["lambda_p"] == 2
    assert payload["kernel_orders"] == [777600000, 46656000000]
    assert payload["hall"]["status"] == "unknown"
    assert payload["skipped_reason"] == "hall_subgroup_unknown"
    checks = payload["checks"]
    assert [checks[k] for k in ("theorem", "corollary", "proposition", "lemma_F")] == [None] * 4
    assert checks["kernel_lemma"] is True
    assert revalidate(payload)


def test_cli_hall_unknown_exits_skipped(capsys):
    assert main(["hall", "A5 wr A5", "--pi", "2,3"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "hall pi={2,3}: unknown"
    assert lines[1].startswith("route: cap (")
    assert "scan_refused" in lines[1]


def test_cli_unknown_group_is_an_error(capsys):
    code = main(["order", "Q8"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_group_file(tmp_path, capsys):
    path = tmp_path / "c7.grp"
    path.write_text("degree 7\n(1 2 3 4 5 6 7)\n")
    assert main(["order", f"@{path}"]) == 0
    assert capsys.readouterr().out.strip() == "7"


def test_cli_suite_scale_one(capsys):
    code = main(["suite", "--scale", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "suite: 17 instances, 84 checks evaluated, 0 failed" in out


def test_cli_suite_json_prints_the_reports_payload(capsys):
    code = main(["suite", "--scale", "1", "--json"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert code == 0
    assert payload["schema"] == 1
    assert len(payload["reports"]) == 17
    assert all(revalidate(report) for report in payload["reports"])
    reports = [
        compute_invariant_report(name, g, pi, p).to_dict()
        for name, g, pi, p in cli._suite_instances(1)
    ]
    expected = {"schema": SCHEMA_VERSION, "scale": 1, "reports": reports}
    assert out == json.dumps(expected, sort_keys=True) + "\n"


def _patched_a5_report(monkeypatch, a5, **changes):
    """Make the CLI compute the A5, pi = {2,3}, p = 3 report with changes."""
    report = replace(compute_invariant_report("A5", a5, PrimeSet([2, 3]), 3), **changes)
    monkeypatch.setattr(cli, "compute_invariant_report", lambda *args: report)


def test_cli_invariants_fails_on_a_failed_route(capsys, monkeypatch, a5):
    _patched_a5_report(monkeypatch, a5, corollary_route=False)
    assert main(["invariants", "A5", "--p", "3"]) == 1
    assert "check corollary: holds (route: FAILED)" in capsys.readouterr().out


def test_cli_invariants_skips_a_route_not_walked(capsys, monkeypatch, a5):
    _patched_a5_report(monkeypatch, a5, corollary_route=None)
    assert main(["invariants", "A5", "--p", "3"]) == 0
    assert "check corollary: holds (route: skipped)" in capsys.readouterr().out


def test_cli_verify_fails_on_a_failed_theorem(capsys, monkeypatch, a5):
    _patched_a5_report(monkeypatch, a5, theorem=False)
    assert main(["verify", "A5", "--pi", "2,3", "--p", "3"]) == 1
    assert "check theorem: FAILED" in capsys.readouterr().out


def test_cli_verify_json_revalidates(capsys):
    code = main(["verify", "A5", "--pi", "2,3", "--p", "3", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["hall"] == {"status": "found", "order": 12}
    assert revalidate(payload)


def test_cli_invariants_text(capsys):
    assert main(["invariants", "S4", "--p", "3"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "group S4 (order 24, degree 4)  pi={2,3}  p=3",
        "lambda_p = 0  kernel orders: []",
        "hall: found, order 24",
        "h*(H) = 3",
        "l2(H) = 2",
        "check theorem: holds",
        "check corollary: holds (route: holds)",
        "check proposition: holds",
        "check lemma_F: holds",
        "check kernel_lemma: holds",
    ]


def test_cli_group_file_as_a_plain_path(tmp_path, capsys):
    path = tmp_path / "c7.grp"
    path.write_text("degree 7\n(1 2 3 4 5 6 7)\n")
    assert main(["order", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "7"


def test_cli_rejects_a_cap_that_is_not_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("HALLBOUND_CAP", "abc")
    clear_caches()
    try:
        assert main(["invariants", "A5", "--p", "3"]) == 2
    finally:
        clear_caches()
    assert "HALLBOUND_CAP must be an integer" in capsys.readouterr().err
