#!/usr/bin/env python3
"""hallbound benchmark: time each workload end to end, check every answer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload suite --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 1

Workloads are ``suite``, ``kernel`` and ``hall_found`` (see README.md), or
``all`` to run each in turn.  Every measurement runs in a fresh
single-threaded Python process (``worker.py``) that imports ``hallbound``
from ``src/`` of this checkout.

With ``--trace 0`` the run reports the end-to-end metrics.  ``wall_ref_s``
is the pass time with each step scaled by the machine speed measured next to
and inside it (see worker.py); the raw ``wall_s`` is printed beside it.  ``setup_s`` is
the median over several processes that only set up, each scaled the same
way; the raw median is printed beside it.  With ``--trace 1`` it
runs the workload once untraced and once traced, with the same inputs and
pass count, and reports the per-module metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
items whose result disagrees with ``reference.json`` or that raised an error
the reference does not expect.  Exit code 0 means the run completed;
``correct`` says whether every answer matched.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

# Each run must end within this many seconds, child processes included.
DEADLINE_S = 170.0
SETUP_RUNS = 10
# Per-item latency is printed where items are many and alike enough for a
# median and a tail to repeat; kernel has seven items of unlike cost.
ITEM_METRIC_WORKLOADS = ("suite", "hall_found")
# item_tail_ms is the highest percentile with at least this many items above it.
TAIL_ITEMS = 10


def spawn(workload, seed, seconds, trace, extra=(), deadline=None):
    """Run worker.py in a fresh process and return its JSON result."""
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    spawned_at = time.monotonic()
    argv = [sys.executable, str(WORKER), workload, str(seed), str(seconds),
            "1" if trace else "0", repr(spawned_at), *extra]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker for {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Answers


def _report_ok(answer, expected):
    flags = list(answer["checks"].values()) + [answer["corollary_route"]]
    if any(flag is False for flag in flags):
        return False
    if answer == expected:
        return True
    if expected["hall"]["status"] != "unknown":
        return False
    # A reference `unknown` may later resolve to either verdict.  The
    # Hall-independent part must still agree.  A found subgroup needs no
    # check here: compute_invariant_report raises unless it is Hall.
    fixed = ("group", "p", "pi", "lambda_p", "kernel_orders")
    if any(answer[k] != expected[k] for k in fixed):
        return False
    return answer["checks"]["kernel_lemma"] == expected["checks"]["kernel_lemma"]


def record_ok(record, expected):
    """Whether one item's outcome is accepted by its reference entry."""
    if expected is None:
        return False
    if record["error"] is not None:
        return record["error"] == expected.get("raises")
    answer = record["answer"]
    kind = record["kind"]
    if kind == "report":
        return _report_ok(answer, expected)
    if kind == "hall":
        if answer["status"] == "found" and record["hall_verified"] is not True:
            return False
        if answer == expected:
            return True
        return expected["status"] == "unknown" and answer["status"] in ("found", "proven_absent")
    if "raises" in expected:
        return answer == expected.get("completes")
    return answer == expected


# ---------------------------------------------------------------------------
# Metrics


def tail_percentile(values):
    """Highest whole percentile (nearest rank) with at least TAIL_ITEMS
    values above it: (percentile, value, count above).  Needs more than
    TAIL_ITEMS values."""
    ordered = sorted(values)
    n = len(ordered)
    pct = math.floor(100 * (n - TAIL_ITEMS) / n)
    rank = max(1, math.ceil(pct * n / 100))
    value = ordered[rank - 1]
    return pct, value, sum(1 for v in ordered if v > value)


PER_LAYER = (
    # (metric, unit, source, key, field) -- field 0 calls, 1 total s, 2 self s
    ("group.chain_builds", "count", "stats", "group.StabChain", 0),
    ("group.chain_build_s", "s", "stats", "group.StabChain", 2),
    ("group.chain_points", "points", "counters", "group.chain_points", None),
    ("group.chain_max_degree", "points", "counters", "group.chain_max_degree", None),
    ("group.contains_calls", "count", "counters", "group.contains_calls", None),
    ("group.elements_enumerated", "count", "counters", "group.elements_enumerated", None),
    ("group.element_list_s", "s", "stats", "group.element_list", 2),
    ("group.normal_closure_calls", "count", "stats", "group.normal_closure", 0),
    ("group.normal_closure_s", "s", "stats", "group.normal_closure", 2),
    ("group.centralizer_s", "s", "stats", "group.centralizer", 2),
    ("group.intersection_s", "s", "stats", "group.intersection", 2),
    ("group.self_s", "s", "modules", "group", None),
    ("quotient.maps", "count", "stats", "quotient.QuotientMap", 0),
    ("quotient.build_s", "s", "stats", "quotient.QuotientMap", 2),
    ("quotient.degree_sum", "points", "counters", "quotient.degree_sum", None),
    ("quotient.degree_max", "points", "counters", "quotient.degree_max", None),
    ("quotient.self_s", "s", "modules", "quotient", None),
    ("structure.minimal_normals_calls", "count", "stats", "structure.minimal_normal_subgroups", 0),
    ("structure.minimal_normals_s", "s", "stats", "structure.minimal_normal_subgroups", 2),
    ("structure.normal_part_calls", "count", "stats", "structure.normal_part", 0),
    ("structure.normal_part_s", "s", "stats", "structure.normal_part", 2),
    ("structure.socle_s", "s", "stats", "structure.socle", 2),
    ("structure.derived_series_s", "s", "stats", "structure.derived_series", 2),
    ("structure.self_s", "s", "modules", "structure", None),
    ("radicals.sylow_calls", "count", "stats", "radicals.sylow_subgroup", 0),
    ("radicals.sylow_s", "s", "stats", "radicals.sylow_subgroup", 2),
    ("radicals.pi_core_s", "s", "stats", "radicals.pi_core", 2),
    ("radicals.p_soluble_radical_s", "s", "stats", "radicals.p_soluble_radical", 2),
    ("radicals.fitting_height_s", "s", "stats", "radicals.fitting_height", 2),
    ("radicals.gfitting_height_s", "s", "stats", "radicals.generalized_fitting_height", 2),
    ("radicals.layer_s", "s", "stats", "radicals.layer", 2),
    ("radicals.p_length_s", "s", "stats", "radicals.p_length", 2),
    ("radicals.self_s", "s", "modules", "radicals", None),
    ("length.kernel_series_s", "s", "stats", "length.kernel_series", 2),
    ("length.kernel_lemma_s", "s", "stats", "length.check_kernel_lemma", 2),
    ("length.self_s", "s", "modules", "length", None),
    ("hall.searches", "count", "stats", "hall.find_hall_subgroup", 0),
    ("hall.repeat_searches", "count", "counters", "hall.repeat_searches", None),
    ("hall.search_total_s", "s", "stats", "hall.find_hall_subgroup", 1),
    ("hall.found_s", "s", "counters", "hall.found_s", None),
    ("hall.proven_absent_s", "s", "counters", "hall.proven_absent_s", None),
    ("hall.unknown_s", "s", "counters", "hall.unknown_s", None),
    ("hall.greedy_steps", "count", "counters", "hall.greedy_steps", None),
    ("hall.self_s", "s", "modules", "hall", None),
    ("verify.report_s", "s", "stats", "verify.compute_invariant_report", 2),
    ("verify.theorem_s", "s", "stats", "verify.verify_theorem", 2),
    ("verify.corollary_s", "s", "stats", "verify.verify_corollary", 2),
    ("verify.chain_s", "s", "stats", "verify.verify_proposition_chain", 2),
    ("verify.self_s", "s", "modules", "verify", None),
)


def per_layer_metrics(trace, untraced, traced):
    """Per-module metrics from a traced run, with the overhead against the
    untraced run of the same inputs."""
    metrics = {}
    for name, unit, source, key, field in PER_LAYER:
        if source == "stats":
            value = trace["stats"].get(key, [0, 0.0, 0.0])[field]
        elif source == "counters":
            value = trace["counters"].get(key, 0)
        else:
            value = trace["module_self_s"].get(key, 0.0)
        metrics[name] = (value, unit)
    searches = metrics["hall.searches"][0]
    found = trace["counters"].get("hall.found_count", 0)
    metrics["hall.found_ratio"] = (found / searches if searches else 0.0, "ratio")
    caches = trace["caches"]
    metrics["cache.hits"] = (sum(row[1] for row in caches), "count")
    metrics["cache.misses"] = (sum(row[2] for row in caches), "count")
    metrics["cache.entries"] = (sum(row[3] for row in caches), "count")
    covered = sum(trace["module_self_s"].values())
    traced_wall = sum(traced["passes"])
    untraced_wall = sum(untraced["passes"])
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.overhead_ref_s"] = (sum(traced["ref_passes"]) - sum(untraced["ref_passes"]), "s")
    metrics["trace.unwrapped_s"] = (traced_wall - covered, "s")
    metrics["trace.spans"] = (trace["spans"], "count")
    return metrics


# ---------------------------------------------------------------------------
# One workload


def check(workload, result, reference):
    """Mark each record `ok` when its reference accepts it; return counts."""
    items = reference[workload]["items"]
    records = result["records"] + result["probes"]
    for record in records:
        record["ok"] = record_ok(record, items.get(record["key"]))
    statuses = [r["hall_status"] for r in records if r.get("hall_status") is not None]
    return {
        "attempted": len(records),
        "not_accepted": sum(1 for r in records if not r["ok"]),
        "raised": sum(1 for r in records if r["error"] is not None),
        "raised_or_rejected": sum(1 for r in records if r["error"] is not None or not r["ok"]),
        "unknown": statuses.count("unknown"),
        "searches": len(statuses),
    }


def run_workload(workload, seed, seconds, trace, reference, deadline):
    out = sys.stdout
    if trace:
        plain = spawn(workload, seed, seconds, False, deadline=deadline)
        passes = str(len(plain["passes"]))
        result = spawn(workload, seed, seconds, True, ("passes", passes), deadline=deadline)
    else:
        def setup_only():
            return spawn(workload, seed, seconds, False, ("setup",), deadline=deadline)

        # Half the set-up samples before the timed run and half after, so
        # that their median spans the machine's speed over the whole run.
        setups = [setup_only() for _ in range(SETUP_RUNS // 2)]
        result = spawn(workload, seed, seconds, False, deadline=deadline)
        setups.append(result)
        setups += [setup_only() for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]

    counts = check(workload, result, reference)
    times = [r["seconds"] for r in result["records"]]
    print(f"== {workload}  seed={seed}  passes={len(result['passes'])}  "
          f"items={len(times)}  trace={int(trace)}", file=out)
    for record in result["records"] + result["probes"]:
        verdict = "accepted" if record["ok"] else "NOT ACCEPTED"
        if record["error"] is not None:
            print(f"   item {record['key']}: raised {record['error']} after "
                  f"{record['seconds']:.3f} s [{verdict}]: {record['detail']}", file=out)
        elif not record["ok"]:
            print(f"   item {record['key']}: answer differs from the reference [{verdict}]", file=out)
    attempted = counts["attempted"]
    failing = counts["raised_or_rejected"]
    print(f"   failed_share    {failing / attempted:.4f} ratio  ({failing}/{attempted} "
          f"items raised or not accepted; raised {counts['raised']}, "
          f"not accepted {counts['not_accepted']})", file=out)
    if counts["searches"]:
        print(f"   undecided_share {counts['unknown'] / counts['searches']:.4f} ratio  "
              f"({counts['unknown']}/{counts['searches']} Hall verdicts unknown)", file=out)
    if result["digest"] is not None:
        match = result["digest"] == reference["suite"]["digest"]
        print(f"   suite_json_sha256 {result['digest']}  matches_reference={match}", file=out)

    if trace:
        metrics = per_layer_metrics(result["trace"], plain, result)
        print_trace(result["trace"], file=out)
    else:
        metrics = {
            "wall_ref_s": (statistics.median(result["ref_passes"]), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
            "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        }
        print(f"   wall_s          {statistics.median(result['passes']):.3f} s", file=out)
        print(f"   raw_setup_s     {statistics.median(s['raw_setup_s'] for s in setups):.4f} s",
              file=out)
        if workload in ITEM_METRIC_WORKLOADS:
            pct, tail, beyond = tail_percentile(times)
            print(f"   item_p50_ms     {1000 * statistics.median(times):.3f} ms", file=out)
            print(f"   item_tail_ms    {1000 * tail:.3f} ms  (p{pct} of {len(times)} items, "
                  f"{beyond} above it)", file=out)
    for name, (value, unit) in metrics.items():
        print(f"   {name:34s} {value:14.6f} {unit}", file=out)
    return {
        "correct": counts["not_accepted"] == 0,
        "attempted": attempted,
        "failed": counts["not_accepted"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def print_trace(trace, file):
    print("   per-function spans (calls, total s, self s):", file=file)
    for name, (calls, total, own) in sorted(trace["stats"].items(), key=lambda kv: -kv[1][2]):
        print(f"     {name:42s} {calls:9d} {total:10.4f} {own:10.4f}", file=file)
    print("   caches (hits, misses, entries):", file=file)
    for name, hits, misses, entries in trace["caches"]:
        print(f"     {name:42s} {hits:9d} {misses:9d} {entries:9d}", file=file)
    print(f"   spans written to {trace['span_file']}", file=file)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hallbound" / "__init__.py").is_file():
        print(f"error: no hallbound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    deadline = time.monotonic() + DEADLINE_S
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            line = run_workload(name, args.seed, args.seconds, bool(args.trace), reference,
                                None if args.workload == "all" else deadline)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
