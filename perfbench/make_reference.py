#!/usr/bin/env python3
"""Freeze reference.json: the seed-independent answer to every item.

Run from the root of a checkout of the commit whose answers are to be
frozen:

    python3 perfbench/make_reference.py

Each workload runs one pass at two non-zero seeds.  Every item must give the
same answer at both seeds and in every relabelled copy, or the script stops
without writing anything.  The suite digest is the sha256 of the reports as
``hallbound suite --scale 3 --json`` prints them; it must agree too.

The probe groups S10 and A10 stop with a typed CapExceeded.  Their
``completes`` entries are what a complete computation must return, derived
by hand rather than computed: the p-soluble radical is trivial, the socle is
the single factor A10, the p-kernel is the whole group (one socle factor is
normalized by everything), so the kernel series has one term, the lemma
holds with a soluble outer quotient (C2 or trivial), and h* is 2 for S10
(F* = A10, then S10/A10 = C2) and 1 for A10.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS, spawn  # noqa: E402

SEEDS = (1, 2)

PROBE_ORDERS = {"S10": 3628800, "A10": 1814400}
PROBE_HEIGHTS = {"S10": 2, "A10": 1}


def probe_completion(spec):
    order = PROBE_ORDERS[spec]
    answers = [{
        "p": p,
        "kernel_orders": [order],
        "socle_factor_counts": [1],
        "lemma_holds": True,
        "lemma_kernel_order": order,
        "lemma_kernel_length": 1,
        "lemma_outer_soluble": True,
    } for p in (3, 5, 7)]
    return answers + [{"gfh": PROBE_HEIGHTS[spec]}]


def outcome(record):
    if record["error"] is not None:
        return {"raises": record["error"]}
    return record["answer"]


def main():
    reference = {}
    for workload in WORKLOADS:
        items: dict = {}
        digests = set()
        for seed in SEEDS:
            result = spawn(workload, seed, 0, False)
            for record in result["records"] + result["probes"]:
                answer = outcome(record)
                if items.setdefault(record["key"], answer) != answer:
                    raise SystemExit(f"{workload}: {record['key']} differs across seeds or copies")
            digests.add(result["digest"])
            print(f"{workload} seed {seed}: {len(result['records'])} items", file=sys.stderr)
        if len(digests) != 1:
            raise SystemExit(f"{workload}: suite digest differs across seeds")
        for spec in PROBE_ORDERS:
            if "raises" in items.get(spec, {}):
                items[spec]["completes"] = probe_completion(spec)
        entry = {"items": items}
        if workload == "suite":
            entry["digest"] = digests.pop()
        reference[workload] = entry
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
