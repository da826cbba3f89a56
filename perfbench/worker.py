"""Run one workload in this (fresh, single-threaded) process and print JSON.

Started by ``run.py``; not meant to be run by hand.  Arguments:

    worker.py WORKLOAD SEED SECONDS TRACE SPAWNED_AT [setup | passes N]

SPAWNED_AT is the parent's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is shared by all processes on Linux), so the set-up
time covers interpreter start, import, group construction and relabelling.
Set-up is scaled to reference speed like the passes, by reference slices
timed as soon as the worker starts and again once the inputs are built.
With ``setup`` the worker stops at the first item and reports only that;
with ``passes N`` it runs exactly N passes whatever SECONDS says.

Items run one after another in a closed loop with one caller.  Passes repeat,
each on fresh relabelled copies, while another pass of median length still
fits in SECONDS; there is always at least one pass.  A pass's time is the
sum of its items' times; a reference slice runs between steps, outside them,
and, in untraced runs, inside every step at a fixed interval.
Between passes every ``lru_cache`` is cleared, so each pass starts from the
heap of a fresh process.  Peak memory is read after the last pass, before
the ``kernel`` probes run.
"""

from __future__ import annotations

import hashlib
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _suite_digest(hb, results):
    """sha256 of the reports serialized exactly as `suite --json` prints them."""
    payload = {
        "schema": hb.verify.SCHEMA_VERSION,
        "scale": 3,
        "reports": [r.to_dict() for r in results],
    }
    text = json.dumps(payload, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


# The reference slice: a fixed pure-Python loop that uses no hallbound
# code.  The speed of a shared virtual machine drifts by 20-40% within
# seconds; timed between and inside steps, the slice tracks that speed, and
# each step's time is scaled by REF_SLICE_S over the mean of the slices
# around and inside it.
_REF_PERM = tuple((7 * i + 3) % 64 for i in range(64))
REF_SLICE_ROUNDS = 400
REF_SLICE_S = 0.001


def reference_slice(clock):
    x = _REF_PERM
    start = clock()
    for _ in range(REF_SLICE_ROUNDS):
        x = tuple(x[i] for i in _REF_PERM)
    return clock() - start


# Set-up is scaled by the median of this many slices at its start and as
# many at its end.
SETUP_SLICES = 5


def setup_slices():
    return [reference_slice(time.perf_counter) for _ in range(SETUP_SLICES)]


# A `kernel` step runs for up to seconds, longer than the machine keeps one
# speed, so slices at its ends alone would miss drift inside it.  An interval
# timer runs a slice inside each step this often; the slices' own time,
# signal handling included, is taken out of the step's time.  Traced runs
# leave the timer off, because its handler would run inside the spans.
IN_STEP_INTERVAL_S = 0.1


class _InStepSlices:
    """SIGALRM handler: time a reference slice and what it cost the step."""

    def __init__(self):
        self.slices = []
        self.cost = 0.0

    def __call__(self, signum, frame):
        start = time.perf_counter()
        self.slices.append(reference_slice(time.perf_counter))
        self.cost += time.perf_counter() - start


def _run_pass(items, tracer, offset):
    """Time every step of every item; return (records, step results)."""
    clock = time.perf_counter
    interval = IN_STEP_INTERVAL_S if tracer is None else 0.0
    in_step = _InStepSlices()
    signal.signal(signal.SIGALRM, in_step)
    records = []
    results = []
    slice_before = reference_slice(clock)
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.item = offset + index
        seconds = ref_seconds = 0.0
        outputs = []
        error = None
        for step in item.steps:
            in_step.slices, in_step.cost = [], 0.0
            t0 = clock()
            signal.setitimer(signal.ITIMER_REAL, interval, interval)
            try:
                outputs.append(step())
            except Exception as exc:  # every failure is recorded against the item
                error = exc
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            elapsed = clock() - t0 - in_step.cost
            slice_after = reference_slice(clock)
            seconds += elapsed
            slices = [slice_before, slice_after, *in_step.slices]
            ref_seconds += elapsed * REF_SLICE_S / statistics.fmean(slices)
            slice_before = slice_after
            if error is not None:
                break
        records.append({
            "key": item.key, "kind": item.kind, "seconds": seconds, "ref_seconds": ref_seconds,
            "error": None if error is None else type(error).__name__,
            "detail": None if error is None else str(error),
        })
        results.append(None if error is not None else outputs)
    return records, results


def _check_found(hb, item, result):
    """For a found Hall subgroup, whether it is one, checked outside timing."""
    if result.subgroup is None:
        return None
    return hb.is_hall_subgroup(result.subgroup, item.group, result.pi)


def _fill_answers(hb, items, records, results):
    for item, record, result in zip(items, records, results):
        if record["error"] is not None:
            continue
        record["answer"] = item.answer(result)
        if item.kind == "hall":
            record["hall_verified"] = _check_found(hb, item, result[0])
            record["hall_status"] = result[0].status
        elif item.kind == "report":
            record["hall_status"] = result[0].hall_status


def main(argv):
    workload, seed, seconds, trace, spawned_at = argv[:5]
    seed, seconds, trace, spawned_at = int(seed), float(seconds), trace == "1", float(spawned_at)
    setup_only = argv[5:] == ["setup"]
    fixed_passes = int(argv[6]) if argv[5:6] == ["passes"] else None

    sliced_at = time.monotonic()
    slices = setup_slices()
    slice_cost = time.monotonic() - sliced_at
    import hallbound as hb

    import workloads

    items = workloads.build_items(hb, workload, seed, 0)
    raw_setup_s = time.monotonic() - spawned_at - slice_cost
    slices += setup_slices()
    setup_s = raw_setup_s * REF_SLICE_S / statistics.median(slices)
    if setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    from tracing import Tracer, cached_functions

    tracer = Tracer(hb) if trace else None
    caches = cached_functions(hb)
    # name -> [hits, misses, entries], summed over passes
    cache_rows = {name: [0, 0, 0] for name, _ in caches}

    passes = []
    ref_passes = []
    records = []
    digest = None
    pass_index = 0
    while True:
        before = {name: fn.cache_info() for name, fn in caches}
        if tracer is not None:
            tracer.install()
        pass_records, results = _run_pass(items, tracer, len(records))
        if tracer is not None:
            tracer.uninstall()
        for name, fn in caches:
            info, row = fn.cache_info(), cache_rows[name]
            row[0] += info.hits - before[name].hits
            row[1] += info.misses - before[name].misses
            row[2] += info.currsize
        _fill_answers(hb, items, pass_records, results)
        if workload == "suite" and pass_index == 0 and all(r is not None for r in results):
            digest = _suite_digest(hb, [r[0] for r in results])
        for record in pass_records:
            record["pass"] = pass_index
        passes.append(sum(r["seconds"] for r in pass_records))
        ref_passes.append(sum(r["ref_seconds"] for r in pass_records))
        records.extend(pass_records)
        if fixed_passes is not None:
            if len(passes) == fixed_passes:
                break
        elif sum(passes) + statistics.median(passes) > seconds:
            break
        pass_index += 1
        # The next pass's keys are new, so this pass's results and cache
        # entries would only hold memory and make the peak grow with the
        # pass count.
        del results
        for _, fn in caches:
            fn.cache_clear()
        items = workloads.build_items(hb, workload, seed, pass_index)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    probes = []
    if workload == "kernel":
        probe_items = workloads.kernel_items(hb, seed, 0, workloads.KERNEL_PROBES)
        probes, probe_results = _run_pass(probe_items, None, 0)
        _fill_answers(hb, probe_items, probes, probe_results)

    out = {
        "workload": workload,
        "seed": seed,
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "passes": passes,
        "ref_passes": ref_passes,
        "records": records,
        "probes": probes,
        "digest": digest,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        out["trace"] = {
            "stats": {name: list(v) for name, v in sorted(tracer.stats.items())},
            "counters": dict(tracer.counters),
            "module_self_s": dict(tracer.module_self_times()),
            "caches": [[name, *row] for name, row in sorted(cache_rows.items())],
            "spans": len(tracer.spans),
        }
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{workload}.tsv"
        tracer.write_spans(span_file)
        out["trace"]["span_file"] = str(span_file.relative_to(HERE.parent))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
