"""Workload inputs for the hallbound benchmark.

Each workload is a list of items.  An item is a short fixed sequence of
steps, each one call into the public ``hallbound`` API, together with a
``key`` that names it independently of the seed and an ``answer`` function
that extracts the seed-independent part of its step results for the
reference check.

The seed relabels the points of every group by a seeded permutation of its
domain.  Relabelling leaves every answer the benchmark checks unchanged, but
it changes the generator tuples, so no ``lru_cache`` entry keyed by a group
carries across seeds, copies or passes.  Seed 0, copy 0, pass 0 is the
identity, so ``suite`` at seed 0 is exactly ``hallbound suite --scale 3``.
"""

from __future__ import annotations

import random
from collections import namedtuple

# Kernel workload: groups whose kernel series is expensive for different
# reasons (quotient degree, long element lists, product structure).  No Hall
# search runs on them.
KERNEL_GROUPS = (
    "A5 x D12",
    "PSL(2,7) x S3",
    "S5 x S3",
    "A5 x SL(2,3)",
    "A8",
    "PSL(2,7) wr C2",
    "A6 x A5",
)

# Groups of order above the enumeration cap.  At the time the benchmark was
# defined they stop with CapExceeded in well under a second.  They run after
# the timed pass, so finishing them later adds no time to `kernel.wall_s`.
KERNEL_PROBES = ("S10", "A10")

# Hall workload: (spec, pi) pairs that have a Hall pi-subgroup, on both sides
# of the 20,000 exhaustive-search order cap.
HALL_FOUND_PAIRS = tuple(
    [(spec, (2, 3)) for spec in (
        "S4 x D10", "S4 x S3 x C5", "C2 wr A5", "A5 wr C2", "A5 x S4",
        "PSL(2,7)", "PSL(2,11)", "PSL(2,13)", "S7", "A7", "A8",
        "PSL(2,7) wr C2", "A5 wr C3", "S5 wr C2",
    )]
    + [(spec, (2, 5)) for spec in (
        "S4 x D10", "SL(2,3) x D10", "D20 x S3", "S4 x S3 x C5",
    )]
    + [(spec, (2, 3, 5)) for spec in ("PSL(2,11)", "S7", "A7")]
)

# Relabelled copies of every hall_found pair in one pass.
HALL_FOUND_COPIES = 24

WORKLOADS = ("suite", "kernel", "hall_found")


# One timed unit of work: `steps` are thunks run in order; `answer` maps the
# list of their results to the seed-independent part the reference holds;
# `group` is the input group.
Item = namedtuple("Item", "key kind steps answer group")


def relabel(hb, g, tag):
    """g with its points renamed by a permutation seeded from `tag`.

    A tag of None returns g itself.  The new generators are the conjugates
    of the old ones by the renaming, so the group is isomorphic to g as a
    permutation group and every invariant is unchanged.
    """
    if tag is None:
        return g
    n = g.degree
    sigma = list(range(n))
    random.Random(tag).shuffle(sigma)
    gens = []
    for x in g.generators:
        images = [0] * n
        for i, image in enumerate(x.images):
            images[sigma[i]] = sigma[image]
        gens.append(hb.Permutation(images))
    return hb.PermGroup(n, gens)


def _tag(seed, pass_index, copy, spec):
    if seed == 0 and pass_index == 0 and copy == 0:
        return None
    return f"{seed}:{pass_index}:{copy}:{spec}"


def report_answer(results):
    """Seed-independent content of an InvariantReport, with the route flag."""
    (report,) = results
    data = report.to_dict()
    data["corollary_route"] = report.corollary_route
    return data


def hall_answer(results):
    (result,) = results
    order = result.subgroup.order() if result.subgroup is not None else None
    return {"status": result.status, "order": order}


def suite_items(hb, seed, pass_index):
    """Every (G, pi, p) instance of the scale-3 suite, in the CLI's order."""
    instances = []
    for spec in hb.suite_specs(3):
        g = relabel(hb, hb.group_from_spec(spec), _tag(seed, pass_index, 0, spec))
        for pi, p in hb.valid_instances(g):
            instances.append((spec, g, pi, p))
    instances.sort(key=lambda item: (item[0], tuple(item[2]), item[3]))
    items = []
    for spec, g, pi, p in instances:
        key = f"{spec} pi={','.join(map(str, pi))} p={p}"
        items.append(Item(
            key, "report",
            (lambda spec=spec, g=g, pi=pi, p=p: hb.compute_invariant_report(spec, g, pi, p),),
            report_answer, g,
        ))
    return items


def _kernel_group_item(hb, spec, seed, pass_index):
    """One step per odd prime p dividing |G|, kernel_series then
    check_kernel_lemma, and a last step for generalized_fitting_height."""
    g = relabel(hb, hb.group_from_spec(spec), _tag(seed, pass_index, 0, spec))
    primes = [p for p in hb.prime_divisors(g.order()) if p != 2]

    def kernel_step(p):
        series = hb.kernel_series(g, p)
        lemma = hb.check_kernel_lemma(g, p)
        return {
            "p": p,
            "kernel_orders": [k.order() for k in series.kernels],
            "socle_factor_counts": list(series.socle_factor_counts),
            "lemma_holds": lemma.holds,
            "lemma_kernel_order": lemma.kernel.order(),
            "lemma_kernel_length": lemma.kernel_length,
            "lemma_outer_soluble": lemma.outer_soluble,
        }

    steps = [lambda p=p: kernel_step(p) for p in primes]
    steps.append(lambda: {"gfh": hb.generalized_fitting_height(g).height})
    return Item(spec, "kernel", tuple(steps), list, g)


def kernel_items(hb, seed, pass_index, specs=KERNEL_GROUPS):
    """One item per group, in the order listed."""
    return [_kernel_group_item(hb, spec, seed, pass_index) for spec in specs]


def hall_found_items(hb, seed, pass_index):
    """find_hall_subgroup on every pair, copy-major, so that consecutive
    items never share a group."""
    items = []
    for copy in range(HALL_FOUND_COPIES):
        for spec, primes in HALL_FOUND_PAIRS:
            pi = hb.PrimeSet(primes)
            g = relabel(hb, hb.group_from_spec(spec),
                        _tag(seed, pass_index, copy, f"{spec}/{primes}"))
            key = f"{spec} pi={','.join(map(str, primes))}"
            items.append(Item(
                key, "hall",
                (lambda g=g, pi=pi: hb.find_hall_subgroup(g, pi),),
                hall_answer, g,
            ))
    return items


def build_items(hb, workload, seed, pass_index):
    if workload == "suite":
        return suite_items(hb, seed, pass_index)
    if workload == "kernel":
        return kernel_items(hb, seed, pass_index)
    if workload == "hall_found":
        return hall_found_items(hb, seed, pass_index)
    raise ValueError(f"unknown workload {workload!r}")
