"""Per-module tracing of hallbound, installed from outside the package.

Nothing under ``src/`` changes.  ``Tracer.install`` replaces every public
function of the traced modules at every module binding that refers to it:
``from .radicals import sylow_subgroup`` copies the function into ``hall``,
so patching ``radicals`` alone would miss the calls made from ``hall``.
``StabChain.__init__``, ``QuotientMap.__init__`` and
``PermGroup.element_list`` are wrapped on their classes.  Two hot methods,
``PermGroup.contains`` and ``PermGroup.elements``, only count: a span per
call would swamp the trace.  ``perm``, ``primes``, ``corpus``, ``config``
and ``cli`` are not wrapped.

Each wrapped call is a span with an id, its parent span and the current item
id.  Spans stay in memory and are written out when the run ends.  Self time
is a span's duration minus the durations of its direct children, so the self
times of all spans add up to the time covered by top-level spans, and the
traced pass time minus that is the unwrapped remainder.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

TRACED_MODULES = ("group", "quotient", "structure", "radicals", "length", "hall", "verify")


def _is_public_function(module, name, obj):
    if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
        return False
    return getattr(obj, "__module__", None) == module.__name__


def cached_functions(hb):
    """(name, function) for every lru_cache'd public function of the traced
    modules, sorted by name."""
    found = []
    for short in TRACED_MODULES:
        module = sys.modules[f"{hb.__name__}.{short}"]
        for name, obj in vars(module).items():
            if _is_public_function(module, name, obj) and hasattr(obj, "cache_info"):
                found.append((f"{short}.{name}", obj))
    return sorted(found, key=lambda pair: pair[0])


class Tracer:
    """Spans and counters for one process; install around the timed passes."""

    def __init__(self, hb):
        self.hb = hb
        self.item = -1
        self.spans: list[tuple] = []
        self.stack: list[list] = []
        # name -> [calls, total seconds, self seconds]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self.hall_seen: set = set()
        self._restore: list[tuple] = []
        self._next_id = 0
        self._modules = [sys.modules[f"{hb.__name__}.{m}"] for m in TRACED_MODULES]
        prefix = f"{hb.__name__}."
        self._namespaces = [hb] + [
            module for name, module in sorted(sys.modules.items()) if name.startswith(prefix)
        ]

    # -- wrapping --------------------------------------------------------

    def _span(self, name, fn, after=None):
        stats = self.stats
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                record = stats[name]
                record[0] += 1
                record[1] += duration
                record[2] += own
                spans.append((span_id, parent, self.item, name, start, end))
            if after is not None:
                after(args, result, own)
            return result

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        hb = self.hb
        for module in self._modules:
            short = module.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(module).items()):
                if not _is_public_function(module, name, obj):
                    continue
                after = self._after_hall if (short, name) == ("hall", "find_hall_subgroup") else None
                wrapper = self._span(f"{short}.{name}", obj, after)
                for ns in self._namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is obj:
                            self._set(ns, bound, wrapper)

        counters = self.counters

        def after_chain(args, result, own):
            degree = args[1]
            counters["group.chain_points"] += degree
            counters["group.chain_max_degree"] = max(counters["group.chain_max_degree"], degree)

        def after_quotient(args, result, own):
            degree = args[0].target.degree
            counters["quotient.degree_sum"] += degree
            counters["quotient.degree_max"] = max(counters["quotient.degree_max"], degree)

        self._set(hb.StabChain, "__init__",
                  self._span("group.StabChain", hb.StabChain.__init__, after_chain))
        self._set(hb.QuotientMap, "__init__",
                  self._span("quotient.QuotientMap", hb.QuotientMap.__init__, after_quotient))
        self._set(hb.PermGroup, "element_list",
                  self._span("group.element_list", hb.PermGroup.element_list))

        contains = hb.PermGroup.contains
        elements = hb.PermGroup.elements

        def counted_contains(group, p):
            counters["group.contains_calls"] += 1
            return contains(group, p)

        def counted_elements(group):
            for x in elements(group):
                counters["group.elements_enumerated"] += 1
                yield x

        self._set(hb.PermGroup, "contains", counted_contains)
        self._set(hb.PermGroup, "elements", counted_elements)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _after_hall(self, args, result, own):
        g, pi = args[0], args[1]
        key = (g, tuple(pi))
        if key in self.hall_seen:
            self.counters["hall.repeat_searches"] += 1
        self.hall_seen.add(key)
        self.counters[f"hall.{result.status}_s"] += own
        self.counters[f"hall.{result.status}_count"] += 1
        self.counters["hall.greedy_steps"] += result.budget_used.get("random_growth_steps", 0)

    # -- reporting -------------------------------------------------------

    def module_self_times(self):
        totals: dict[str, float] = defaultdict(float)
        for name, (_, _, own) in self.stats.items():
            totals[name.split(".", 1)[0]] += own
        return totals

    def write_spans(self, path):
        """One tab-separated line per span: id, parent, item, name, start, end."""
        with open(path, "w") as out:
            out.write("id\tparent\titem\tname\tstart_s\tend_s\n")
            for span_id, parent, item, name, start, end in self.spans:
                out.write(f"{span_id}\t{parent}\t{item}\t{name}\t{start:.9f}\t{end:.9f}\n")
