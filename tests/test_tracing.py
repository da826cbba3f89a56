"""The benchmark's tracer still finds what it wraps.

perfbench/tracing.py patches QuotientMap.__init__ on the class and reads
the new map's target degree; a rename or a constructor that moved would
leave its quotient metrics silently at zero.  The module is loaded from its
file and only used, never changed.
"""

import importlib.util

import hallbound as hb
from conftest import SRC
from hallbound import PrimeSet, clear_caches, compute_invariant_report, make_named

TRACING = SRC.parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_the_coset_actions_of_s4_and_uninstalls():
    # S4's report builds two coset actions, of index 2 and 6, both in the
    # generalized Fitting tower
    g = make_named("S4")
    init = hb.QuotientMap.__dict__["__init__"]
    tracer = _load_tracing().Tracer(hb)
    clear_caches()
    tracer.install()
    try:
        compute_invariant_report("S4", g, PrimeSet([2, 3]), 3)
    finally:
        tracer.uninstall()
    assert tracer.stats["quotient.QuotientMap"][0] == 2
    assert tracer.counters["quotient.degree_sum"] == 8
    assert hb.QuotientMap.__dict__["__init__"] is init
