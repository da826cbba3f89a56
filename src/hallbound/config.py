"""Runtime budgets and the search seed.

The enumeration cap is read at call time so HALLBOUND_CAP takes effect
without re-importing; it bounds element enumeration for the brute-force
operations.  SEARCH_SEED fixes the randomized Hall-subgroup search, the
one randomized step, so every answer is the same on every run.
"""

import os

DEFAULT_ENUMERATION_CAP = 1_000_000
DEFAULT_QUOTIENT_DEGREE_CAP = 20_000
SEARCH_SEED = 0

# Budget for the one bounded search that is not an element enumeration.
SYLOW_COMBINATION_BUDGET = 200_000


def enumeration_cap() -> int:
    """Element-enumeration budget, overridable via HALLBOUND_CAP."""
    raw = os.environ.get("HALLBOUND_CAP")
    if raw is None:
        return DEFAULT_ENUMERATION_CAP
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"HALLBOUND_CAP must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"HALLBOUND_CAP must be positive, got {value}")
    return value
