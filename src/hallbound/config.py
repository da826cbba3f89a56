"""Runtime budgets and seeds.

All caps can be read at call time so the environment variables take effect
without re-importing.  HALLBOUND_CAP bounds element enumeration for the
brute-force operations; HALLBOUND_SEED fixes the seed used by the randomized
Hall-subgroup search and any sampled harvesting.
"""

import os

DEFAULT_ENUMERATION_CAP = 1_000_000
DEFAULT_QUOTIENT_DEGREE_CAP = 20_000
DEFAULT_EXHAUSTIVE_SEARCH_CAP = 20_000
LATTICE_ORDER_CAP = 2_000
DEFAULT_SEED = 0

# Budgets for bounded searches that are not element enumerations.
BLOCK_SYSTEM_BUDGET = 500
NORMAL_LATTICE_BUDGET = 5_000
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


def search_seed() -> int:
    """Seed for randomized searches, overridable via HALLBOUND_SEED."""
    raw = os.environ.get("HALLBOUND_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"HALLBOUND_SEED must be an integer, got {raw!r}") from exc
