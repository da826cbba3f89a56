"""Exception types shared across the library.

Every guard in the library fails loudly through one of these classes so a
blown budget or a bad input is never silently absorbed.
"""


class GroupError(Exception):
    """Base class for all library-specific failures."""


class DegreeMismatch(GroupError, ValueError):
    """Raised when permutations or groups of different degrees are mixed."""


class CapExceeded(GroupError):
    """An operation would exceed a cap or budget; raised only by check_cap."""

    def __init__(self, message: str, *, needed=None, cap=None):
        super().__init__(message)
        self.needed = needed
        self.cap = cap


def check_cap(needed: int, cap: int, what: str) -> None:
    """Raise CapExceeded exactly when needed > cap; the one place that builds
    one.  what names the operation and the quantity it measures, so the
    message reads "<what> <needed> exceeds cap <cap>"."""
    if needed > cap:
        raise CapExceeded(f"{what} {needed} exceeds cap {cap}", needed=needed, cap=cap)


class SubgroupError(GroupError, ValueError):
    """An argument that must be a subgroup (or normal subgroup) is not."""


class PreconditionError(GroupError, ValueError):
    """An operation's mathematical hypothesis is violated by the input."""
