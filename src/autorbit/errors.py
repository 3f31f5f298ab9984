"""Exception types shared across the package, and its one capacity check.

Every capped entry point (the orbit builders in ``orbits`` and the
brute-force routines in ``oracle``) calls ``check_cap`` before any costly or
cached work, and nothing else raises CapacityExceeded.  A cap below 1 is a
ValueError; DEFAULT_CAP is every entry point's default.
"""

from typing import Iterable

DEFAULT_CAP = 10_000_000


class AutorbitError(Exception):
    """Base class for all package-specific errors."""


class NonPositiveModulus(AutorbitError):
    """A cyclic order in a group presentation was zero or negative."""


class FactorizationFailure(AutorbitError):
    """A composite cofactor resisted the configured factorization budget."""


class InvalidValuation(AutorbitError):
    """A coordinate valuation is negative or exceeds its component exponent."""


class DimensionMismatch(AutorbitError):
    """An element's arity does not match its group's."""


class ForeignElement(AutorbitError):
    """An element belongs to a group other than the one it is used with."""


class CapacityExceeded(AutorbitError):
    """An enumeration would exceed the configured cap."""


def check_cap(cap: int, counts: Iterable[int], what: str) -> None:
    """ValueError for a cap below 1, then CapacityExceeded as soon as the
    running product of the lazily read counts of `what` passes the cap.  The
    message names `what` and the cap, never the product, which may be too
    long to print."""
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    total = 1
    for n in counts:
        total *= n
        if total > cap:
            raise CapacityExceeded(f"{what} over cap {cap}")
