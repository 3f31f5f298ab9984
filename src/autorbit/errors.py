"""Exception types shared across the package, and its two input checks.

``check_cap``: every capped entry point (the orbit builders in ``orbits`` and
the brute-force routines in ``oracle``) calls it before any costly or cached
work, and nothing else raises CapacityExceeded.  A cap that is not an
integer is a TypeError and a cap below 1 a ValueError; DEFAULT_CAP is every
entry point's default.

``check_valuations``: every entry point that takes per-prime (valuation,
exponent) pairs (``fastquot.p_group_quotient``, ``fastquot.canonical_points``,
``orbits.ReducedForm.realize`` and ``orbits.p_group_orbits``) calls it before
any work, and nothing else raises InvalidValuation.
"""

from itertools import accumulate
from operator import index, mul
from typing import Iterable, Sequence

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
    """TypeError for a cap that is not an integer, ValueError for a cap below
    1, then CapacityExceeded as soon as the running product of the lazily
    read counts of `what` passes the cap.  The message names `what` and the
    cap, never the product, which may be too long to print."""
    cap = index(cap)
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    for total in accumulate(counts, mul):
        if total > cap:
            raise CapacityExceeded(f"{what} over cap {cap}")


def check_valuations(fs: Sequence[int], es: Sequence[int]) -> None:
    """The contract for position-aligned valuations fs and component
    exponents es of one p-group: TypeError for a value that is not an
    integer (or for lists that have no length, such as iterators, which the
    check would use up), ValueError for an exponent below 1 or lists of
    unequal length, and InvalidValuation for a valuation outside [0, e] (e
    itself stands for a zero coordinate)."""
    if len(fs) != len(es):
        raise ValueError(f"{len(fs)} valuations for {len(es)} exponents")
    for f, e in zip(fs, es):
        # one chained comparison per valid pair; a failing pair is sorted out
        # below, its non-integers first
        if not 0 <= index(f) <= index(e) or e < 1:
            if index(e) < 1:
                raise ValueError(f"component exponent must be >= 1, got {e}")
            raise InvalidValuation(f"valuation {f} outside [0, {e}]")
