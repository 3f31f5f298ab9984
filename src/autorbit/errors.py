"""Exception types shared across the package."""


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
