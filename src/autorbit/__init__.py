"""Finite abelian groups: automorphic equivalence, quotients, and orbits.

Two elements of a finite abelian group are automorphic images of each other
exactly when the quotients by the cyclic subgroups they generate are
isomorphic.  This package decides that criterion two independent ways (a
per-prime valuation sweep and a Smith-normal-form reference), enumerates all
automorphic orbits with exact sizes, and ships a brute-force oracle that
checks both.

The package exports the documented entry points.  The oracle, the
Smith-normal-form route, the kernels and the per-prime helpers are imported
from their submodules (``autorbit.oracle``, ``autorbit.snf``,
``autorbit.kernels``, ``autorbit.fastquot``, ``autorbit.orbits``).
"""

from .arith import factorize
from .equivalence import are_automorphic, quotient_key
from .errors import (
    AutorbitError,
    CapacityExceeded,
    DimensionMismatch,
    FactorizationFailure,
    ForeignElement,
    InvalidValuation,
    NonPositiveModulus,
)
from .groups import AbelianGroup, CanonicalGroupKey, GroupElement, element_order, make_group
from .orbits import OrbitSummary, ReducedForm, enumerate_orbits, reduced_form

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "AutorbitError",
    "CanonicalGroupKey",
    "CapacityExceeded",
    "DimensionMismatch",
    "FactorizationFailure",
    "ForeignElement",
    "GroupElement",
    "InvalidValuation",
    "NonPositiveModulus",
    "OrbitSummary",
    "ReducedForm",
    "are_automorphic",
    "element_order",
    "enumerate_orbits",
    "factorize",
    "make_group",
    "quotient_key",
    "reduced_form",
]
