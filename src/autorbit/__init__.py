"""Finite abelian groups: automorphic equivalence, quotients, and orbits.

Two elements of a finite abelian group are automorphic images of each other
exactly when the quotients by the cyclic subgroups they generate are
isomorphic.  This package decides that criterion two independent ways (a
per-prime valuation sweep and a Smith-normal-form reference), enumerates all
automorphic orbits with exact sizes, and ships a brute-force oracle plus a
benchmark harness comparing the two paths.
"""

from .arith import factorize, is_prime, nu, phi_prime_power
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
from .fastquot import (
    PPrimaryPart,
    normalize_element_valuations,
    p_group_quotient,
    quotient,
    sylow_decompose,
)
from .groups import (
    AbelianGroup,
    CanonicalGroupKey,
    GroupElement,
    element_order,
    make_group,
    to_invariant_coordinates,
)
from .oracle import (
    EndomorphismTable,
    aut_order_homocyclic,
    brute_orbits,
    brute_quotient_key,
    enumerate_automorphisms,
    is_automorphic_image_bruteforce,
)
from .orbits import (
    OrbitSummary,
    ReducedForm,
    enumerate_orbits,
    p_group_orbits,
    reduced_form,
)
from .snf import IntMatrix, quotient_by_snf, smith_normal_form

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "AutorbitError",
    "CanonicalGroupKey",
    "CapacityExceeded",
    "DimensionMismatch",
    "EndomorphismTable",
    "FactorizationFailure",
    "ForeignElement",
    "GroupElement",
    "IntMatrix",
    "InvalidValuation",
    "NonPositiveModulus",
    "OrbitSummary",
    "PPrimaryPart",
    "ReducedForm",
    "are_automorphic",
    "aut_order_homocyclic",
    "brute_orbits",
    "brute_quotient_key",
    "element_order",
    "enumerate_automorphisms",
    "enumerate_orbits",
    "factorize",
    "is_automorphic_image_bruteforce",
    "is_prime",
    "make_group",
    "normalize_element_valuations",
    "nu",
    "p_group_orbits",
    "p_group_quotient",
    "phi_prime_power",
    "quotient",
    "quotient_by_snf",
    "quotient_key",
    "reduced_form",
    "smith_normal_form",
    "sylow_decompose",
    "to_invariant_coordinates",
]
