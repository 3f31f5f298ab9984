"""Decide whether two elements are automorphic images of each other.

Some automorphism maps x to y exactly when G/<x> and G/<y> are isomorphic, so
the decision reduces to comparing canonical quotient keys.  An order pre-check
short-circuits the common negative case: automorphisms preserve order, and the
quotients already differ in cardinality when the orders differ.
"""

from __future__ import annotations

from . import fastquot, snf
from .groups import AbelianGroup, CanonicalGroupKey, GroupElement, check_elements, element_order

METHODS = ("fast", "snf")


def quotient_key(G: AbelianGroup, x: GroupElement, method: str = "fast") -> CanonicalGroupKey:
    """Canonical key of G / <x> via the chosen path ('fast' or 'snf').

    Both paths agree on every input; the switch exists for cross-validation
    and benchmarking.  Raises DimensionMismatch when x's arity differs from
    G's, and ForeignElement when x belongs to another group.
    """
    if method == "fast":
        return fastquot.quotient(G, x)
    if method == "snf":
        return snf.quotient_by_snf(G, x)
    raise ValueError(f"method must be one of {METHODS}, got {method!r}")


def are_automorphic(
    G: AbelianGroup, x: GroupElement, y: GroupElement, method: str = "fast"
) -> bool:
    """True iff some automorphism of G maps x to y.

    Raises ValueError for an unknown method, DimensionMismatch when an
    element's arity differs from G's, and ForeignElement when an element of
    matching arity belongs to another group.

    >>> from .groups import make_group
    >>> G = make_group([4, 4])
    >>> are_automorphic(G, G.element([1, 0]), G.element([0, 3]))
    True
    >>> G2 = make_group([2, 4])
    >>> are_automorphic(G2, G2.element([1, 0]), G2.element([0, 2]))
    False
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    check_elements(G, x, y)
    if element_order(x) != element_order(y):
        return False
    return quotient_key(G, x, method) == quotient_key(G, y, method)
