"""Decide whether two elements are automorphic images of each other.

Some automorphism maps x to y exactly when G/<x> and G/<y> are isomorphic, so
the decision reduces to comparing canonical quotient keys.  A decision ends in
one of three ways:

- **order mismatch**: automorphisms preserve order, and the quotients already
  differ in cardinality when the orders differ, so the answer is False;
- **equal point sets**: at each prime the quotient depends only on the set of
  an element's (valuation, exponent) points (their non-dominated points,
  ``fastquot.canonical_points``, are a function of the set), so when x and y
  have the same set at every prime the answer is True with no key built;
- **key comparison**: otherwise the two canonical quotient keys decide.
"""

from __future__ import annotations

from math import gcd

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

    The decision ends at the first of three checks that settles it, on either
    method: unequal element orders (False), equal per-prime point sets (True),
    or the comparison of the two quotient keys.

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
    if _equal_point_sets(G, x.coords, y.coords):
        return True
    return quotient_key(G, x, method) == quotient_key(G, y, method)


def _equal_point_sets(G: AbelianGroup, xs: tuple[int, ...], ys: tuple[int, ...]) -> bool:
    """True when x and y have the same set of (p^f, p^e) points at every prime
    of G, which makes them automorphic; False at the first prime that differs.

    The whole-element profile, the set of (d_i, gcd(c_i, d_i)), is compared
    first: it fixes every coordinate's valuation at every prime, so equal
    profiles give equal point sets without a walk over the primes.
    """
    mods = G.moduli
    if set(zip(mods, map(gcd, xs, mods))) == set(zip(mods, map(gcd, ys, mods))):
        return True
    for triples in G._primary.values():
        x_points = {(gcd(xs[i], pe), pe) for i, _, pe in triples}
        if x_points != {(gcd(ys[i], pe), pe) for i, _, pe in triples}:
            return False
    return True
