"""Enumerate the automorphic orbits of a finite abelian group.

Within one p-primary part, every element is automorphic to its reduced form
(p^{b_1}, ..., p^{b_n}) with 0 <= b_i <= e_i (b_i = e_i standing for the zero
coordinate), and two reduced forms share an orbit exactly when they have the
same non-dominated (b_i, e_i) points (fastquot.canonical_points), which name
the orbit.  Iterating the prod(e_i + 1) reduced forms in odometer order and
bucketing them by that name yields the per-prime orbits; the number of
ordinary elements sharing a reduced form is the product over coordinates of
phi(p^{e_i - b_i}) (one, for a zero coordinate), read from a per-exponent
table.  Each orbit's quotient key comes from one valuation sweep of its first
form.  Orbits of the whole group are Cartesian products of per-prime orbits,
with multiplying sizes and concatenated quotient keys.

Enumeration is capped (default 10**7 combined reduced forms) and fails loudly
with CapacityExceeded rather than hang.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import defaultdict
from operator import getitem

from .arith import crt, is_prime, phi_prime_power
from .errors import CapacityExceeded, DimensionMismatch, InvalidValuation
from .fastquot import canonical_points, p_group_quotient, sylow_decompose
from .groups import AbelianGroup, CanonicalGroupKey, GroupElement, Record

DEFAULT_ENUMERATION_CAP = 10_000_000


class ReducedForm(Record):
    """Per-prime exponent tuples (b_1, ..., b_n) naming the element whose
    p-primary coordinates are (p^{b_1}, ..., p^{b_n}); sorted by prime."""

    __slots__ = ("parts",)
    parts: tuple[tuple[int, tuple[int, ...]], ...]

    def realize(self, G: AbelianGroup) -> GroupElement:
        """The concrete element of G this reduced form names.

        Raises DimensionMismatch unless the form's primes, in order, are G's
        primes and each per-prime arity is G's, InvalidValuation for an
        exponent b outside [0, e], and TypeError for a non-integral b.
        """
        primes = tuple(p for p, _ in self.parts)
        if primes != G.primes():
            raise DimensionMismatch(f"expected a form over the primes {G.primes()}, got {primes}")
        congruences: list[list[tuple[int, int]]] = [[] for _ in G.moduli]
        for p, bs in self.parts:
            triples = G._primary[p]
            if len(bs) != len(triples):
                raise DimensionMismatch(
                    f"expected {len(triples)} exponents for prime {p}, got {len(bs)}"
                )
            for (pos, e, pe), b in zip(triples, bs):
                b = operator.index(b)
                if b < 0 or b > e:
                    raise InvalidValuation(f"valuation {b} outside [0, {e}]")
                congruences[pos].append((pe, pow(p, b) % pe))
        return GroupElement(G, tuple(crt(c) for c in congruences))


class OrbitSummary(Record):
    """One automorphic orbit: the canonical key of the quotient it corresponds
    to, every reduced form it contains, and its exact element count."""

    __slots__ = ("quotient_key", "representatives", "size")
    quotient_key: CanonicalGroupKey
    representatives: tuple[ReducedForm, ...]
    size: int


def reduced_form(G: AbelianGroup, x: GroupElement) -> ReducedForm:
    """Strip unit multipliers from x: per prime, the coordinate valuations
    (clamped to the exponent for zero coordinates).

    >>> from .groups import make_group
    >>> G = make_group([4, 8])
    >>> reduced_form(G, G.element([3, 6])).parts
    ((2, (0, 1)),)
    """
    # sylow_decompose lists the primes in ascending order
    return ReducedForm(tuple((p, tuple(fs)) for p, (fs, _es) in sylow_decompose(G, x).items()))


def p_group_orbits(
    p: int, exponents: tuple[int, ...], cap: int = DEFAULT_ENUMERATION_CAP
) -> list[OrbitSummary]:
    """Orbits of the p-group with the given component exponents.

    Iterates reduced forms in mixed-radix (odometer) order, buckets them by
    their canonical points, and sums exact element counts; each orbit's key
    is the quotient by its first form.  Output order is first occurrence.
    Raises ValueError when p is not prime or an exponent is below 1.

    >>> [(o.quotient_key.describe_invariant(), o.size) for o in p_group_orbits(2, (2,))]
    [('C1', 2), ('C2', 1), ('C4', 1)]
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if any(e < 1 for e in exponents):
        raise ValueError("component exponents must be >= 1")
    total = math.prod(e + 1 for e in exponents)
    if total > cap:
        raise CapacityExceeded(f"{total} reduced forms exceed cap {cap}")
    # phi[e][b]: elements of C_{p^e} whose reduced coordinate is p^b.
    phi = {e: [phi_prime_power(p, e - b) for b in range(e)] + [1] for e in set(exponents)}
    tables = [phi[e] for e in exponents]
    # canonical points -> reduced forms, in odometer order
    orbits: defaultdict[tuple[tuple[int, int], ...], list] = defaultdict(list)
    for b in itertools.product(*(range(e + 1) for e in exponents)):
        orbits[canonical_points(b, exponents)].append(b)
    return [
        OrbitSummary(
            CanonicalGroupKey.from_map({p: p_group_quotient(forms[0], exponents)}),
            tuple(ReducedForm(((p, b),)) for b in forms),
            sum(math.prod(map(getitem, tables, b)) for b in forms),
        )
        for forms in orbits.values()
    ]


def enumerate_orbits(
    G: AbelianGroup, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[OrbitSummary]:
    """All automorphic orbits of G, with exact sizes summing to |G|.

    Per-prime orbits are combined by Cartesian product: sizes multiply,
    quotient keys concatenate, and representative reduced forms pair up.  The
    combined representative count is exactly prod_i tau(d_i), which is what
    the cap limits.

    >>> from .groups import make_group
    >>> [(o.quotient_key.describe_invariant(), o.size) for o in enumerate_orbits(make_group([6]))]
    [('C1', 2), ('C3', 1), ('C2', 2), ('C6', 1)]
    """
    total_forms = 1
    for p in G.primes():
        total_forms *= math.prod(e + 1 for e in G.primary_exponents(p))
        if total_forms > cap:
            raise CapacityExceeded(f"{total_forms}+ reduced forms exceed cap {cap}")
    per_prime = [p_group_orbits(p, G.primary_exponents(p), cap) for p in G.primes()]
    if len(per_prime) == 1:
        return per_prime[0]
    # Primes ascend and are disjoint, so concatenated parts are canonical.
    rep_parts = [[[rf.parts for rf in o.representatives] for o in orbits] for orbits in per_prime]
    combined = []
    for combo, parts in zip(itertools.product(*per_prime), itertools.product(*rep_parts)):
        combined.append(
            OrbitSummary(
                CanonicalGroupKey(sum((o.quotient_key.parts for o in combo), ())),
                tuple(ReducedForm(sum(row, ())) for row in itertools.product(*parts)),
                math.prod(o.size for o in combo),
            )
        )
    return combined
