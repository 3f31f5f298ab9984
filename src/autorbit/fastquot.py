"""Quotients by cyclic subgroups via per-prime valuation sweeps.

The group splits into its p-primary parts (coprime orders quotient
independently), and within one p-primary part the quotient by the cyclic
subgroup generated by x depends only on the valuations of x's coordinates:
unit multipliers are automorphic no-ops.  A single pass over the
valuation/exponent pairs, sorted by valuation and carrying a running
suffix-add, yields the quotient's exponents in O(k log k).

Zero coordinates are handled by clamping the valuation to the component
exponent, which is equivalent to removing the component and reattaching it to
the quotient (the carry term max(0, e - f) vanishes and min(f, e) = e).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .arith import nu
from .errors import InvalidValuation
from .groups import AbelianGroup, CanonicalGroupKey, GroupElement, check_elements


@dataclass(frozen=True)
class PPrimaryPart:
    """One p-primary component of a group together with an element's valuations.

    ``pairs`` holds position-aligned (f_i, e_i): the component is C_{p^{e_i}}
    and the element's coordinate there is a unit times p^{f_i}, with f_i = e_i
    for a zero coordinate.
    """

    prime: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for f, e in self.pairs:
            if e < 1:
                raise ValueError(f"component exponent must be >= 1, got {e}")
            if f < 0 or f > e:
                raise InvalidValuation(f"valuation {f} outside [0, {e}]")

    def exponents(self) -> tuple[int, ...]:
        return tuple(e for _, e in self.pairs)

    def valuations(self) -> tuple[int, ...]:
        return tuple(f for f, _ in self.pairs)


def normalize_element_valuations(G: AbelianGroup, x: GroupElement, p: int) -> PPrimaryPart:
    """Valuations of x's coordinates inside the p-primary part of G.

    For each coordinate whose order p divides, f_i is the p-adic valuation of
    the coordinate's residue mod p^{e_i}, clamped to e_i when that residue is
    zero; unit multipliers are discarded.

    >>> from .groups import make_group
    >>> G = make_group([2, 4, 8, 8])
    >>> part = normalize_element_valuations(G, G.element([2, 1, 2, 4]), 2)
    >>> part.valuations(), part.exponents()
    ((1, 0, 1, 2), (1, 2, 3, 3))
    """
    triples = G._primary.get(p)
    if not triples:
        raise ValueError(f"{p} does not divide the group order")
    pairs = []
    for pos, e, pe in triples:
        r = x.coords[pos] % pe
        pairs.append(((e if r == 0 else nu(p, r)), e))
    return PPrimaryPart(p, tuple(pairs))


def sylow_decompose(G: AbelianGroup, x: GroupElement) -> dict[int, PPrimaryPart]:
    """Split G and x into p-primary parts, one PPrimaryPart per prime dividing |G|.

    Raises DimensionMismatch when x's arity differs from G's, and
    ForeignElement when x belongs to another group.

    >>> from .groups import make_group
    >>> G = make_group([6])
    >>> {p: part.pairs for p, part in sylow_decompose(G, G.element([3])).items()}
    {2: ((0, 1),), 3: ((1, 1),)}
    """
    check_elements(G, x)
    return {p: normalize_element_valuations(G, x, p) for p in G.primes()}


def p_group_quotient(part: PPrimaryPart) -> list[int]:
    """Exponents of (p-primary part) / <element>, descending, zeros dropped.

    >>> p_group_quotient(PPrimaryPart(2, ((0, 2), (1, 1), (1, 3), (2, 3))))
    [3, 3, 1]
    """
    pairs = part.pairs
    survivors = kernels.pgroup_sweep([f for f, _ in pairs], [e for _, e in pairs])
    return sorted(filter(None, survivors), reverse=True)


def quotient(G: AbelianGroup, x: GroupElement) -> CanonicalGroupKey:
    """Canonical key of G / <x> via the per-prime valuation sweep.

    >>> from .groups import make_group
    >>> G = make_group([2, 4, 8, 8])
    >>> quotient(G, G.element([2, 1, 2, 4])).parts
    ((2, (3, 3, 1)),)
    """
    primary = {}
    for p, part in sylow_decompose(G, x).items():
        exps = p_group_quotient(part)
        if exps:
            primary[p] = exps
    return CanonicalGroupKey.from_map(primary)
