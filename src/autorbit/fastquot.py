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

from operator import sub
from typing import Sequence

from . import kernels
from .arith import nu
from .errors import check_valuations
from .groups import AbelianGroup, CanonicalGroupKey, GroupElement, check_elements


def sylow_decompose(G: AbelianGroup, x: GroupElement) -> dict[int, tuple[list[int], list[int]]]:
    """Per prime dividing |G|, the position-aligned lists (fs, es) of x's
    valuations and the component exponents of the p-primary part.

    The component at position i is C_{p^{e_i}} and x's coordinate there is a
    unit times p^{f_i}, with f_i clamped to e_i for a zero coordinate.
    Raises DimensionMismatch when x's arity differs from G's, and
    ForeignElement when x belongs to another group.

    >>> from .groups import make_group
    >>> G = make_group([2, 4, 8, 8])
    >>> sylow_decompose(G, G.element([2, 1, 2, 4]))
    {2: ([1, 0, 1, 2], [1, 2, 3, 3])}
    >>> sylow_decompose(make_group([6]), make_group([6]).element([3]))
    {2: ([0], [1]), 3: ([1], [1])}
    """
    check_elements(G, x)
    coords = x.coords
    parts = {}
    for p, triples in G._primary.items():
        fs = []
        es = []
        for pos, e, pe in triples:
            r = coords[pos] % pe
            fs.append(nu(p, r) if r else e)
            es.append(e)
        parts[p] = (fs, es)
    return parts


def p_group_quotient(fs: Sequence[int], es: Sequence[int]) -> list[int]:
    """Exponents of a p-group / <element>, descending, zeros dropped.

    ``fs`` and ``es`` are position-aligned valuations and component
    exponents; errors.check_valuations states the errors.

    >>> p_group_quotient([0, 1, 1, 2], [2, 1, 3, 3])
    [3, 3, 1]
    """
    check_valuations(fs, es)
    return sorted(filter(None, kernels.pgroup_sweep(fs, es)), reverse=True)


def canonical_points(fs: Sequence[int], es: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """The non-dominated (valuation, exponent) points of a p-group element,
    which name its automorphic orbit.  Sorted by (f, f - e), a point is kept
    when its gap e - f exceeds every earlier gap, so zero coordinates and
    dominated or repeated points drop out.  errors.check_valuations states
    the errors.

    >>> canonical_points([0, 1, 1, 2, 3], [1, 3, 3, 3, 3])
    ((0, 1), (1, 3))
    """
    check_valuations(fs, es)
    points = []
    low = 0  # the least f - e so far; a point is kept when its f - e is lower
    for f, d, e in sorted(zip(fs, map(sub, fs, es), es)):
        if d < low:
            low = d
            points.append((f, e))
    return tuple(points)


def quotient(G: AbelianGroup, x: GroupElement) -> CanonicalGroupKey:
    """Canonical key of G / <x> via the per-prime valuation sweep.

    >>> from .groups import make_group
    >>> G = make_group([2, 4, 8, 8])
    >>> quotient(G, G.element([2, 1, 2, 4])).parts
    ((2, (3, 3, 1)),)
    """
    return CanonicalGroupKey.from_map(
        {p: p_group_quotient(fs, es) for p, (fs, es) in sylow_decompose(G, x).items()}
    )
