"""Reference quotient computation through integer Smith normal form.

G / <x> is read off the (k+1) x k matrix whose top row is x written in the
invariant-factor presentation and whose remaining rows are the diagonal of
invariant factors: the nonzero Smith normal form diagonal entries are the
cyclic orders of the quotient.  This path is the correctness baseline the
valuation-sweep path is tested against, and is kept permanently for
benchmarking.
"""

from __future__ import annotations

import operator
from typing import Sequence

from . import kernels
# factorize is not called here; perfbench's tracer binds snf.factorize
from .arith import factorize, nu
from .groups import AbelianGroup, CanonicalGroupKey, GroupElement, to_invariant_coordinates


def smith_normal_form(rows: Sequence[Sequence[int]]) -> list[int]:
    """Diagonal s_1, ..., s_min(rows,cols) of the Smith normal form of the
    integer matrix with the given rows.

    Entries are nonnegative and form a divisibility chain s_i | s_{i+1}
    (zeros last).  Uses smallest-magnitude pivoting with a gcd/lcm chain
    repair; see ``kernels.snf_diagonal``.  Raises ValueError for ragged rows
    and TypeError for a non-integral entry.

    >>> smith_normal_form([[1, 2], [2, 0], [0, 4]])
    [1, 4]
    """
    cols = len(rows[0]) if rows else 0
    if any(len(row) != cols for row in rows):
        raise ValueError("ragged rows")
    return kernels.snf_diagonal(len(rows), cols, [operator.index(v) for row in rows for v in row])


def quotient_matrix(G: AbelianGroup, x: GroupElement) -> list[list[int]]:
    """The (k+1) x k relation matrix for G / <x> in invariant-factor form.

    Raises DimensionMismatch when x's arity differs from G's, and
    ForeignElement when x belongs to another group (checked by
    to_invariant_coordinates).
    """
    rows = [list(to_invariant_coordinates(G, x))]
    for i, m in enumerate(G.invariant_factors):
        row = [0] * G.rank
        row[i] = m
        rows.append(row)
    return rows


def quotient_by_snf(G: AbelianGroup, x: GroupElement) -> CanonicalGroupKey:
    """Canonical key of G / <x> via Smith normal form of the relation matrix.
    Every diagonal entry divides the exponent of G, so the key splits the
    diagonal by G's primes and factors nothing.

    >>> from .groups import make_group
    >>> G = make_group([2, 4, 8, 8])
    >>> quotient_by_snf(G, G.element([2, 1, 2, 4])).parts
    ((2, (3, 3, 1)),)
    """
    diag = smith_normal_form(quotient_matrix(G, x))
    return CanonicalGroupKey.from_map({p: [nu(p, s) for s in diag] for p in G.primes()})
