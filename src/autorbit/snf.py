"""Reference quotient computation through integer Smith normal form.

G / <x> is read off the (k+1) x k matrix whose top row is x written in the
invariant-factor presentation and whose remaining rows are the diagonal of
invariant factors: the nonzero Smith normal form diagonal entries are the
cyclic orders of the quotient.  This path is the correctness baseline the
valuation-sweep path is tested against, and is kept permanently for
benchmarking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import kernels
from .arith import factorize
from .groups import AbelianGroup, CanonicalGroupKey, GroupElement, to_invariant_coordinates


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, row-major, unbounded entries."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Iterable[int]]) -> "IntMatrix":
        data = [tuple(int(v) for v in row) for row in rows]
        ncols = len(data[0]) if data else 0
        if any(len(row) != ncols for row in data):
            raise ValueError("ragged rows")
        return cls(len(data), ncols, tuple(v for row in data for v in row))

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]


def smith_normal_form(A: IntMatrix) -> list[int]:
    """Diagonal s_1, ..., s_min(rows,cols) of the Smith normal form of A.

    Entries are nonnegative and form a divisibility chain s_i | s_{i+1}
    (zeros last).  Uses smallest-magnitude pivoting with a gcd/lcm chain
    repair; see ``kernels.snf_diagonal``.

    >>> smith_normal_form(IntMatrix.from_rows([[1, 2], [2, 0], [0, 4]]))
    [1, 4]
    """
    return kernels.snf_diagonal(A.rows, A.cols, list(A.entries))


def quotient_matrix(G: AbelianGroup, x: GroupElement) -> IntMatrix:
    """The (k+1) x k relation matrix for G / <x> in invariant-factor form.

    Raises DimensionMismatch when x's arity differs from G's, and
    ForeignElement when x belongs to another group (checked by
    to_invariant_coordinates).
    """
    factors = G.invariant_factors
    k = len(factors)
    coords = to_invariant_coordinates(G, x)
    rows = [list(coords)]
    for i, m in enumerate(factors):
        row = [0] * k
        row[i] = m
        rows.append(row)
    return IntMatrix.from_rows(rows)


def quotient_by_snf(G: AbelianGroup, x: GroupElement) -> CanonicalGroupKey:
    """Canonical key of G / <x> via Smith normal form of the relation matrix.

    >>> from .groups import make_group
    >>> G = make_group([2, 4, 8, 8])
    >>> quotient_by_snf(G, G.element([2, 1, 2, 4])).parts
    ((2, (3, 3, 1)),)
    """
    A = quotient_matrix(G, x)
    primary: dict[int, list[int]] = {}
    for s in smith_normal_form(A):
        if s > 1:
            for p, e in factorize(s).items():
                primary.setdefault(p, []).append(e)
    return CanonicalGroupKey.from_map(primary)
