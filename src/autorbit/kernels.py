"""The two hot loops: the valuation sweep and integer-matrix diagonalization.

Both work on unbounded Python integers.  ``fastquot`` and ``snf`` call them
through this module's attributes (``kernels.pgroup_sweep``), so a tracer can
rebind those attributes to time them.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Sequence


def active_backend() -> str:
    """Always 'pure'; kept because the benchmark stamps it on every run."""
    return "pure"


def compiled_available() -> bool:
    """Always False; kept because the benchmark stamps it on every run."""
    return False


def pgroup_sweep(fs: Sequence[int], es: Sequence[int]) -> list[int]:
    """Quotient exponents of a p-group by one cyclic subgroup, from valuations.

    Processes the (f, e) pairs in ascending order of f (stable) while keeping a
    running carry: at each pair f is bumped by the carry, the carry grows by
    max(0, e - f), and min(f, e) survives.  Survivors are returned in
    processing order; zeros are NOT dropped here.  Raises ValueError when fs
    and es differ in length.
    """
    carry = 0
    out = []
    for f, e in sorted(zip(fs, es, strict=True), key=itemgetter(0)):
        f += carry
        if e > f:
            carry += e - f
            out.append(f)
        else:
            out.append(e)
    return out


def _smallest_pivot(m: list[list[int]], t: int, rows: int, cols: int):
    best = None
    best_abs = None
    for i in range(t, rows):
        row = m[i]
        for j in range(t, cols):
            v = row[j]
            if v:
                a = -v if v < 0 else v
                if best_abs is None or a < best_abs:
                    best, best_abs = (i, j), a
                    if a == 1:
                        return best
    return best


def snf_diagonal(rows: int, cols: int, entries: Sequence[int]) -> list[int]:
    """Diagonal of the Smith normal form of a rows x cols integer matrix.

    Smallest-magnitude pivoting diagonalizes the matrix with unimodular
    row/column operations; a pairwise gcd/lcm pass then repairs the
    divisibility chain.  Entries are returned nonnegative, length
    min(rows, cols), with s_i | s_{i+1} (zeros last).
    """
    if len(entries) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
    m = [list(entries[r * cols : (r + 1) * cols]) for r in range(rows)]
    k = min(rows, cols)
    for t in range(k):
        while True:
            pivot = _smallest_pivot(m, t, rows, cols)
            if pivot is None:
                break
            pi, pj = pivot
            if pi != t:
                m[t], m[pi] = m[pi], m[t]
            if pj != t:
                for row in m:
                    row[t], row[pj] = row[pj], row[t]
            piv = m[t][t]
            dirty = False
            for i in range(t + 1, rows):
                q = m[i][t] // piv
                if q:
                    row_i, row_t = m[i], m[t]
                    for j in range(t, cols):
                        row_i[j] -= q * row_t[j]
                if m[i][t]:
                    dirty = True
            for j in range(t + 1, cols):
                q = m[t][j] // piv
                if q:
                    for row in m:
                        row[j] -= q * row[t]
                if m[t][j]:
                    dirty = True
            if not dirty:
                break
    diag = [abs(m[i][i]) for i in range(k)]
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if a == 0 and b == 0:
                continue
            if a != 0 and b % a == 0:
                continue
            g = math.gcd(a, b)
            diag[i], diag[i + 1] = g, a * b // g
            changed = True
    return diag
