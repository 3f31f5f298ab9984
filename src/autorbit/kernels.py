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


def _bezout(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, u) with s*a + u*b = g = gcd(a, b) > 0, for b != 0."""
    s0, s1, r0, r1 = 1, 0, a, b
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if r0 < 0:
        r0, s0 = -r0, -s0
    return r0, s0, (r0 - s0 * a) // b


def _lead(row: list[int]) -> int:
    return abs(row[0])


def snf_diagonal(rows: int, cols: int, entries: Sequence[int]) -> list[int]:
    """Diagonal of the Smith normal form of a rows x cols integer matrix.

    Extended-gcd elimination, after Kannan & Bachem (SIAM J. Comput. 8,
    1979), on the remaining submatrix.  Each step moves the smallest nonzero
    entry a of the first column to the top and clears the column with row
    operations: where a divides an entry b, subtract (b/a) times the top row;
    otherwise replace the pair by the unimodular Bezout pair
    (s*r_top + u*r_b, (a/g)*r_b - (b/g)*r_top), where s*a + u*b = g =
    gcd(a, b), which leaves g as the pivot.  If the pivot then divides the
    rest of its row, column operations would clear that row and touch no
    other, so the pivot is recorded and its row and column dropped;
    otherwise the submatrix is transposed and the step repeats with a
    smaller pivot.  A zero first column is dropped, and a single row or
    column contributes the gcd of its entries.  One pairwise pass then
    repairs the divisibility chain: for each i < j, (d_i, d_j) becomes
    (gcd, lcm), skipped when both are zero.  That keeps the product, moves
    zeros last, and leaves d_i dividing every later entry once row i is
    done.  Entries are returned nonnegative, length min(rows, cols), with
    s_i | s_{i+1} (zeros last).  Raises ValueError for a negative rows or
    cols and for an entry count other than rows * cols.
    """
    if rows < 0 or cols < 0:
        raise ValueError(f"negative matrix size {rows} x {cols}")
    if len(entries) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
    m = [list(entries[r * cols : (r + 1) * cols]) for r in range(rows)]
    k = min(rows, cols)
    diag = []
    while m and m[0]:
        if len(m) == 1 or len(m[0]) == 1:
            diag.append(math.gcd(*m[0]) if len(m) == 1 else math.gcd(*[row[0] for row in m]))
            break
        live = [row for row in m if row[0]]
        if not live:
            m = [row[1:] for row in m]
            continue
        m = [row for row in m if not row[0]]
        live.sort(key=_lead)
        top = live[0]
        a = top[0]
        for row in live[1:]:
            b = row[0]
            q, r = divmod(b, a)
            if r:
                g, s, u = _bezout(a, b)
                ag, bg = a // g, b // g
                top, row = (
                    [s * y + u * z for y, z in zip(top, row)],
                    [ag * z - bg * y for y, z in zip(top, row)],
                )
                a = g
            else:
                row = [z - q * y for y, z in zip(top, row)]
            m.append(row)
        if any(v % a for v in top):
            m = [list(col) for col in zip(top, *m)]
        else:
            diag.append(abs(a))
            m = [row[1:] for row in m]
    diag += [0] * (k - len(diag))
    for i in range(k):
        for j in range(i + 1, k):
            g = math.gcd(diag[i], diag[j])
            if g:
                diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag
