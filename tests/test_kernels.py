import itertools
import math
import random

import pytest

from autorbit import kernels


def test_snf_wide_entries():
    # entries beyond 64 bits stay exact
    big = 2**70
    assert kernels.snf_diagonal(2, 2, [big, 0, 0, big]) == [big, big]


def test_sweep_wide_values():
    fs = [0, 2**70]
    es = [2**70, 2**70 + 1]
    assert kernels.pgroup_sweep(fs, es) == [0, 2**70 + 1]


def test_sweep_tie_handling_matches_stable_sort():
    # the pairs with f = 1 keep their input order: e = 3, 2, 5
    assert kernels.pgroup_sweep([1, 1, 1, 0, 0], [3, 2, 5, 4, 1]) == [0, 1, 3, 2, 5]


def test_sweep_empty():
    assert kernels.pgroup_sweep([], []) == []


@pytest.mark.parametrize("fs, es", [([0, 1], [2]), ([0], [2, 3]), ([], [1])])
def test_pure_sweep_rejects_length_mismatch(fs, es):
    # a short es used to raise IndexError and a long one was truncated
    with pytest.raises(ValueError):
        kernels.pgroup_sweep(fs, es)


def test_snf_zero_matrix():
    assert kernels.snf_diagonal(2, 3, [0] * 6) == [0, 0]
    with pytest.raises(ValueError):
        kernels.snf_diagonal(2, 3, [0] * 5)


def _det(rows):
    """Integer determinant by Laplace expansion along the first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * a * _det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j, a in enumerate(rows[0])
        if a
    )


def _snf_by_determinantal_divisors(rows):
    """The Smith diagonal from its definition: s_1 ... s_k is the gcd of the
    k x k minors, so s_k = D_k / D_{k-1}, and s_k = 0 once D_k = 0."""
    n_rows, n_cols = len(rows), len(rows[0])
    diag, previous = [], 1
    for k in range(1, min(n_rows, n_cols) + 1):
        d_k = math.gcd(*(
            _det([[rows[i][j] for j in cs] for i in rs])
            for rs in itertools.combinations(range(n_rows), k)
            for cs in itertools.combinations(range(n_cols), k)
        ))
        diag.append(d_k // previous if d_k else 0)
        previous = d_k or previous
    return diag


def test_snf_matches_determinantal_divisors():
    rng = random.Random(23)
    pool = [0, 0, 1, -1, 2, -3, 4, 6, -12, 2**70, -(2**70), 3 * 2**70]
    for _ in range(2000):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        rows = [
            [rng.choice(pool) if rng.random() < 0.5 else rng.randint(-20, 20) for _ in range(c)]
            for _ in range(r)
        ]
        entries = [v for row in rows for v in row]
        assert kernels.snf_diagonal(r, c, entries) == _snf_by_determinantal_divisors(rows), rows


def test_snf_divisibility_repair_moves_zeros_last():
    # a diagonal matrix needs no elimination, only the divisibility repair
    assert kernels.snf_diagonal(3, 3, [0, 0, 0, 0, 6, 0, 0, 0, 4]) == [2, 12, 0]
    assert kernels.snf_diagonal(3, 3, [0, 0, 0, 0, 0, 0, 0, 0, 5]) == [5, 0, 0]
    assert kernels.snf_diagonal(3, 3, [9, 0, 0, 0, 6, 0, 0, 0, 4]) == [1, 6, 36]
