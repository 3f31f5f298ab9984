import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _support import groups_up_to
from autorbit import arith
from autorbit.groups import element_order, make_group
from autorbit.oracle import brute_quotient_key
from autorbit.snf import quotient_by_snf, quotient_matrix, smith_normal_form

matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-50, 50), min_size=c, max_size=c), min_size=r, max_size=r
        )
    )
)


def _det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det(minor)
    return total


def test_snf_already_diagonal_with_zero_row():
    assert smith_normal_form([[0, 0, 0], [2, 0, 0], [0, 4, 0], [0, 0, 8]]) == [2, 4, 8]


def test_snf_small_example_against_coset_oracle():
    assert smith_normal_form([[1, 2], [2, 0], [0, 4]]) == [1, 4]
    # the same data as a quotient: (C2+C4)/<(1,2)> identified by coset census
    G = make_group([2, 4])
    key = brute_quotient_key(G, G.element([1, 2]))
    assert key.primary_parts == {2: (2,)}


def test_snf_worked_quotient_matrix():
    G = make_group([2, 4, 8, 8])
    x = G.element([2, 1, 2, 4])
    A = quotient_matrix(G, x)
    assert len(A) == 5 and all(len(row) == 4 for row in A)
    assert A[0] == [0, 1, 2, 4]  # first coordinate reduced mod 2
    diag = smith_normal_form(A)
    assert diag == [1, 2, 8, 8]
    assert [s for s in diag if s > 1] == [2, 8, 8]
    assert quotient_by_snf(G, x).primary_parts == {2: (3, 3, 1)}


def test_quotient_by_snf_cyclic_by_generator():
    G = make_group([4])
    assert quotient_by_snf(G, G.element([1])).is_trivial()


def test_quotient_by_snf_by_identity():
    G = make_group([2, 4])
    assert quotient_by_snf(G, G.element([0, 0])).primary_parts == {2: (2, 1)}


def test_quotient_by_snf_trivial_group():
    G = make_group([1])
    assert quotient_by_snf(G, G.identity()).is_trivial()


@given(matrices)
def test_snf_divisibility_chain(A):
    diag = smith_normal_form(A)
    assert len(diag) == min(len(A), len(A[0]))
    assert all(s >= 0 for s in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0


@given(
    st.integers(3, 4).flatmap(
        lambda n: st.lists(st.integers(-20, 20), min_size=n * n, max_size=n * n).map(
            lambda ent: (n, ent)
        )
    )
)
def test_snf_preserves_determinant_up_to_sign(case):
    n, entries = case
    A = [entries[i * n : (i + 1) * n] for i in range(n)]
    assert math.prod(smith_normal_form(A)) == abs(_det(A))


def test_quotient_order_conservation_exhaustive_small():
    for G in groups_up_to(32):
        for x in G.elements():
            key = quotient_by_snf(G, x)
            assert key.order() == G.order // element_order(x)


@pytest.mark.parametrize("mods", [[10000], [100, 100], [16, 625], [9, 11, 101]])
def test_quotient_order_conservation_larger(mods):
    G = make_group(mods)
    for coords in [
        [0] * len(mods),
        [1] * len(mods),
        [d - 1 for d in mods],
        [d // 2 for d in mods],
        [3 % d for d in mods],
    ]:
        x = G.element(coords)
        assert quotient_by_snf(G, x).order() == G.order // element_order(x)


def test_smith_normal_form_validation():
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2], [3]])
    with pytest.raises(TypeError):  # used to be truncated to [2, 4]
        smith_normal_form([[2.9, 0], [0, 4.5]])


def test_snf_agrees_on_raw_vs_invariant_presentation():
    # building the relation matrix from the invariant-factor presentation is a
    # choice; the quotient key must match what the raw presentation gives
    for mods in [(6, 4), (2, 2, 9), (12, 10)]:
        G = make_group(mods)
        for x in G.elements():
            raw_rows = [list(x.coords)]
            for i, d in enumerate(G.moduli):
                row = [0] * len(G.moduli)
                row[i] = d
                raw_rows.append(row)
            raw_diag = smith_normal_form(raw_rows)
            raw_orders = sorted(s for s in raw_diag if s > 1)
            key_orders = sorted(quotient_by_snf(G, x).elementary_divisors())
            # raw diagonal entries need not be prime powers, so compare keys
            from autorbit.arith import factorize
            from autorbit.groups import CanonicalGroupKey

            primary: dict[int, list[int]] = {}
            for s in raw_orders:
                for p, e in factorize(s).items():
                    primary.setdefault(p, []).append(e)
            assert CanonicalGroupKey.from_map(primary) == quotient_by_snf(G, x)
            assert key_orders == sorted(quotient_by_snf(G, x).elementary_divisors())


def test_snf_keys_leave_the_factorize_cache_alone():
    # each diagonal entry used to go through arith.factorize, whose
    # process-wide cache kept every new entry: verify's memory grew per pass
    rng = random.Random(64)
    G = make_group([math.prod(p ** rng.randint(0, 2) for p in (2, 3, 5, 7)) for _ in range(64)])
    before = arith._factorize_cached.cache_info().currsize
    for _ in range(6):
        x = G.element([rng.randrange(d) for d in G.moduli])
        assert quotient_by_snf(G, x).order() == G.order // element_order(x)
    assert arith._factorize_cached.cache_info().currsize == before
