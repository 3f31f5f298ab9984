import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from autorbit.arith import (
    TRIAL_DIVISION_BOUND,
    _trial_divide,
    crt,
    factorize,
    is_prime,
    nu,
)
from autorbit.errors import FactorizationFailure

# the reference orbit sizes in _support multiply these counts
from _support import phi_prime_power

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]
# primes between the trial-division bound (2**10) and 10**6, which rho has
# to find
RHO_PRIMES = [1031, 7919, 65537, 104_729, 999_983]


def test_factorize_examples():
    assert factorize(1) == {}
    assert factorize(64) == {2: 6}
    assert 2**20 * 5**20 == 10**20
    assert factorize(10**20) == {2: 20, 5: 20}


def test_factorize_orders_keys():
    assert list(factorize(2 * 3 * 5 * 7 * 11)) == [2, 3, 5, 7, 11]


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)


# 8.0 used to give {2: 3}, and 2000006.0 and 6.5 a bare TypeError from pow
@pytest.mark.parametrize("n", [8.0, 2000006.0, 6.5])
def test_factorize_rejects_non_integers(n):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        factorize(n)


@pytest.mark.parametrize("n", [7.0, 2.5, 1e30])
def test_is_prime_rejects_non_integers(n):
    # 7.0 used to be prime
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        is_prime(n)


def test_factorize_large_semiprime_via_rho():
    p, q = 1_000_000_007, 1_000_000_009
    assert is_prime(p) and is_prime(q)
    assert factorize(p * q) == {p: 1, q: 1}


def test_factorize_exhausted_budget_fails_loudly():
    p, q = 1_000_000_000_039, 1_000_000_000_061
    assert is_prime(p) and is_prime(q)
    with pytest.raises(FactorizationFailure):
        factorize(p * q, max_rho_iterations=50, max_rho_restarts=1)


def test_trial_division_leaves_factors_above_the_bound_to_rho():
    p, q = 104_729, 999_983
    out: dict[int, int] = {}
    assert _trial_divide(p * q, out) == p * q
    assert out == {}
    assert _trial_divide(720 * p * q, out) == p * q
    assert out == {2: 4, 3: 2, 5: 1}
    assert TRIAL_DIVISION_BOUND < min(RHO_PRIMES)


@pytest.mark.parametrize("p", RHO_PRIMES)
@pytest.mark.parametrize("k", [2, 3, 4])
def test_factorize_prime_powers_above_trial_bound(p, k):
    assert is_prime(p)
    assert factorize(p**k) == {p: k}


def test_factorize_mixed_products_above_trial_bound():
    rng = random.Random(20)
    primes = [n for n in range(1025, 10**6, 997) if is_prime(n)]
    for _ in range(60):
        p, q = rng.sample(primes, 2)
        k = rng.randrange(2, 5)
        small = rng.choices(SMALL_PRIMES, k=rng.randrange(4))
        expected = {p: k, q: 1}
        for r in small:
            expected[r] = expected.get(r, 0) + 1
        n = p**k * q * math.prod(small)
        assert factorize(n) == dict(sorted(expected.items())), n


@pytest.mark.parametrize("n", [2**64 - 59, 10**20 - 11])
def test_factorize_20_digit_prime(n):
    assert len(str(n)) == 20 and is_prime(n)
    assert factorize(n) == {n: 1}


def test_factorize_two_primes_near_ten_to_the_ten():
    p, q = 10**10 + 19, 10**10 + 33
    assert is_prime(p) and is_prime(q)
    assert factorize(p * q) == {p: 1, q: 1}
    assert factorize(6 * p * q**2) == {2: 1, 3: 1, p: 1, q: 2}


@pytest.mark.parametrize("budget", [{"max_rho_iterations": 0}, {"max_rho_restarts": 0}])
def test_factorize_rejects_zero_budget(budget):
    # a zero budget used to run the default one
    with pytest.raises(ValueError):
        factorize(1_000_000_000_039 * 1_000_000_000_061, **budget)


@given(
    st.lists(
        st.sampled_from(SMALL_PRIMES).flatmap(
            lambda p: st.tuples(st.just(p), st.integers(1, 5))
        ),
        max_size=6,
    )
)
def test_factorize_round_trip(prime_powers):
    expected: dict[int, int] = {}
    n = 1
    for p, e in prime_powers:
        expected[p] = expected.get(p, 0) + e
        n *= p**e
    assert factorize(n) == dict(sorted(expected.items()))


def test_nu_examples():
    assert nu(2, 8) == 3
    assert nu(3, 8) == 0
    # a base below 2 raises rather than looping (1, -1) or dividing by zero (0)
    for p, m in [(2, 0), (1, 5), (-1, 5), (0, 5)]:
        with pytest.raises(ValueError):
            nu(p, m)
    # repeated-division check
    m, count = 12, 0
    while m % 2 == 0:
        m //= 2
        count += 1
    assert count == 2
    assert nu(2, 12) == 2


@given(st.sampled_from(SMALL_PRIMES), st.integers(1, 10**9))
def test_nu_shift_property(p, m):
    assert nu(p, m * p) == nu(p, m) + 1


@pytest.mark.parametrize("p,k", [(2, 10), (3, 7), (7, 5), (31, 3), (997, 2)])
def test_phi_prime_power_matches_brute_count(p, k):
    assert p**k <= 10**6
    brute = sum(1 for i in range(1, p**k + 1) if i % p)
    assert phi_prime_power(p, k) == brute


def test_phi_prime_power_rejects_zero_k():
    with pytest.raises(ValueError):
        phi_prime_power(2, 0)


def test_is_prime_against_sieve():
    limit = 10_000
    sieve = [True] * (limit + 1)
    sieve[0] = sieve[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            for j in range(i * i, limit + 1, i):
                sieve[j] = False
    for n in range(limit + 1):
        assert is_prime(n) == sieve[n], n


def test_is_prime_known_large():
    assert is_prime(2**61 - 1)
    assert not is_prime((2**31 - 1) * (2**61 - 1))


@given(
    st.lists(st.sampled_from([4, 9, 25, 7, 11, 13]), unique=True, max_size=4),
    st.randoms(use_true_random=False),
)
def test_crt_round_trip(moduli, rng):
    congruences = [(m, rng.randrange(m)) for m in moduli]
    x = crt(congruences)
    for m, r in congruences:
        assert x % m == r
    total = math.prod(moduli) if moduli else 1
    assert 0 <= x < max(total, 1)
