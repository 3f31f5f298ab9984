"""Integer arithmetic substrate: primality, factorization, valuations, CRT.

Everything here is a pure function on unbounded integers.  Factorization
strips the primes below a small fixed bound by trial division, and
Brent-cycle Pollard rho finds every larger prime factor, which comfortably
covers inputs to ~10**20 and beyond.
The internal factorization cache (an ``lru_cache``) is safe for concurrent
readers and writers.
"""

from __future__ import annotations

import math
import operator
import random
from functools import lru_cache

from .errors import FactorizationFailure

# Trial division strips the prime factors below this bound, and rho finds
# every larger one.  The bound sits where a wheel sweep and a rho split cost
# about the same per small factor (cold factorize, 2-CPU machine, Python
# 3.11): 600 products of primes below 720 took 17 ms at 2**10 but 21 ms at
# 2**9 and 33 ms at 2**8, while p*q with p near 10**4 and q near 10**9 took
# 0.42 ms at 2**10, 0.60 ms at 2**12 and 5.6 ms at 10**5, since the sweep
# runs to the bound before rho starts.
TRIAL_DIVISION_BOUND = 2**10

# Sufficient deterministic Miller-Rabin witnesses for n < 3.317e24 (so in
# particular for everything below 2**64).
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981
_RANDOM_ROUNDS = 40

DEFAULT_RHO_ITERATIONS = 2_000_000
DEFAULT_RHO_RESTARTS = 24


def is_prime(n: int) -> bool:
    """Primality test: deterministic below ~3.3e24, 40-round probabilistic
    above.  Raises TypeError for an n that is not an integer."""
    n = operator.index(n)
    if n < 2:
        return False
    for p in _DETERMINISTIC_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    witnesses: tuple[int, ...] = _DETERMINISTIC_WITNESSES
    if n >= _DETERMINISTIC_LIMIT:
        rng = random.Random(n)
        witnesses = witnesses + tuple(
            rng.randrange(2, n - 1) for _ in range(_RANDOM_ROUNDS)
        )
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int, rng: random.Random, max_iterations: int) -> int | None:
    """One Pollard rho attempt (Brent cycle detection) with a randomized
    polynomial x^2 + c.  Returns a nontrivial factor or None on budget
    exhaustion / bad luck."""
    y = rng.randrange(1, n)
    c = rng.randrange(1, n)
    m = 128
    g = r = q = 1
    x = ys = y
    iterations = 0
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += m
            iterations += m
            if iterations > max_iterations:
                return None
        r *= 2
    if g == n:
        # backtrack one step at a time
        while True:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
            if g > 1:
                break
    return g if g != n else None


def _split(n: int, max_iterations: int, max_restarts: int) -> int:
    """Find some nontrivial factor of composite n."""
    rng = random.Random(n)
    for _ in range(max_restarts):
        g = _brent_rho(n, rng, max_iterations)
        if g is not None and 1 < g < n:
            return g
    raise FactorizationFailure(
        f"cofactor {n} resisted {max_restarts} Pollard rho attempts"
    )


def _factor_into(n: int, out: dict[int, int], max_iterations: int, max_restarts: int) -> None:
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    g = _split(n, max_iterations, max_restarts)
    _factor_into(g, out, max_iterations, max_restarts)
    _factor_into(n // g, out, max_iterations, max_restarts)


def _trial_divide(n: int, out: dict[int, int]) -> int:
    """Strip the prime factors below the trial bound; returns the cofactor,
    whose prime factors are left to rho."""
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    # wheel over 6k+-1; covers every prime below the trial bound
    d = 7
    while d <= TRIAL_DIVISION_BOUND and d * d <= n:
        for step in (0, 4):
            q = d + step
            while n % q == 0:
                n //= q
                out[q] = out.get(q, 0) + 1
        d += 6
    return n


@lru_cache(maxsize=65536)
def _factorize_cached(n: int, iterations: int, restarts: int) -> tuple[tuple[int, int], ...]:
    out: dict[int, int] = {}
    rest = _trial_divide(n, out)
    _factor_into(rest, out, iterations, restarts)
    return tuple(sorted(out.items()))


def factorize(
    n: int,
    *,
    max_rho_iterations: int = DEFAULT_RHO_ITERATIONS,
    max_rho_restarts: int = DEFAULT_RHO_RESTARTS,
) -> dict[int, int]:
    """Complete prime factorization of n >= 1 as an ordered prime -> multiplicity map.

    >>> factorize(1)
    {}
    >>> factorize(64)
    {2: 6}
    >>> factorize(10**20)
    {2: 20, 5: 20}

    Raises FactorizationFailure if a composite cofactor survives the rho
    budget (unreachable in practice below ~10**20 with the defaults),
    TypeError for an n that is not an integer, and ValueError for n < 1 or a
    budget below 1.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    if max_rho_iterations < 1 or max_rho_restarts < 1:
        raise ValueError(f"rho budgets must be >= 1, got {max_rho_iterations} and {max_rho_restarts}")
    return dict(_factorize_cached(n, max_rho_iterations, max_rho_restarts))


def nu(p: int, m: int) -> int:
    """p-adic valuation: the largest k with p**k dividing m (p >= 2, m >= 1).

    >>> nu(2, 8)
    3
    >>> nu(3, 8)
    0
    """
    if m < 1 or p < 2:
        raise ValueError(f"nu requires p >= 2 and m >= 1, got p={p}, m={m}")
    k = 0
    while m % p == 0:
        m //= p
        k += 1
    return k


def crt(congruences: list[tuple[int, int]]) -> int:
    """Combine pairwise-coprime congruences [(modulus, residue), ...] into the
    unique residue modulo the product.  Empty input yields 0."""
    m, r = 1, 0
    for mod, res in congruences:
        # r + m*t == res (mod mod)  =>  t == (res - r) * m^{ -1 } (mod mod)
        t = ((res - r) * pow(m, -1, mod)) % mod
        r += m * t
        m *= mod
    return r % m
