"""Answers worked out without the program under test.

The benchmark checks every answer against values computed here. Nothing in
this module imports autorbit, and none of it uses the quotient criterion:

* Automorphic equivalence uses heights instead. In a finite abelian p-group
  two elements are automorphic exactly when their height sequences
  h(x), h(px), h(p^2 x), ... agree (Kaplansky's transitivity theorem for
  finite p-groups). A group splits into its p-primary parts, so two elements
  of any finite abelian group are automorphic exactly when this holds for
  every prime.
* Orbit partitions group the reduced forms of each p-primary part by that
  same height signature. Orbits of the whole group are products of the
  per-prime orbits.

A coordinate's modulus is described by its factorization, a tuple of
(prime, exponent) pairs, so moduli near 10**20 whose factors are known by
construction need no factoring here.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

Factors = tuple[tuple[int, int], ...]

_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# These witnesses make Miller-Rabin exact below this bound.
_WITNESS_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin below about 3.3e24."""
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    if n >= _WITNESS_LIMIT:
        raise ValueError(f"{n} is beyond the deterministic primality bound")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factor_small(n: int) -> Factors:
    """Factorization of a small positive integer by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def modulus(factors: Factors) -> int:
    return math.prod(p**e for p, e in factors)


def valuation(p: int, r: int) -> int:
    k = 0
    while r % p == 0:
        r //= p
        k += 1
    return k


def element_order(moduli: Sequence[int], coords: Sequence[int]) -> int:
    """lcm over coordinates of d / gcd(d, c)."""
    o = 1
    for d, c in zip(moduli, coords):
        step = d // math.gcd(d, c)
        o = o * step // math.gcd(o, step)
    return o


def primes_of(factors: Sequence[Factors]) -> list[int]:
    return sorted({p for fs in factors for p, _ in fs})


def p_pairs(factors: Sequence[Factors], coords: Sequence[int], p: int) -> list[tuple[int, int]]:
    """(valuation, exponent) of each coordinate inside the p-primary part;
    a zero residue has valuation equal to its exponent."""
    out = []
    for fs, c in zip(factors, coords):
        for q, e in fs:
            if q == p:
                r = c % p**e
                out.append((e if r == 0 else valuation(p, r), e))
    return out


def heights(pairs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """Height sequence h(x), h(px), ... of a p-primary element given by its
    (valuation, exponent) pairs, up to the first zero multiple."""
    live = sorted((f, e) for f, e in pairs if f < e)
    out = []
    k = 0
    while live:
        out.append(live[0][0] + k)
        k += 1
        live = [(f, e) for f, e in live if f + k < e]
    return tuple(out)


def signature(factors: Sequence[Factors], coords: Sequence[int]) -> tuple:
    """Per prime, the height sequence of the element's p-primary part."""
    return tuple((p, heights(p_pairs(factors, coords, p))) for p in primes_of(factors))


def automorphic(factors: Sequence[Factors], x: Sequence[int], y: Sequence[int]) -> bool:
    return signature(factors, x) == signature(factors, y)


def histogram(factors: Sequence[Factors], coords: Sequence[int]) -> tuple:
    """Per prime, the sorted multiset of (valuation, exponent) pairs."""
    return tuple((p, tuple(sorted(p_pairs(factors, coords, p)))) for p in primes_of(factors))


def form_count(p: int, forms: tuple[int, ...], exponents: tuple[int, ...]) -> int:
    """Elements whose p-primary coordinates are units times p^b_i."""
    n = 1
    for b, e in zip(forms, exponents):
        if b < e:
            n *= p ** (e - b) - p ** (e - b - 1)
    return n


def p_group_classes(p: int, exponents: tuple[int, ...]) -> dict[tuple[int, ...], tuple[int, int]]:
    """Orbits of the p-group with these cyclic exponents, keyed by height
    sequence: number of reduced forms and number of elements in each.

    Reduced forms (b_1, ..., b_n) with 0 <= b_i <= e_i are walked
    recursively, with the height sequence built from the live pairs.
    """
    out: dict[tuple[int, ...], list[int]] = {}
    n = len(exponents)
    forms = [0] * n

    def walk(i: int) -> None:
        if i == n:
            key = heights(zip(forms, exponents))
            slot = out.setdefault(key, [0, 0])
            slot[0] += 1
            slot[1] += form_count(p, tuple(forms), exponents)
            return
        for b in range(exponents[i] + 1):
            forms[i] = b
            walk(i + 1)

    walk(0)
    return {k: (v[0], v[1]) for k, v in out.items()}


def primary_exponents(factors: Sequence[Factors]) -> dict[int, tuple[int, ...]]:
    """Prime -> position-ordered exponents of the coordinates it divides."""
    out: dict[int, list[int]] = {}
    for fs in factors:
        for p, e in fs:
            out.setdefault(p, []).append(e)
    return {p: tuple(out[p]) for p in sorted(out)}


def crt(parts: Iterable[tuple[int, int]]) -> int:
    """Residue modulo the product of pairwise coprime (modulus, residue) pairs."""
    m, r = 1, 0
    for mod, res in parts:
        t = ((res - r) * pow(m, -1, mod)) % mod
        r += m * t
        m *= mod
    return r % m if m > 1 else 0


def abelian_classes(max_order: int) -> list[tuple[int, ...]]:
    """Elementary divisors (ascending) of every abelian group of order at
    most max_order, one tuple per isomorphism class, by order."""

    def partitions(n: int, largest: int) -> list[tuple[int, ...]]:
        if n == 0:
            return [()]
        return [
            (k,) + rest
            for k in range(min(n, largest), 0, -1)
            for rest in partitions(n - k, k)
        ]

    out = []
    for n in range(1, max_order + 1):
        combos: list[tuple[int, ...]] = [()]
        for p, e in factor_small(n):
            combos = [c + tuple(p**k for k in part) for c in combos for part in partitions(e, e)]
        out.extend(tuple(sorted(c)) for c in combos)
    return out
