"""Shared test helpers: group iteration and small independent oracles."""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from autorbit.arith import factorize, phi_prime_power
from autorbit.fastquot import canonical_points, p_group_quotient
from autorbit.groups import AbelianGroup, CanonicalGroupKey, GroupElement, element_order
from autorbit.orbits import OrbitSummary, ReducedForm


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All descending integer partitions of n."""
    if n == 0:
        return ((),)
    out = []

    def rec(remaining, largest, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(remaining, largest), 0, -1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(n, n, [])
    return tuple(out)


@lru_cache(maxsize=None)
def iso_class_moduli(n: int) -> tuple[tuple[int, ...], ...]:
    """One elementary-divisor presentation per isomorphism class of abelian
    groups of order n (ascending prime-power moduli)."""
    if n == 1:
        return ((),)
    per_prime = []
    for p, e in factorize(n).items():
        per_prime.append([tuple(p**k for k in part) for part in partitions(e)])
    out = []
    for combo in itertools.product(*per_prime):
        out.append(tuple(sorted(itertools.chain.from_iterable(combo))))
    return tuple(out)


def groups_up_to(max_order: int, min_order: int = 1):
    """Every abelian group (one per iso class) with min_order <= |G| <= max_order."""
    for n in range(min_order, max_order + 1):
        for mods in iso_class_moduli(n):
            yield AbelianGroup(mods)


def cyclic_presentations(n: int, smallest: int = 2):
    """All multisets of cyclic orders >= 2 with product n (non-decreasing)."""
    if n == 1:
        yield ()
        return
    d = smallest
    while d * d <= n:
        if n % d == 0:
            for rest in cyclic_presentations(n // d, d):
                yield (d,) + rest
        d += 1
    if n >= smallest:
        yield (n,)


def brute_element_order(x: GroupElement) -> int:
    """Order by repeated addition, independent of the lcm formula."""
    acc = x
    k = 1
    while not acc.is_identity():
        acc = acc + x
        k += 1
    return k


def order_census(G: AbelianGroup) -> dict[int, int]:
    """How many elements of each order; a complete isomorphism invariant for
    finite abelian groups, computed without canonical keys."""
    census: dict[int, int] = {}
    for x in G.elements():
        o = element_order(x)
        census[o] = census.get(o, 0) + 1
    return census


def divisor_count(n: int) -> int:
    """tau(n) by trial division."""
    count = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            count += 2 if d * d != n else 1
        d += 1
    return count


def reference_orbits(G: AbelianGroup) -> list[OrbitSummary]:
    """enumerate_orbits the slow way: one sweep and one canonical key per
    reduced form, per-prime orbits combined by joining their keys.  Same output
    order: orbits by first occurrence, forms in odometer order."""
    per_prime = []
    for p in G.primes():
        exponents = G.primary_exponents(p)
        buckets: dict[CanonicalGroupKey, tuple[list, list]] = {}
        for b in itertools.product(*(range(e + 1) for e in exponents)):
            exps = p_group_quotient(b, exponents)
            key = CanonicalGroupKey.from_map({p: exps})
            count = 1
            for b_i, e_i in zip(b, exponents):
                if b_i != e_i:
                    count *= phi_prime_power(p, e_i - b_i)
            forms, sizes = buckets.setdefault(key, ([], []))
            forms.append(ReducedForm(((p, b),)))
            sizes.append(count)
        per_prime.append(
            [OrbitSummary(k, tuple(forms), sum(sizes)) for k, (forms, sizes) in buckets.items()]
        )
    out = []
    for combo in itertools.product(*per_prime):
        key = CanonicalGroupKey.from_map({p: e for o in combo for p, e in o.quotient_key.parts})
        size = math.prod(o.size for o in combo)
        reps = tuple(
            ReducedForm(tuple(itertools.chain.from_iterable(rf.parts for rf in row)))
            for row in itertools.product(*(o.representatives for o in combo))
        )
        out.append(OrbitSummary(key, reps, size))
    return out


def exponent_multisets(max_forms: int, smallest: int = 1):
    """Every ascending tuple of exponents >= smallest with prod(e + 1) <= max_forms."""
    yield ()
    e = smallest
    while e + 1 <= max_forms:
        for rest in exponent_multisets(max_forms // (e + 1), e):
            yield (e,) + rest
        e += 1


def reference_p_group_orbits(
    p: int, exponents: tuple[int, ...]
) -> tuple[list[OrbitSummary], list[tuple[tuple[int, int], ...]]]:
    """p_group_orbits the slow way, and each orbit's antichain: every reduced
    form bucketed by its canonical points, its element count a product of
    per-coordinate phi values, one sweep of each orbit's first form for the
    key.  Same output order: orbits by first occurrence, forms in odometer
    order."""
    buckets: dict[tuple[tuple[int, int], ...], tuple[list, list]] = {}
    for b in itertools.product(*(range(e + 1) for e in exponents)):
        count = 1
        for b_i, e_i in zip(b, exponents):
            if b_i != e_i:
                count *= phi_prime_power(p, e_i - b_i)
        forms, sizes = buckets.setdefault(canonical_points(b, exponents), ([], []))
        forms.append(b)
        sizes.append(count)
    orbits = [
        OrbitSummary(
            CanonicalGroupKey.from_map({p: p_group_quotient(forms[0], exponents)}),
            tuple(ReducedForm(((p, b),)) for b in forms),
            sum(sizes),
        )
        for forms, sizes in buckets.values()
    ]
    return orbits, list(buckets)


def aut_order_hillar_rhea(p: int, exponents) -> int:
    """|Aut| of the p-group prod_k C_{p^{e_k}} by the closed form of Hillar &
    Rhea, *Automorphisms of finite abelian groups*, Amer. Math. Monthly 114
    (2007), Theorem 4.1.  With e_1 <= ... <= e_n, d_k = max{l : e_l = e_k}
    and c_k = min{l : e_l = e_k} (1-based),

        |Aut| = prod_k (p^{d_k} - p^{k-1})
                * prod_j (p^{e_j})^{n - d_j} * prod_i (p^{e_i - 1})^{n - c_i + 1}.

    Exponents 0 (trivial factors) are dropped first."""
    e = sorted(x for x in exponents if x)
    n = len(e)
    out = 1
    for k, ek in enumerate(e, start=1):
        d = max(l for l in range(1, n + 1) if e[l - 1] == ek)
        c = min(l for l in range(1, n + 1) if e[l - 1] == ek)
        out *= (p**d - p ** (k - 1)) * p ** (ek * (n - d)) * p ** ((ek - 1) * (n - c + 1))
    return out
