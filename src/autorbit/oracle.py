"""Brute-force ground truth: automorphism orbits by closure, exhaustive
automorphism tables, and quotient identification by torsion counts.

Everything here works by direct enumeration over group elements, with no
Smith normal form and no valuation sweeps, so it is an independent check of
the production paths.  An element's orbit is its closure under elementary
automorphisms written in the given presentation: for each prime p and
coordinate i, the scalings of i's p-part by a generating set of the units
mod p^e, and the transvections that add a multiple of another coordinate's
p-part to it (Hillar & Rhea, Automorphisms of finite abelian groups, Amer.
Math. Monthly 114, 2007).  These generate Aut(G), so a breadth-first walk
from x along them reaches exactly x's orbit, in O(|orbit| x generators)
work; the generator list is cached by presentation.  Aut(G) itself is found
by a depth-first search, a plain recursion over the generators' images,
that keeps an image only while the rows chosen so far stay independent mod
every prime (the Burnside basis theorem); those tables serve
enumerate_automorphisms and the tests.  A quotient key G / <x> comes from
torsion counts over <x> alone: p^k annihilates |<x> & p^k G| * |G[p^k]| /
|<x>| of its cosets (& is intersection), and both factors are read off the
presentation, so a key walks the multiples of x once per (p, k) and never
the rest of G.  It is desk-scale machinery: every entry point calls
errors.check_cap before it builds or fetches anything, bounding the orbit
routes and the Aut(G) search by |G|^rank (the running product of rank
copies of |G|) and the quotient keys by |G|.  The cached generators and
tables are keyed by presentation alone, so a call with another cap reuses
them.  The decision answers elements of different orders after the cap
check and before any closure.  It is first-class (exposed on the CLI), not
test-only code, since the naive closure decision procedure is itself a
baseline worth comparing against.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache
from typing import Iterator

from .arith import factorize, is_prime, nu
from .errors import DEFAULT_CAP, check_cap
from .groups import (
    AbelianGroup, CanonicalGroupKey, GroupElement, Record, check_elements, element_order
)


def aut_order_homocyclic(p: int, m: int, n: int) -> int:
    """|Aut| of the homocyclic p-group (C_{p^m})^n, by the closed form
    p^((m-1) n^2) * prod_{j=0}^{n-1} (p^n - p^j).  Raises TypeError for an
    argument that is not an integer, and ValueError when p is not prime or m
    or n is below 1.

    >>> aut_order_homocyclic(2, 1, 2)
    6
    >>> aut_order_homocyclic(2, 2, 2)
    96
    """
    p, m, n = map(operator.index, (p, m, n))
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    return p ** ((m - 1) * n * n) * math.prod(p**n - p**j for j in range(n))


def _all_coords(moduli: tuple[int, ...]) -> list[tuple[int, ...]]:
    return list(itertools.product(*map(range, moduli)))


def _add(a, b, moduli):
    return tuple((x + y) % d for x, y, d in zip(a, b, moduli))


def _multiples(y, moduli) -> list[tuple[int, ...]]:
    """The cyclic subgroup <y> as [0, y, 2y, ...], with k*y at index k."""
    zero = (0,) * len(moduli)
    out = [zero]
    m = y
    while m != zero:
        out.append(m)
        m = _add(m, y, moduli)
    return out


def _apply(coords, images, moduli) -> tuple[int, ...]:
    """Coordinates of sum_i coords[i] * images[i], reduced by the moduli,
    where images are the generators' images as raw coordinate tuples."""
    acc = [0] * len(moduli)
    for c, img in zip(coords, images):
        if c:
            for j, v in enumerate(img):
                acc[j] += c * v
    return tuple(a % d for a, d in zip(acc, moduli))


def _unit_generators(p: int, e: int) -> list[int]:
    """A generating set of the units mod p^e: one primitive root for odd p,
    -1 mod 4, -1 and 5 mod 2^e for e >= 3, and none mod 2."""
    q = p**e
    if p == 2:
        return [q - 1, 5][: min(e - 1, 2)]
    phi = q - q // p
    cofactors = [phi // r for r in factorize(phi)]
    return [next(g for g in itertools.count(2) if g % p and all(pow(g, c, q) != 1 for c in cofactors))]


@lru_cache(maxsize=8)
def _generators(moduli: tuple[int, ...]) -> tuple[tuple[int, int, int, int], ...]:
    """Elementary automorphisms that generate Aut(G), each as (i, j, m, d):
    the map that replaces coordinate i by (c_i + m * c_j) mod d, with d the
    modulus of i.  For each prime p and coordinate i with p^e exactly dividing
    d, let u be the CRT idempotent of i's p-part (u = 1 mod p^e, u = 0 mod
    d / p^e).  A scaling (j = i) multiplies the p-part by a unit generator g
    and fixes the rest, m = (g - 1) u.  A transvection adds k c_j for each
    other coordinate j whose modulus p divides, to the power f, with
    k = p^max(0, e - f) u, which is well defined since p^f k and the other
    primes' parts of d_j k vanish mod d.  Swaps of equal-exponent components
    are products of these, so none is listed."""
    gens = []
    for i, d in enumerate(moduli):
        for p, e in factorize(d).items():
            q = p**e
            rest = d // q
            u = rest * pow(rest, -1, q) % d
            gens.extend((i, i, (g - 1) * u % d, d) for g in _unit_generators(p, e))
            gens.extend(
                (i, j, p ** max(0, e - nu(p, dj)) * u % d, d)
                for j, dj in enumerate(moduli)
                if j != i and dj % p == 0
            )
    return tuple(gens)


def _neighbours(coords: tuple[int, ...], gens) -> list[tuple[int, ...]]:
    """One closure step: the images of coords under the generators whose
    source coordinate is nonzero (the others fix it)."""
    return [
        coords[:i] + ((coords[i] + m * coords[j]) % d,) + coords[i + 1:]
        for i, j, m, d in gens
        if coords[j]
    ]


def _closure(start: tuple[int, ...], gens) -> Iterator[tuple[int, ...]]:
    """The orbit of start under the group the generators generate, breadth
    first and each element once, start first."""
    seen = {start}
    queue = [start]
    yield start
    # the loop reads the elements appended while it runs
    for coords in queue:
        for img in _neighbours(coords, gens):
            if img not in seen:
                seen.add(img)
                queue.append(img)
                yield img


def _extend(found, levels, i, prefix, spans) -> None:
    """Append to found, in lexicographic order, every automorphism that starts
    with prefix, the images of the generators before level i.  spans holds,
    per prime, the F_p-span of the rows prefix gives that prime."""
    pool, rows = levels[i]
    # is each pool image's row outside the span, for every prime at level i
    inside = zip(*(map(spans[q].__contains__, r) for q, _, r, _ in rows))
    outside = map(operator.not_, map(any, inside))
    if i + 1 == len(levels):
        found.extend(map(prefix.__add__, itertools.compress(pool, outside)))
        return
    for k in itertools.compress(itertools.count(), outside):
        grown = list(spans)
        for q, p, r, is_last in rows:
            if not is_last:
                grown[q] = frozenset(
                    tuple((a + c * b) % p for a, b in zip(s, r[k])) for s in spans[q] for c in range(p)
                )
        _extend(found, levels, i + 1, prefix + pool[k], grown)


@lru_cache(maxsize=8)
def _raw_automorphisms(moduli: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All automorphisms as tuples of generator images (raw coordinate tuples),
    in lexicographic image order: the order of the product of the image pools,
    which a depth-first search over the generators keeps while it prunes.
    Every caller bounds the search by |G|^rank first."""
    # positions[p]: the coordinates whose modulus p divides.
    positions: dict[int, list[int]] = {}
    for i, d in enumerate(moduli):
        for p in factorize(d):
            positions.setdefault(p, []).append(i)
    # Generator i may map to any element whose order divides d_i, that is, whose
    # coordinate j is a multiple of d_j / gcd(d_i, d_j): prod_j gcd(d_i, d_j)
    # elements, at most |G_p| per prime p dividing d_i.  Each prime divides at
    # most rank G of the moduli, so the candidate tuples number at most
    # prod_p |G_p|^rank = |G|^rank, which every caller's cap check bounds.
    #
    # By the Burnside basis theorem an endomorphism is bijective exactly when,
    # for each prime p, the map it induces on G/pG = F_p^{r_p} is: when the
    # images' coordinates mod p over p's positions, one row per generator at
    # those positions, are independent.  So the search fixes the images one
    # generator at a time and keeps a pool image only when each of its rows
    # lies outside the F_p-span of the rows of the same prime chosen before.
    # A level is a generator of modulus above 1: its pool, in lexicographic
    # order, and one entry per prime at its position: (prime index, p, each
    # image's row mod p, whether i is p's last position, after which p's span
    # is never read).  A generator of modulus 1 has the one image 0, carried
    # in the pool entries of the next level (of the last when none follows),
    # so the recursion depth, the number of moduli above 1, is at most log2(cap).
    primes = list(positions.items())
    zero = (0,) * len(moduli)
    levels = []
    pad: tuple[tuple[int, ...], ...] = ()
    for i, d in enumerate(moduli):
        if d == 1:
            pad += (zero,)
            continue
        pool = list(itertools.product(*(range(0, e, e // math.gcd(d, e)) for e in moduli)))
        rows = [
            (q, p, [tuple(img[j] % p for j in pos) for img in pool], pos[-1] == i)
            for q, (p, pos) in enumerate(primes)
            if i in pos
        ]
        levels.append(([(*pad, img) for img in pool], rows))
        pad = ()
    if not levels:
        return (pad,)
    if pad:
        pool, rows = levels[-1]
        levels[-1] = ([entry + pad for entry in pool], rows)
    found: list[tuple[tuple[int, ...], ...]] = []
    _extend(found, levels, 0, (), [frozenset({(0,) * len(pos)}) for _, pos in primes])
    return tuple(found)


class EndomorphismTable(Record):
    """An endomorphism of ``group`` given by the images of its presentation's
    generators."""

    __slots__ = ("group", "images")
    group: AbelianGroup
    images: tuple[GroupElement, ...]

    def apply(self, x: GroupElement) -> GroupElement:
        """The image of x.  Raises DimensionMismatch or ForeignElement for an
        element not of the table's group."""
        G = self.group
        check_elements(G, x)
        return GroupElement(G, _apply(x.coords, (img.coords for img in self.images), G.moduli))


def enumerate_automorphisms(G: AbelianGroup, cap: int = DEFAULT_CAP) -> list[EndomorphismTable]:
    """Every automorphism of G as a generator-image table.

    Searches the image tuples that define endomorphisms (image order divides
    generator order) generator by generator, keeping an image only while the
    chosen images stay independent on G/pG for every prime p, so the tuples
    found are those invertible on every G/pG.  Lexicographic output order.
    Raises ValueError for a cap below 1 and CapacityExceeded when |G|^rank
    exceeds the cap, before any search.

    >>> from .groups import make_group
    >>> len(enumerate_automorphisms(make_group([4])))
    2
    >>> len(enumerate_automorphisms(make_group([2, 2])))
    6
    """
    check_cap(cap, itertools.repeat(G.order, G.rank), "automorphism search space |G|^rank")
    raw = _raw_automorphisms(G.moduli)
    return [
        EndomorphismTable(G, tuple(GroupElement(G, img) for img in images))
        for images in raw
    ]


def is_automorphic_image_bruteforce(
    G: AbelianGroup, x: GroupElement, y: GroupElement, cap: int = DEFAULT_CAP
) -> bool:
    """Decide phi(x) == y for some automorphism by walking x's orbit.

    The naive baseline: it walks the closure of x under the elementary
    automorphisms breadth first and stops as soon as it reaches y.  It checks
    the elements, then the cap (|G|^rank), then the orders, and only then
    starts the walk: elements of different orders are answered without any
    closure step, and the cap still applies to every pair.  Raises
    DimensionMismatch or ForeignElement for an element not of G, ValueError
    for a cap below 1 and CapacityExceeded over the cap.
    """
    check_elements(G, x, y)
    check_cap(cap, itertools.repeat(G.order, G.rank), "automorphism search space |G|^rank")
    if element_order(x) != element_order(y):
        return False
    return y.coords in _closure(x.coords, _generators(G.moduli))


def brute_orbits(G: AbelianGroup, cap: int = DEFAULT_CAP) -> list[frozenset[GroupElement]]:
    """Orbit partition of the natural Aut(G)-action.  Each element not yet
    placed, in the odometer order of G.elements(), starts an orbit: its
    closure under the elementary automorphisms.  The cap bounds |G|^rank.

    >>> from .groups import make_group
    >>> sorted(len(o) for o in brute_orbits(make_group([4])))
    [1, 1, 2]
    """
    check_cap(cap, itertools.repeat(G.order, G.rank), "automorphism search space |G|^rank")
    gens = _generators(G.moduli)
    orbits = []
    placed = set()
    for start in _all_coords(G.moduli):
        if start in placed:
            continue
        orbit = set(_closure(start, gens))
        placed |= orbit
        orbits.append(frozenset(GroupElement(G, c) for c in orbit))
    return orbits


def _exponents_from_torsion(p: int, coset_counts: list[int]) -> list[int]:
    """Recover the exponent multiset of the p-part from the cumulative counts
    N_k = #cosets annihilated by p^k.  With t_k = log_p(N_k), the difference
    t_k - t_{k-1} counts exponents >= k.  Raises ValueError for a count that
    is not a power of p."""
    tails = []
    prev = 0
    for count in coset_counts:
        t = 0
        while count > 1:
            if count % p:
                raise ValueError(f"torsion count {count} is not a power of {p}")
            count //= p
            t += 1
        tails.append(t - prev)
        prev = t
    exps = []
    for k in range(len(tails)):
        exactly = tails[k] - (tails[k + 1] if k + 1 < len(tails) else 0)
        exps.extend([k + 1] * exactly)
    return exps


def _torsion_key(G: AbelianGroup, walk: list[tuple[int, ...]]) -> CanonicalGroupKey:
    """Canonical key of G / H, with H = <x> listed by _multiples, from the
    number of cosets of H that p^k annihilates, |H & p^k G| * |G[p^k]| / |H|,
    for each prime p of G and each k up to the p-valuation of gcd(|G / H|,
    exponent of G); deeper counts repeat.  |G[p^k]| = prod gcd(p^k, d_i), and
    h lies in p^k G exactly when each gcd(p^k, d_i) divides h_i, so the
    count walks H once per (p, k) and never the rest of G."""
    h = len(walk)
    depth = math.gcd(G.order // h, G.exponent)
    primary = {}
    for p in G.primes():
        counts = []
        for k in range(1, nu(p, depth) + 1):
            gs = [math.gcd(p**k, d) for d in G.moduli]
            inside = sum(not any(map(operator.mod, y, gs)) for y in walk)
            counts.append(inside * math.prod(gs) // h)
        primary[p] = _exponents_from_torsion(p, counts)
    return CanonicalGroupKey.from_map(primary)


def brute_quotient_key(G: AbelianGroup, x: GroupElement, cap: int = DEFAULT_CAP) -> CanonicalGroupKey:
    """Canonical key of G / <x> identified purely from coset torsion counts.

    Walks the multiples of x; for each prime p dividing the quotient order
    and each k, counts the cosets of <x> annihilated by p^k as
    |<x> & p^k G| * |G[p^k]| / |<x>|.  Those counts pin down a finite abelian
    group uniquely, prime by prime.  Raises DimensionMismatch or
    ForeignElement for an element not of G, ValueError for a cap below 1 and
    CapacityExceeded when |G| exceeds the cap.

    >>> from .groups import make_group
    >>> G = make_group([2, 4])
    >>> brute_quotient_key(G, G.element([1, 2])).parts
    ((2, (2,)),)
    """
    check_elements(G, x)
    check_cap(cap, (G.order,), "group elements")
    return _torsion_key(G, _multiples(x.coords, G.moduli))


def brute_quotient_keys(G: AbelianGroup, cap: int = DEFAULT_CAP) -> dict[tuple[int, ...], CanonicalGroupKey]:
    """Quotient key for every element of G, by the same torsion counting as
    brute_quotient_key, once per distinct cyclic subgroup.  The cap bounds
    |G|."""
    check_cap(cap, (G.order,), "group elements")
    out: dict[tuple[int, ...], CanonicalGroupKey] = {}
    for start in _all_coords(G.moduli):
        if start in out:
            continue
        walk = _multiples(start, G.moduli)
        h = len(walk)
        key = _torsion_key(G, walk)
        # every generator of <start> generates the same subgroup
        for k in range(h):
            if math.gcd(k, h) == 1:
                out[walk[k]] = key
    return out
