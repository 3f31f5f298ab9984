"""Brute-force ground truth: exhaustive automorphism tables, orbit partitions,
and quotient identification by torsion counts.

Everything here works by direct enumeration over group elements, with no
Smith normal form and no valuation sweeps, so it is an independent check of
the production paths.  It is desk-scale machinery: every entry point enforces
a capacity cap and raises CapacityExceeded beyond it.  It is first-class
(exposed on the CLI), not test-only code, since the naive iterate-over-Aut(G)
decision procedure is itself a baseline worth comparing against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .arith import factorize
from .errors import CapacityExceeded
from .groups import AbelianGroup, CanonicalGroupKey, GroupElement, check_elements

DEFAULT_CAP = 10_000_000


def aut_order_homocyclic(p: int, m: int, n: int) -> int:
    """|Aut| of the homocyclic p-group (C_{p^m})^n, by the closed form
    p^((m-1) n^2) * prod_{j=0}^{n-1} (p^n - p^j).

    >>> aut_order_homocyclic(2, 1, 2)
    6
    >>> aut_order_homocyclic(2, 2, 2)
    96
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    out = p ** ((m - 1) * n * n)
    for j in range(n):
        out *= p**n - p**j
    return out


def _all_coords(moduli: tuple[int, ...]) -> list[tuple[int, ...]]:
    out = [()]
    for d in moduli:
        out = [c + (r,) for c in out for r in range(d)]
    return out


def _add(a, b, moduli):
    return tuple((x + y) % d for x, y, d in zip(a, b, moduli))


def _scale(k, a, moduli):
    return tuple((k * x) % d for x, d in zip(a, moduli))


def _apply(coords, images, moduli) -> tuple[int, ...]:
    """Coordinates of sum_i coords[i] * images[i], reduced by the moduli,
    where images are the generators' images as raw coordinate tuples."""
    acc = [0] * len(moduli)
    for c, img in zip(coords, images):
        if c:
            for j, v in enumerate(img):
                acc[j] += c * v
    return tuple(a % d for a, d in zip(acc, moduli))


def _generates_group(images, moduli, full_order) -> bool:
    """Do the candidate generator images span the whole group?  (For an
    endomorphism of a finite group, surjective == bijective.)"""
    zero = (0,) * len(moduli)
    span = {zero}
    for y in images:
        if y in span:
            continue
        multiples = []
        m = y
        while m != zero:
            multiples.append(m)
            m = _add(m, y, moduli)
        span |= {_add(s, mm, moduli) for s in span for mm in multiples}
        if len(span) == full_order:
            return True
    return len(span) == full_order


@lru_cache(maxsize=128)
def _raw_automorphisms(moduli: tuple[int, ...], cap: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All automorphisms as tuples of generator images (raw coordinate tuples),
    in lexicographic image order."""
    order = math.prod(moduli)
    # rank = minimal generator count = max over primes of the number of
    # cyclic factors that prime divides
    per_prime: dict[int, int] = {}
    for d in moduli:
        for p in factorize(d):
            per_prime[p] = per_prime.get(p, 0) + 1
    rank = max(per_prime.values(), default=0)
    space = order**rank
    if space > cap:
        raise CapacityExceeded(
            f"automorphism search space {order}^{rank} exceeds cap {cap}"
        )
    elements = _all_coords(moduli)
    zero = (0,) * len(moduli)
    # generator i may map to any element whose order divides moduli[i]
    pools = []
    candidates = 1
    for i, d in enumerate(moduli):
        if d == 1:
            pools.append([zero])
        else:
            pools.append([c for c in elements if _scale(d, c, moduli) == zero])
        candidates *= len(pools[-1])
    if candidates > cap:
        raise CapacityExceeded(
            f"{candidates} candidate image tuples exceed cap {cap}"
        )
    found = []
    for candidate in itertools.product(*pools):
        if _generates_group(candidate, moduli, order):
            found.append(candidate)
    return tuple(found)


@dataclass(frozen=True)
class EndomorphismTable:
    """An endomorphism of ``group`` given by the images of its presentation's
    generators."""

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

    Enumerates all image tuples that define endomorphisms (image order divides
    generator order) and keeps the surjective ones.  Deterministic output
    order.  Raises CapacityExceeded when |G|^rank exceeds the cap.

    >>> from .groups import make_group
    >>> len(enumerate_automorphisms(make_group([4])))
    2
    >>> len(enumerate_automorphisms(make_group([2, 2])))
    6
    """
    raw = _raw_automorphisms(G.moduli, cap)
    return [
        EndomorphismTable(G, tuple(GroupElement(G, img) for img in images))
        for images in raw
    ]


def is_automorphic_image_bruteforce(
    G: AbelianGroup, x: GroupElement, y: GroupElement, cap: int = DEFAULT_CAP
) -> bool:
    """Decide phi(x) == y for some automorphism by iterating all of Aut(G).

    The naive baseline: worst case visits every automorphism table.  Raises
    DimensionMismatch or ForeignElement for an element not of G.
    """
    check_elements(G, x, y)
    moduli = G.moduli
    target = y.coords
    for images in _raw_automorphisms(moduli, cap):
        if _apply(x.coords, images, moduli) == target:
            return True
    return False


def brute_orbits(G: AbelianGroup, cap: int = DEFAULT_CAP) -> list[frozenset[GroupElement]]:
    """Orbit partition of the natural Aut(G)-action, by applying every
    automorphism to every (not yet placed) element.

    >>> from .groups import make_group
    >>> sorted(len(o) for o in brute_orbits(make_group([4])))
    [1, 1, 2]
    """
    tables = _raw_automorphisms(G.moduli, cap)
    moduli = G.moduli
    orbits = []
    placed = set()
    for start in _all_coords(moduli):
        if start in placed:
            continue
        orbit = {_apply(start, images, moduli) for images in tables}
        placed |= orbit
        orbits.append(frozenset(GroupElement(G, c) for c in orbit))
    return orbits


def _exponents_from_torsion(p: int, coset_counts: list[int]) -> list[int]:
    """Recover the exponent multiset of the p-part from the cumulative counts
    N_k = #cosets annihilated by p^k.  With t_k = log_p(N_k), the difference
    t_k - t_{k-1} counts exponents >= k."""
    tails = []
    prev = 0
    for count in coset_counts:
        t = 0
        while count > 1:
            assert count % p == 0, "torsion count is not a p-power"
            count //= p
            t += 1
        tails.append(t - prev)
        prev = t
    exps = []
    for k in range(len(tails)):
        exactly = tails[k] - (tails[k + 1] if k + 1 < len(tails) else 0)
        exps.extend([k + 1] * exactly)
    return exps


def brute_quotient_key(G: AbelianGroup, x: GroupElement, cap: int = DEFAULT_CAP) -> CanonicalGroupKey:
    """Canonical key of G / <x> identified purely from coset torsion counts.

    Enumerates the cosets of <x>; for each prime p dividing the quotient order
    and each k, counts the cosets annihilated by p^k.  Those counts pin down a
    finite abelian group uniquely, prime by prime.  Raises DimensionMismatch
    or ForeignElement for an element not of G.

    >>> from .groups import make_group
    >>> G = make_group([2, 4])
    >>> brute_quotient_key(G, G.element([1, 2])).parts
    ((2, (2,)),)
    """
    check_elements(G, x)
    N = G.order
    if N > cap:
        raise CapacityExceeded(f"group order {N} exceeds cap {cap}")
    moduli = G.moduli
    zero = (0,) * len(moduli)
    subgroup = {zero}
    m = x.coords
    while m != zero:
        subgroup.add(m)
        m = _add(m, x.coords, moduli)
    q = N // len(subgroup)
    if q == 1:
        return CanonicalGroupKey(())
    elements = _all_coords(moduli)
    primary = {}
    for p, a in factorize(q).items():
        counts = []
        current = elements
        for _k in range(1, a + 1):
            current = [_scale(p, c, moduli) for c in current]
            annihilated = sum(1 for c in current if c in subgroup)
            counts.append(annihilated // len(subgroup))
            if counts[-1] == p**a:
                break
        exps = _exponents_from_torsion(p, counts)
        if exps:
            primary[p] = exps
    return CanonicalGroupKey.from_map(primary)


def brute_quotient_keys(G: AbelianGroup, cap: int = DEFAULT_CAP) -> dict[tuple[int, ...], CanonicalGroupKey]:
    """Quotient key for every element of G, by the same torsion counting as
    brute_quotient_key but with per-group tables shared across elements and
    one computation per distinct cyclic subgroup."""
    N = G.order
    if N > cap:
        raise CapacityExceeded(f"group order {N} exceeds cap {cap}")
    moduli = G.moduli
    elements = _all_coords(moduli)
    index = {c: i for i, c in enumerate(elements)}
    zero = (0,) * len(moduli)
    # p -> list of index maps for multiplication by p^1, p^2, ...
    step_tables: dict[int, list[list[int]]] = {}
    for p, a in factorize(N).items():
        mul_p = [index[_scale(p, c, moduli)] for c in elements]
        chain = [mul_p]
        for _ in range(a - 1):
            prev = chain[-1]
            chain.append([mul_p[i] for i in prev])
        step_tables[p] = chain
    out: dict[tuple[int, ...], CanonicalGroupKey] = {}
    for start in elements:
        if start in out:
            continue
        walk = [zero]
        m = start
        while m != zero:
            walk.append(m)
            m = _add(m, start, moduli)
        sub_idx = {index[c] for c in walk}
        h = len(walk)
        q = N // h
        if q == 1:
            key = CanonicalGroupKey(())
        else:
            primary = {}
            for p, a in factorize(q).items():
                counts = []
                for chain_k in step_tables[p][: a]:
                    annihilated = sum(1 for i in chain_k if i in sub_idx)
                    counts.append(annihilated // h)
                    if counts[-1] == p**a:
                        break
                exps = _exponents_from_torsion(p, counts)
                if exps:
                    primary[p] = exps
            key = CanonicalGroupKey.from_map(primary)
        # every generator of <start> generates the same subgroup
        for k in range(h):
            if math.gcd(k, h) == 1:
                out[walk[k]] = key
    return out
