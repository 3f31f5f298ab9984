"""Brute-force ground truth: exhaustive automorphism tables, orbit partitions,
and quotient identification by torsion counts.

Everything here works by direct enumeration over group elements, with no
Smith normal form and no valuation sweeps, so it is an independent check of
the production paths.  Aut(G) is found by a depth-first search over the
generators' images that keeps an image only while the rows chosen so far stay
independent mod every prime (the Burnside basis theorem).  An element's orbit
is its images under those tables; since an image depends only on the
generators where the element's coordinates are nonzero, each distinct
projection of the tables onto that support is applied once.  It is
desk-scale machinery: every entry point enforces a capacity cap and raises
CapacityExceeded beyond it.  It is first-class (exposed on the CLI), not
test-only code, since the naive iterate-over-Aut(G) decision procedure is
itself a baseline worth comparing against.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache
from typing import Iterator

from .arith import factorize
from .errors import CapacityExceeded
from .groups import AbelianGroup, CanonicalGroupKey, GroupElement, Record, check_elements

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
    return list(itertools.product(*map(range, moduli)))


def _add(a, b, moduli):
    return tuple((x + y) % d for x, y, d in zip(a, b, moduli))


def _scale(k, a, moduli):
    return tuple((k * x) % d for x, d in zip(a, moduli))


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


def _images(coords, tables, moduli) -> Iterator[tuple[int, ...]]:
    """The images of the element with these coordinates under the tables.
    An image depends only on the generators where the coordinates are
    nonzero, so the tables are projected onto those generators and each
    distinct projection is applied once, lazily."""
    support = [i for i, c in enumerate(coords) if c]
    if not support:
        return iter((coords,))
    if len(support) == len(coords):
        # the tables are distinct, so projecting them would merge none
        return (_apply(coords, images, moduli) for images in tables)
    projected = set(map(operator.itemgetter(*support), tables))
    if len(support) == 1:
        # itemgetter of a single index returns the image, not a 1-tuple
        projected = {(img,) for img in projected}
    nonzero = [coords[i] for i in support]
    return (_apply(nonzero, images, moduli) for images in projected)


@lru_cache(maxsize=8)
def _raw_automorphisms(moduli: tuple[int, ...], cap: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All automorphisms as tuples of generator images (raw coordinate tuples),
    in lexicographic image order: the order of the product of the image pools,
    which a depth-first search over the generators keeps while it prunes."""
    order = math.prod(moduli)
    # positions[p]: the coordinates whose modulus p divides.  The rank, the
    # minimal generator count, is the most moduli any one prime divides.
    positions: dict[int, list[int]] = {}
    for i, d in enumerate(moduli):
        for p in factorize(d):
            positions.setdefault(p, []).append(i)
    rank = max(map(len, positions.values()), default=0)
    if order**rank > cap:
        raise CapacityExceeded(
            f"automorphism search space {order}^{rank} exceeds cap {cap}"
        )
    # Generator i may map to any element whose order divides d_i, that is, whose
    # coordinate j is a multiple of d_j / gcd(d_i, d_j): prod_j gcd(d_i, d_j)
    # elements, at most |G_p| per prime p dividing d_i.  Each prime divides at
    # most `rank` of the moduli, so the candidate tuples number at most
    # prod_p |G_p|^rank = order**rank, which the cap check above already bounds.
    if not moduli:
        return ((),)
    # By the Burnside basis theorem an endomorphism is bijective exactly when,
    # for each prime p, the map it induces on G/pG = F_p^{r_p} is: when the
    # images' coordinates mod p over p's positions, one row per generator at
    # those positions, are independent.  So the search fixes the images one
    # generator at a time and keeps a pool image only when each of its rows
    # lies outside the F_p-span of the rows of the same prime chosen before.
    # levels[i] is generator i's pool, in lexicographic order, with one entry
    # per prime at position i: (prime index, each image's row mod p, whether i
    # is p's last position, after which p's span is never read).
    primes = list(positions.items())
    levels = []
    for i, d in enumerate(moduli):
        pool = list(itertools.product(*(range(0, e, e // math.gcd(d, e)) for e in moduli)))
        rows = [
            (q, [tuple(img[j] % p for j in pos) for img in pool], pos[-1] == i)
            for q, (p, pos) in enumerate(primes)
            if i in pos
        ]
        levels.append((pool, rows))

    def kept(i, spans):
        """Selectors over generator i's pool: is each image's row outside the
        span for every prime at position i."""
        pool, rows = levels[i]
        if not rows:
            return itertools.repeat(True, len(pool))
        inside = zip(*(map(spans[q].__contains__, r) for q, r, _ in rows))
        return map(operator.not_, map(any, inside))

    # Depth-first with an explicit stack over generators 0..n-2, so the
    # survivors come out in the lexicographic order of the full product; the
    # last generator's kept images are appended to the prefix in one pass.
    # Entry i holds the indices of generator i's kept images and, per prime,
    # the span (a frozenset) of the rows chosen for generators 0..i-1;
    # chosen[i] is generator i's image.
    last = [(img,) for img in levels[-1][0]]
    spans = tuple(frozenset({(0,) * len(pos)}) for _, pos in primes)
    if len(moduli) == 1:
        return tuple(itertools.compress(last, kept(0, spans)))
    found: list[tuple[tuple[int, ...], ...]] = []
    chosen: list[tuple[int, ...]] = []
    stack = [(itertools.compress(itertools.count(), kept(0, spans)), spans)]
    while stack:
        indices, spans = stack[-1]
        k = next(indices, None)
        if k is None:
            stack.pop()
            if chosen:
                chosen.pop()
            continue
        i = len(stack) - 1
        pool, rows = levels[i]
        grown = list(spans)
        for q, r, is_last in rows:
            if not is_last:
                p = primes[q][0]
                grown[q] = frozenset(
                    tuple((a + c * b) % p for a, b in zip(s, r[k])) for s in spans[q] for c in range(p)
                )
        grown = tuple(grown)
        if i + 2 == len(moduli):
            prefix = (*chosen, pool[k])
            found.extend(map(prefix.__add__, itertools.compress(last, kept(i + 1, grown))))
        else:
            chosen.append(pool[k])
            stack.append((itertools.compress(itertools.count(), kept(i + 1, grown)), grown))
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
    found are those invertible on every G/pG.  Lexicographic output order.  Raises CapacityExceeded when |G|^rank
    exceeds the cap.

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
    """Decide phi(x) == y for some automorphism by searching all of Aut(G).

    The naive baseline: it enumerates every automorphism table, projects the
    tables onto the generators where x's coordinates are nonzero, and compares
    y with the image of x under each distinct projection until one matches.
    Raises DimensionMismatch or ForeignElement for an element not of G.
    """
    check_elements(G, x, y)
    return y.coords in _images(x.coords, _raw_automorphisms(G.moduli, cap), G.moduli)


def brute_orbits(G: AbelianGroup, cap: int = DEFAULT_CAP) -> list[frozenset[GroupElement]]:
    """Orbit partition of the natural Aut(G)-action.  Each element not yet
    placed starts an orbit: its images under every automorphism, one per
    distinct projection of the tables onto its support (the generators where
    its coordinates are nonzero).

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
        orbit = set(_images(start, tables, moduli))
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


def _power_layers(elements, moduli, n: int) -> dict[int, list[list[tuple[int, ...]]]]:
    """{p: [pG, p^2 G, ..., p^a G]} for each p^a exactly dividing n, where
    layer k lists p^k * g for every g in ``elements``, in the same order."""
    return {
        p: [[_scale(p**k, c, moduli) for c in elements] for k in range(1, a + 1)]
        for p, a in factorize(n).items()
    }


def _torsion_key(q: int, H: set, layers) -> CanonicalGroupKey:
    """Canonical key of G / H, of order q, from the number of cosets of H that
    p^k annihilates, for each p^a exactly dividing q and each k <= a that
    the layers reach; the layers are _power_layers of all of G for a multiple
    of gcd(q, exponent of G)."""
    h = len(H)
    primary = {}
    for p, a in factorize(q).items():
        counts = [sum(1 for c in layer if c in H) // h for layer in layers[p][:a]]
        primary[p] = _exponents_from_torsion(p, counts)
    return CanonicalGroupKey.from_map(primary)


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
    H = set(_multiples(x.coords, moduli))
    q = N // len(H)
    # G / H has exponent dividing G's: layers past v_p(exp G) repeat counts
    layers = _power_layers(_all_coords(moduli), moduli, math.gcd(q, G.exponent))
    return _torsion_key(q, H, layers)


def brute_quotient_keys(G: AbelianGroup, cap: int = DEFAULT_CAP) -> dict[tuple[int, ...], CanonicalGroupKey]:
    """Quotient key for every element of G, by the same torsion counting as
    brute_quotient_key but with the power layers of G shared across elements
    and one computation per distinct cyclic subgroup."""
    N = G.order
    if N > cap:
        raise CapacityExceeded(f"group order {N} exceeds cap {cap}")
    moduli = G.moduli
    elements = _all_coords(moduli)
    # every quotient has exponent dividing G's: deeper layers repeat counts
    layers = _power_layers(elements, moduli, G.exponent)
    out: dict[tuple[int, ...], CanonicalGroupKey] = {}
    for start in elements:
        if start in out:
            continue
        walk = _multiples(start, moduli)
        h = len(walk)
        key = _torsion_key(N // h, set(walk), layers)
        # every generator of <start> generates the same subgroup
        for k in range(h):
            if math.gcd(k, h) == 1:
                out[walk[k]] = key
    return out
