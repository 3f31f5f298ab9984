"""Enumerate the automorphic orbits of a finite abelian group.

Within one p-primary part every element is automorphic to its reduced form
(p^{b_1}, ..., p^{b_n}) with 0 <= b_i <= e_i (b_i = e_i standing for the zero
coordinate).  Two reduced forms share an orbit exactly when they have the same
non-dominated (valuation, exponent) points, where (f', e') dominates (f, e)
when f' <= f and e' - f' >= e - f (Dutta and Prasad; fastquot.canonical_points
computes them for one form).  So each orbit is named by an antichain, and the
antichains are enumerated directly.  The components of equal exponent e form
a block of multiplicity m; an antichain takes at most one point (a, e) per
block, with a < e, and a, e and e - a strictly increasing along it.

For an antichain A, a block on A has least valuation exactly a, and every
valuation of any other block is at least
lo = min(e, min over (a, b) in A of max(a, a + e - b)).  These bounds give, in
closed form, the orbit's element count
prod_A (p^{m(e-a)} - p^{m(e-a-1)}) * prod_rest p^{m(e-lo)}, its reduced-form
count prod_A ((e-a+1)^m - (e-a)^m) * prod_rest (e-lo+1)^m, and its first form
in odometer order (every position at its block's bound); orbits are listed by
that first form.  orbit_census stops there.  p_group_orbits also writes out
each orbit's forms, in odometer order, as one Cartesian product of the
per-position ranges [bound, e_i]: a block of multiplicity 1 on A is pinned to
its point, and a larger block on A keeps the forms in which some coordinate
of the block equals a.  Each orbit's quotient key comes from one valuation
sweep of its first form.  Orbits of the whole group are Cartesian products of
per-prime orbits, with multiplying sizes and concatenated quotient keys.

Each form is written once.  Per prime, the product yields a form as the pair
(p, (b_1, ..., b_n)); a combined form's parts are one tuple of such pairs, one
per prime, taken straight from the Cartesian product of the per-prime pair
lists.  No per-prime ReducedForm is built: each orbit's ReducedForm records
are made in one bulk call (Record._many) from its exact form count, so no
form passes through Record.__init__.

enumerate_orbits is capped (default 10**7 combined reduced forms) and
orbit_census by the number of orbits, which it counts before building them;
both fail loudly with CapacityExceeded rather than hang.
"""

from __future__ import annotations

import math
import operator
from itertools import compress, product, repeat, tee
from operator import contains, itemgetter, mul, sub

from .arith import crt, is_prime
from .errors import CapacityExceeded, DimensionMismatch, InvalidValuation
from .fastquot import p_group_quotient, sylow_decompose
from .groups import AbelianGroup, CanonicalGroupKey, GroupElement, Record

DEFAULT_ENUMERATION_CAP = 10_000_000


class ReducedForm(Record):
    """Per-prime exponent tuples (b_1, ..., b_n) naming the element whose
    p-primary coordinates are (p^{b_1}, ..., p^{b_n}); sorted by prime."""

    __slots__ = ("parts",)
    parts: tuple[tuple[int, tuple[int, ...]], ...]

    def realize(self, G: AbelianGroup) -> GroupElement:
        """The concrete element of G this reduced form names.

        Raises DimensionMismatch unless the form's primes, in order, are G's
        primes and each per-prime arity is G's, InvalidValuation for an
        exponent b outside [0, e], and TypeError for a non-integral b.
        """
        primes = tuple(p for p, _ in self.parts)
        if primes != G.primes():
            raise DimensionMismatch(f"expected a form over the primes {G.primes()}, got {primes}")
        congruences: list[list[tuple[int, int]]] = [[] for _ in G.moduli]
        for p, bs in self.parts:
            triples = G._primary[p]
            if len(bs) != len(triples):
                raise DimensionMismatch(
                    f"expected {len(triples)} exponents for prime {p}, got {len(bs)}"
                )
            for (pos, e, pe), b in zip(triples, bs):
                b = operator.index(b)
                if b < 0 or b > e:
                    raise InvalidValuation(f"valuation {b} outside [0, {e}]")
                congruences[pos].append((pe, pow(p, b) % pe))
        return GroupElement(G, tuple(crt(c) for c in congruences))


class OrbitSummary(Record):
    """One automorphic orbit: the canonical key of the quotient it corresponds
    to, every reduced form it contains, and its exact element count."""

    __slots__ = ("quotient_key", "representatives", "size")
    quotient_key: CanonicalGroupKey
    representatives: tuple[ReducedForm, ...]
    size: int


def reduced_form(G: AbelianGroup, x: GroupElement) -> ReducedForm:
    """Strip unit multipliers from x: per prime, the coordinate valuations
    (clamped to the exponent for zero coordinates).

    >>> from .groups import make_group
    >>> G = make_group([4, 8])
    >>> reduced_form(G, G.element([3, 6])).parts
    ((2, (0, 1)),)
    """
    # sylow_decompose lists the primes in ascending order
    return ReducedForm(tuple((p, tuple(fs)) for p, (fs, _es) in sylow_decompose(G, x).items()))


class CensusRow(Record):
    """One automorphic orbit without its reduced forms: the canonical key of
    its quotient, its first reduced form, how many reduced forms it has, and
    its exact element count."""

    __slots__ = ("quotient_key", "first", "form_count", "size")
    quotient_key: CanonicalGroupKey
    first: ReducedForm
    form_count: int
    size: int


def _blocks(exponents: tuple[int, ...]) -> tuple[list[int], list[int], list[int]]:
    """(es, ms, block_of): the distinct exponents ascending, their
    multiplicities, and each position's block."""
    es = sorted(set(exponents))
    block_of = list(map(es.index, exponents))
    return es, list(map(block_of.count, range(len(es)))), block_of


def _count_antichains(es: list[int], limit: int) -> int:
    """How many antichains _antichains(es) gives, or some number above limit
    when there are more, so that a census too large for its cap fails before
    it is built.  A subtree's count depends only on where it starts, so each
    start is counted once."""
    # Every subset of an antichain is one, so an antichain of L points means
    # at least 2^L of them.  Points of exponents at least 2 apart can always
    # be chained (a rises by 1 per point), so the greedy pick is a longest
    # antichain; past the limit this also keeps the recursion shallow.
    longest, last = 0, -2
    for e in es:
        if e >= last + 2:
            longest, last = longest + 1, e
    if 2**longest > limit:
        return 2**longest
    memo: dict[tuple[int, int, int], int] = {}

    def count_from(j0: int, a0: int, gap0: int) -> int:
        # the antichains that extend one ending in (a0, e0), gap0 = e0 - a0, by blocks j0..
        n = memo.get((j0, a0, gap0))
        if n is None:
            n = 1
            for j in range(j0, len(es)):
                e = es[j]
                for a in range(a0 + 1, e - gap0):
                    if n > limit:
                        break
                    n += count_from(j + 1, a, e - a)
            memo[j0, a0, gap0] = n
        return n

    return count_from(0, -1, 0)


def _antichains(es: list[int]) -> list[tuple[list[int], list[tuple[int, int]]]]:
    """Every antichain over the blocks of distinct exponents ``es``
    (ascending), as (bounds, points): the least valuation each block takes
    in the antichain's orbit, and the antichain's points (block index, a) by
    block."""
    out: list[tuple[list[int], list[tuple[int, int]]]] = []

    def extend(j0: int, a0: int, gap0: int, bounds: list[int], points: list) -> None:
        # the last point is (a0, e0) with gap0 = e0 - a0; blocks j0.. lie above it
        out.append((bounds + [e - gap0 for e in es[j0:]], points))
        for j in range(j0, len(es)):
            e = es[j]
            for a in range(a0 + 1, e - gap0):
                skipped = [min(a, b - gap0) for b in es[j0:j]]
                extend(j + 1, a, e - a, bounds + skipped + [a], points + [(j, a)])

    extend(0, -1, 0, [], [])
    return out


def _p_census(p: int, blocks: tuple[list[int], list[int], list[int]]) -> list:
    """The orbits of the p-group with these blocks (from _blocks), by first
    form: per orbit (first form, bounds, points, size, form count), with
    bounds and points as from _antichains."""
    es, ms, block_of = blocks
    spans = [e + 1 for e in es]
    rows = []
    for bounds, points in _antichains(es):
        shift = sum(map(mul, ms, map(sub, es, bounds)))
        size = 1
        count = math.prod(map(pow, map(sub, spans, bounds), ms))
        for j, a in points:
            # at least one of the block's m valuations is a: all >= a, minus all > a
            m = ms[j]
            whole = (es[j] - a + 1) ** m
            shift -= m
            size *= p**m - 1
            count = count // whole * (whole - (es[j] - a) ** m)
        first = tuple(map(bounds.__getitem__, block_of))
        rows.append((first, bounds, points, size * p**shift, count))
    rows.sort(key=itemgetter(0))
    return rows


def _check_cap(cap: int) -> None:
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")


def _p_orbits(p: int, exponents: tuple[int, ...], cap: int) -> list:
    """The orbits of the p-group with these component exponents, by first
    form: per orbit (quotient exponents, size, form count, pairs), where
    pairs iterates over the orbit's forms in odometer order, each as the
    pair (p, (b_1, ..., b_n)).  Validates as p_group_orbits does."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if any(e < 1 for e in exponents):
        raise ValueError("component exponents must be >= 1")
    _check_cap(cap)
    total = math.prod(e + 1 for e in exponents)
    if total > cap:
        raise CapacityExceeded(f"{total} reduced forms exceed cap {cap}")
    es, ms, block_of = blocks = _blocks(exponents)
    spans = [e + 1 for e in es]
    # a block of two or more positions reads its coordinates in one call
    getters = [None] * len(es)
    for j, m in enumerate(ms):
        if m > 1:
            getters[j] = itemgetter(*(i for i, b in enumerate(block_of) if b == j))
    out = []
    for first, bounds, points, size, count in _p_census(p, blocks):
        ranges = list(map(range, bounds, spans))
        wanted = []
        for j, a in points:
            if getters[j] is None:
                ranges[j] = range(a, a + 1)
            else:
                wanted.append((getters[j], a))
        forms = product(*map(ranges.__getitem__, block_of))
        for get, a in wanted:
            # tee holds only the candidate compress is reading, not them all
            forms, candidates = tee(forms)
            forms = compress(forms, map(contains, map(get, candidates), repeat(a)))
        out.append((p_group_quotient(first, exponents), size, count, zip(repeat(p), forms)))
    return out


def p_group_orbits(
    p: int, exponents: tuple[int, ...], cap: int = DEFAULT_ENUMERATION_CAP
) -> list[OrbitSummary]:
    """Orbits of the p-group with the given component exponents.

    Enumerates the orbits' antichains, reads each orbit's size and bounds in
    closed form, and expands its reduced forms in mixed-radix (odometer)
    order; each orbit's key is the quotient by its first form.  Output order
    is first occurrence in odometer order.  Raises ValueError when p is not
    prime, an exponent is below 1 or the cap is below 1, and
    CapacityExceeded when the reduced forms exceed the cap.

    >>> [(o.quotient_key.describe_invariant(), o.size) for o in p_group_orbits(2, (2,))]
    [('C1', 2), ('C2', 1), ('C4', 1)]
    """
    return [
        OrbitSummary(
            CanonicalGroupKey.from_map({p: quotient}), ReducedForm._many(zip(pairs), count), size
        )
        for quotient, size, count, pairs in _p_orbits(p, exponents, cap)
    ]


def orbit_census(G: AbelianGroup, cap: int = DEFAULT_ENUMERATION_CAP) -> list[CensusRow]:
    """Every automorphic orbit of G without writing out its reduced forms.

    Row i describes enumerate_orbits(G)[i]: the same quotient key and size,
    its first representative, and its number of representatives.  Across
    primes, sizes and form counts multiply and first forms concatenate.  The
    cap bounds the number of orbits; CapacityExceeded when it is passed, and
    ValueError when it is below 1.

    >>> from .groups import make_group
    >>> [(r.quotient_key.describe_invariant(), r.form_count, r.size) for r in orbit_census(make_group([4, 4]))]
    [('C4', 5, 12), ('C2 x C4', 3, 3), ('C4 x C4', 1, 1)]
    """
    _check_cap(cap)
    per_prime = []
    count = 1
    for p in G.primes():
        exponents = G.primary_exponents(p)
        blocks = _blocks(exponents)
        count *= _count_antichains(blocks[0], cap // count)
        if count > cap:
            raise CapacityExceeded(f"{count}+ orbits exceed cap {cap}")
        per_prime.append(
            [
                ((p, p_group_quotient(first, exponents)), (p, first), forms, size)
                for first, _, _, size, forms in _p_census(p, blocks)
            ]
        )
    return [
        CensusRow(
            CanonicalGroupKey.from_map(dict(key for key, _, _, _ in combo)),
            ReducedForm(tuple(first for _, first, _, _ in combo)),
            math.prod(forms for _, _, forms, _ in combo),
            math.prod(size for _, _, _, size in combo),
        )
        for combo in product(*per_prime)
    ]


def enumerate_orbits(
    G: AbelianGroup, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[OrbitSummary]:
    """All automorphic orbits of G, with exact sizes summing to |G|.

    Per-prime orbits are combined by Cartesian product: sizes multiply,
    quotient keys concatenate, and representative reduced forms pair up.  The
    combined representative count is exactly prod_i tau(d_i), which is what
    the cap limits; ValueError when the cap is below 1.

    >>> from .groups import make_group
    >>> [(o.quotient_key.describe_invariant(), o.size) for o in enumerate_orbits(make_group([6]))]
    [('C1', 2), ('C3', 1), ('C2', 2), ('C6', 1)]
    """
    _check_cap(cap)
    primes = G.primes()
    total_forms = 1
    for p in primes:
        total_forms *= math.prod(e + 1 for e in G.primary_exponents(p))
        if total_forms > cap:
            raise CapacityExceeded(f"{total_forms}+ reduced forms exceed cap {cap}")
    if len(primes) == 1:
        return p_group_orbits(primes[0], G.primary_exponents(primes[0]), cap)
    # Per prime and orbit: (key parts, size, form count, list of (p, bs) pairs).
    per_prime = [
        [
            (CanonicalGroupKey.from_map({p: quotient}).parts, size, count, list(pairs))
            for quotient, size, count, pairs in _p_orbits(p, G.primary_exponents(p), cap)
        ]
        for p in primes
    ]
    # Primes ascend and are disjoint, so the concatenated key parts are
    # canonical, and each tuple of per-prime pairs is a combined form's parts.
    key_of, size_of, count_of, pairs_of = map(itemgetter, range(4))
    return [
        OrbitSummary(
            CanonicalGroupKey(sum(map(key_of, combo), ())),
            ReducedForm._many(product(*map(pairs_of, combo)), math.prod(map(count_of, combo))),
            math.prod(map(size_of, combo)),
        )
        for combo in product(*per_prime)
    ]
