"""Enumerate the automorphic orbits of a finite abelian group.

Within one p-primary part every element is automorphic to its reduced form
(p^{b_1}, ..., p^{b_n}) with 0 <= b_i <= e_i (b_i = e_i standing for the zero
coordinate).  Two reduced forms share an orbit exactly when they have the same
non-dominated (valuation, exponent) points, where (f', e') dominates (f, e)
when f' <= f and e' - f' >= e - f (Dutta and Prasad; fastquot.canonical_points
computes them for one form).  So each orbit is named by an antichain, and the
antichains are enumerated directly.  The components of equal exponent e form
a block of multiplicity m; an antichain takes at most one point (a, e) per
block, with a < e, and a, e and e - a strictly increasing along it.  The
count of the antichains (_count_from) and the walk over them (_antichains)
are module-level recursions that are passed their state, like the oracle's
Aut(G) search, so a call leaves no reference cycle behind.

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
sweep of its first form.

Orbits of the whole group are Cartesian products of per-prime orbits, made
by one join (_join) for all three entry points: sizes and form counts
multiply, quotient key parts concatenate, and each per-prime orbit adds its
payload, the first form for the census or the form list for enumeration.
Each form is written once.  Per prime, the product yields a form as the pair
(p, (b_1, ..., b_n)); a combined form's parts are one tuple of such pairs, one
per prime, taken straight from the Cartesian product of the per-prime pair
lists.  No per-prime ReducedForm is built: each orbit's ReducedForm records
are made in one bulk call (Record._many) from its exact form count, so no
form passes through Record.__init__.

enumerate_orbits and p_group_orbits are capped (default 10**7 reduced forms)
and orbit_census by the number of orbits, which it counts before building
them; one check fails loudly with CapacityExceeded rather than hang.
"""

from __future__ import annotations

import math
import operator
from itertools import compress, product, repeat, tee
from operator import contains, itemgetter, mul, sub
from typing import Iterable, Iterator

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


def _count_from(es, limit, memo, j0, a0, gap0) -> int:
    """How many antichains extend one ending in (a0, e0), gap0 = e0 - a0, by
    the blocks j0.. of es, or some number above limit when there are more.
    A subtree's count depends only on where it starts, so memo keeps each
    start's count."""
    n = memo.get((j0, a0, gap0))
    if n is None:
        n = 1
        for j in range(j0, len(es)):
            e = es[j]
            for a in range(a0 + 1, e - gap0):
                if n > limit:
                    break
                n += _count_from(es, limit, memo, j + 1, a, e - a)
        memo[j0, a0, gap0] = n
    return n


def _count_antichains(es: list[int], limit: int) -> int:
    """How many antichains _antichains gives for es, or some number above limit
    when there are more, so that a census too large for its cap fails before
    it is built."""
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
    return _count_from(es, limit, {}, 0, -1, 0)


def _antichains(out, es, j0, a0, gap0, bounds, points) -> list:
    """Append to out, and return it, every antichain over the blocks of
    distinct exponents ``es`` (ascending) that extends points by the blocks
    j0.., as (bounds, points): the least valuation each block takes in the
    antichain's orbit, and the antichain's points (block index, a) by block.
    The last point of points is (a0, e0) with gap0 = e0 - a0, and the list
    bounds holds the least valuations of the blocks before j0 (a list, since
    _p_census maps bounds.__getitem__ over every position, and a tuple's
    __getitem__ is the slower call)."""
    out.append((bounds + [e - gap0 for e in es[j0:]], points))
    for j in range(j0, len(es)):
        e = es[j]
        for a in range(a0 + 1, e - gap0):
            skipped = [min(a, b - gap0) for b in es[j0:j]]
            _antichains(out, es, j + 1, a, e - a, bounds + skipped + [a], points + ((j, a),))
    return out


def _p_census(
    p: int, exponents: tuple[int, ...], blocks: tuple[list[int], list[int], list[int]]
) -> list:
    """The orbits of the p-group with these component exponents and blocks
    (from _blocks), by first form: per orbit (quotient key parts, size, form
    count, (p, first form), bounds, points), with bounds and points as from
    _antichains.  Each key comes from one valuation sweep of the first form."""
    es, ms, block_of = blocks
    spans = [e + 1 for e in es]
    rows = []
    for bounds, points in _antichains([], es, 0, -1, 0, [], ()):
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
        parts = CanonicalGroupKey.from_map({p: p_group_quotient(first, exponents)}).parts
        rows.append((parts, size * p**shift, count, (p, first), bounds, points))
    rows.sort(key=itemgetter(3))
    return rows


def _check_cap(cap: int, counts, what: str) -> None:
    """ValueError for a cap below 1, then CapacityExceeded as soon as the
    running product of the lazily read counts of `what` passes the cap."""
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    total = 1
    for n in counts:
        total *= n
        if total > cap:
            raise CapacityExceeded(f"{total}+ {what} exceed cap {cap}")


def _p_orbits(p: int, exponents: tuple[int, ...]) -> list:
    """The orbits of the p-group with these component exponents, by first
    form: per orbit (quotient key parts, size, form count, pairs), where
    pairs lists the orbit's forms in odometer order, each as the pair
    (p, (b_1, ..., b_n)).  The caller validates p, exponents and cap."""
    es, ms, block_of = blocks = _blocks(exponents)
    spans = [e + 1 for e in es]
    # a block of two or more positions reads its coordinates in one call
    getters = [None] * len(es)
    for j, m in enumerate(ms):
        if m > 1:
            getters[j] = itemgetter(*(i for i, b in enumerate(block_of) if b == j))
    out = []
    for parts, size, count, _, bounds, points in _p_census(p, exponents, blocks):
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
        out.append((parts, size, count, list(zip(repeat(p), forms))))
    return out


def _join(per_prime: Iterable[list]) -> Iterator:
    """Per combination of one row per prime, each row starting (key parts,
    size, form count, payload), in product order: its quotient key, size, form
    count and the tuple of its payloads.  Primes ascend, so the joined key
    parts are canonical."""
    key_of, size_of, count_of, payload_of = map(itemgetter, range(4))
    return (
        (
            CanonicalGroupKey(sum(map(key_of, combo), ())),
            math.prod(map(size_of, combo)),
            math.prod(map(count_of, combo)),
            tuple(map(payload_of, combo)),
        )
        for combo in product(*per_prime)
    )


def _summaries(per_prime: list[list]) -> list[OrbitSummary]:
    """OrbitSummary records from per-prime _p_orbits lists; each orbit's
    forms, the product of its pair lists, are made in one bulk call."""
    return [
        OrbitSummary(key, ReducedForm._many(product(*pair_lists), count), size)
        for key, size, count, pair_lists in _join(per_prime)
    ]


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
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if any(e < 1 for e in exponents):
        raise ValueError("component exponents must be >= 1")
    _check_cap(cap, (e + 1 for e in exponents), "reduced forms")
    return _summaries([_p_orbits(p, exponents)])


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
    primes = G.primes()
    exponents = list(map(G.primary_exponents, primes))
    blocks = list(map(_blocks, exponents))
    # the orbits are counted before any is built
    _check_cap(cap, (_count_antichains(es, cap) for es, _, _ in blocks), "orbits")
    return [
        CensusRow(key, ReducedForm(firsts), count, size)
        for key, size, count, firsts in _join(map(_p_census, primes, exponents, blocks))
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
    primes = G.primes()
    exponents = list(map(G.primary_exponents, primes))
    _check_cap(cap, (e + 1 for exps in exponents for e in exps), "reduced forms")
    if len(primes) == 1:
        return p_group_orbits(primes[0], exponents[0], cap)
    return _summaries(list(map(_p_orbits, primes, exponents)))
