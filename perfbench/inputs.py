"""Seeded input generators for the four workloads.

Every generator draws from ``random.Random`` seeded with a string built from
the workload name and the seed, so one seed gives the same inputs in every
process. Inputs are plain tuples of integers; the program sees only them.

Pairs carry the answer their construction fixes: an explicit automorphism
(unit scalings, swaps of coordinates with equal moduli, transvections
``x_j += t*x_i`` with ``d_j | t*d_i``) means "equivalent"; a different order
or a different height sequence means "not equivalent". The decide workload
confirms every answer with ``reference`` after its timed loop.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

import reference as ref
from reference import Factors

# Cyclic orders are drawn from 2..720, by number of distinct prime factors:
# prime powers, and composites of two and of three primes.
ORDER_MAX = 720
FACTORS = {n: ref.factor_small(n) for n in range(1, ORDER_MAX + 1)}
BY_PRIMES = {k: tuple(n for n in range(2, ORDER_MAX + 1) if len(FACTORS[n]) == k) for k in (1, 2, 3)}
PRIME_POWERS = BY_PRIMES[1]
COMPOSITES = BY_PRIMES[2] + BY_PRIMES[3]

PAIR_KINDS = ("equal_histogram", "transvection", "same_order", "other_order")


@dataclass(frozen=True)
class Pair:
    moduli: tuple[int, ...]
    factors: tuple[Factors, ...]
    x: tuple[int, ...]
    y: tuple[int, ...]
    kind: str
    expected: bool


def rng_for(workload: str, seed: int, *parts: object) -> random.Random:
    return random.Random("/".join([workload, str(seed), *map(str, parts)]))


# --- elements and automorphisms ---------------------------------------------


_DIVISORS = {d: tuple(k for k in range(1, d + 1) if d % k == 0) for d in range(1, ORDER_MAX + 1)}


def random_divisor(d: int, factors: Factors, rng: random.Random) -> int:
    if d <= ORDER_MAX:
        return rng.choice(_DIVISORS[d])
    return math.prod(p ** rng.randint(0, e) for p, e in factors)


def random_element(moduli: Sequence[int], factors: Sequence[Factors], rng: random.Random) -> tuple[int, ...]:
    """Each coordinate is a random multiple of a random divisor of its modulus,
    so valuations spread over 0..e instead of clustering at units."""
    return tuple(
        (rng.randrange(1, d) * random_divisor(d, fs, rng)) % d if d > 1 else 0
        for d, fs in zip(moduli, factors)
    )


_UNITS = {d: tuple(u for u in range(1, d) if math.gcd(u, d) == 1) for d in range(2, ORDER_MAX + 1)}


def element_for(kind: str, moduli: Sequence[int], factors: Sequence[Factors], rng: random.Random) -> tuple[int, ...] | None:
    """A random element to build a pair of this kind from.

    For "same_order" the element's p-part, at a prime p with two distinct
    exponents e >= m, gets order p^m with m drawn below the second largest
    exponent: elements of that order then fall in more than one orbit. (At
    high rank a random element has maximal order at every prime, and all
    such elements of one order are automorphic.) None when no prime has two
    distinct exponents.
    """
    x = random_element(moduli, factors, rng)
    if kind != "same_order":
        return x
    exps = ref.primary_exponents(factors)
    primes = [p for p, es in exps.items() if len(set(es)) > 1]
    if not primes:
        return None
    p = rng.choice(primes)
    m = rng.randint(1, sorted(set(exps[p]))[-2])
    slots = [(i, e) for i, fs in enumerate(factors) for q, e in fs if q == p]
    vals = {i: rng.randint(max(0, e - m), e) for i, e in slots}
    i0, e0 = rng.choice([(i, e) for i, e in slots if e >= m])
    vals[i0] = e0 - m
    return _set_p_part(moduli, x, p, slots, vals, rng)


def _set_p_part(moduli, base, p, slots, vals, rng) -> tuple[int, ...]:
    """base with its p-primary residues replaced by units times p^vals[i]."""
    y = list(base)
    for i, e in slots:
        pe = p**e
        rest = moduli[i] // pe
        res = (random_unit(pe, rng) * p ** vals[i]) % pe
        y[i] = ref.crt([(pe, res), (rest, base[i] % rest)]) if rest > 1 else res
    return tuple(y)


def random_unit(d: int, rng: random.Random) -> int:
    if d == 1:
        return 0
    if d <= ORDER_MAX:
        return rng.choice(_UNITS[d])
    while True:
        u = rng.randrange(1, d)
        if math.gcd(u, d) == 1:
            return u


def scale_and_permute(moduli: Sequence[int], x: Sequence[int], rng: random.Random) -> tuple[int, ...]:
    """An automorphism that keeps the valuation histogram: a unit per
    coordinate, then a shuffle within each set of equal moduli."""
    y = [(random_unit(d, rng) * c) % d if d > 1 else 0 for d, c in zip(moduli, x)]
    by_modulus: dict[int, list[int]] = {}
    for i, d in enumerate(moduli):
        by_modulus.setdefault(d, []).append(i)
    out = list(y)
    for idx in by_modulus.values():
        values = [y[i] for i in idx]
        rng.shuffle(values)
        for i, v in zip(idx, values):
            out[i] = v
    return tuple(out)


def transvect(moduli: Sequence[int], x: Sequence[int], i: int, j: int, k: int) -> tuple[int, ...]:
    """x_j += t*x_i with t = k*d_j/gcd(d_i, d_j), so that d_j | t*d_i and the
    map is an automorphism."""
    di, dj = moduli[i], moduli[j]
    t = k * dj // math.gcd(di, dj)
    y = list(x)
    y[j] = (x[j] + t * x[i]) % dj
    return tuple(y)


def _coordinate_pairs(fs: Factors, c: int) -> tuple[tuple[int, int], ...]:
    return tuple(ref.p_pairs((fs,), (c,), p)[0] for p, _ in fs)


def with_new_histogram(
    moduli: Sequence[int], factors: Sequence[Factors], x: Sequence[int], rng: random.Random, tries: int = 60
) -> tuple[int, ...] | None:
    """A transvection image of a unit-scaled x whose valuation histogram
    differs from x's, or None when the draws find none. A transvection
    changes one coordinate, so comparing that coordinate's valuations
    decides whether the histogram moved."""
    n = len(moduli)
    if n < 2:
        return None
    base = scale_and_permute(moduli, x, rng)
    for _ in range(tries):
        i, j = rng.sample(range(n), 2)
        if moduli[j] == 1:
            continue
        z = transvect(moduli, base, i, j, rng.randrange(1, moduli[j]))
        if _coordinate_pairs(factors[j], z[j]) != _coordinate_pairs(factors[j], base[j]):
            return z
    return None


def with_new_heights(
    moduli: Sequence[int], factors: Sequence[Factors], x: Sequence[int], rng: random.Random
) -> tuple[int, ...] | None:
    """An element of the same order as x whose height sequence differs at one
    prime p, or None if no candidate shape gives one. The p-part of the new
    element is one or two nonzero coordinates: a corner p^(e-m) in a
    component of exponent e >= m (p^m the order of x's p-part), optionally
    with a second live coordinate. Other primes' parts are unit multiples of
    x's."""
    base = scale_and_permute(moduli, x, rng)
    primes = [p for p, hs in ref.signature(factors, x) if hs]
    rng.shuffle(primes)
    for p in primes:
        slots = [(i, e) for i, fs in enumerate(factors) for q, e in fs if q == p]
        target = ref.heights(ref.p_pairs(factors, x, p))
        m = len(target)
        by_exp: dict[int, list[int]] = {}
        for i, e in slots:
            by_exp.setdefault(e, []).append(i)
        shapes = []
        for e0 in by_exp:
            if e0 < m:
                continue
            shapes.append(((e0, e0 - m),))
            for e1 in by_exp:
                if e1 == e0 and len(by_exp[e0]) < 2:
                    continue
                for f1 in range(max(0, e1 - m), e1):
                    shapes.append(((e0, e0 - m), (e1, f1)))
        shapes = [s for s in shapes if ref.heights((f, e) for e, f in s) != target]
        if not shapes:
            continue
        shape = rng.choice(shapes)
        free = {e: rng.sample(idx, len(idx)) for e, idx in by_exp.items()}
        vals = {i: e for i, e in slots}  # zero residue everywhere ...
        for e, f in shape:  # ... except the shape's live coordinates
            vals[free[e].pop()] = f
        return _set_p_part(moduli, base, p, slots, vals, rng)
    return None


def with_other_order(
    moduli: Sequence[int], factors: Sequence[Factors], x: Sequence[int], rng: random.Random
) -> tuple[int, ...] | None:
    """q times a unit-scaled x, for a prime q dividing the order of x."""
    primes = [p for p, hs in ref.signature(factors, x) if hs]
    if not primes:
        return None
    q = rng.choice(primes)
    base = scale_and_permute(moduli, x, rng)
    return tuple((q * c) % d if d > 1 else 0 for d, c in zip(moduli, base))


_BUILDERS = {
    "equal_histogram": (lambda moduli, _factors, x, rng: scale_and_permute(moduli, x, rng), True),
    "transvection": (with_new_histogram, True),
    "same_order": (with_new_heights, False),
    "other_order": (with_other_order, False),
}


def make_pair(
    kind: str, moduli: Sequence[int], factors: Sequence[Factors], x: Sequence[int], rng: random.Random
) -> Pair | None:
    """A pair of the given kind built from x, or None when x cannot make one.
    The expected answer is the one the construction fixes."""
    build, expected = _BUILDERS[kind]
    moduli, factors, x = tuple(moduli), tuple(factors), tuple(x)
    y = build(moduli, factors, x, rng)
    if y is None:
        return None
    return Pair(moduli, factors, x, y, kind, expected)


# --- decide -----------------------------------------------------------------

DECIDE_GROUPS = 40
DECIDE_RANK = (4, 512)
DECIDE_PAIRS_PER_KIND = 3


def stratified_log(lo: float, hi: float, n: int, rng: random.Random) -> list[float]:
    """One log-uniform draw from each of n equal slices of [lo, hi] in log
    space, so every seed covers the whole range evenly."""
    a, b = math.log(lo), math.log(hi)
    return [math.exp(a + (b - a) * (k + rng.random()) / n) for k in range(n)]


def log_grid(lo: int, hi: int, n: int) -> list[int]:
    """n ranks at the centres of n equal slices of [lo, hi] in log space."""
    a, b = math.log(lo), math.log(hi)
    return [round(math.exp(a + (b - a) * (k + 0.5) / n)) for k in range(n)]


def decide_inputs(seed: int) -> list[Pair]:
    """DECIDE_GROUPS groups with ranks log-evenly spread over DECIDE_RANK.
    Coordinates take turns drawing their cyclic order from the prime powers,
    the composites of two primes and those of three, so every group has two
    prime factors per coordinate and its cost follows its rank, not the
    seed. A group gets DECIDE_PAIRS_PER_KIND pairs of every kind; a group
    that cannot give every kind (a same-order pair of another orbit needs a
    prime with two distinct exponents) is drawn again. Returned in a seeded
    shuffle, the order a pass visits them."""
    rng = rng_for("decide", seed)
    pairs = [p for rank in log_grid(*DECIDE_RANK, DECIDE_GROUPS) for p in decide_group(rank, DECIDE_PAIRS_PER_KIND, rng)]
    rng.shuffle(pairs)
    return pairs


def decide_group(rank: int, per_kind: int, rng: random.Random) -> list[Pair]:
    """per_kind pairs of every kind in one group of the given rank."""
    while True:
        moduli = tuple(rng.sample([rng.choice(BY_PRIMES[i % 3 + 1]) for i in range(rank)], rank))
        made = pairs_of_every_kind(moduli, tuple(FACTORS[d] for d in moduli), per_kind, rng)
        if made is not None:
            return made


def pairs_of_every_kind(
    moduli: tuple[int, ...], factors: tuple[Factors, ...], per_kind: int, rng: random.Random
) -> list[Pair] | None:
    """per_kind pairs of each kind in this group, or None if some kind cannot
    be built in it."""
    out = []
    for kind in PAIR_KINDS:
        for _ in range(per_kind):
            for _attempt in range(20):
                x = element_for(kind, moduli, factors, rng)
                if x is None:
                    return None
                pair = make_pair(kind, moduli, factors, x, rng)
                if pair is not None:
                    out.append(pair)
                    break
            else:
                return None
    return out


# --- orbits -----------------------------------------------------------------

ORBIT_FORMS = (1_000, 40_000)
ORBIT_TARGETS = 6
ORBIT_BAND = 0.1
ORBIT_MAX_RANK = 8


def _two_groups() -> Iterator[tuple[int, tuple[int, ...]]]:
    """2-groups with distinct exponents 1..12 and rank 2..8."""
    for r in range(2, ORBIT_MAX_RANK + 1):
        for exps in itertools.combinations(range(1, 13), r):
            yield math.prod(e + 1 for e in exps), tuple(2**e for e in exps)


def _homocyclic() -> Iterator[tuple[int, tuple[int, ...]]]:
    for p in (2, 3, 5, 7):
        for m in range(1, 16):
            for r in range(2, ORBIT_MAX_RANK + 1):
                yield (m + 1) ** r, (p**m,) * r


def _multi_prime() -> Iterator[tuple[int, tuple[int, ...]]]:
    """Invariant-factor chains over two of the primes 2..13 (up to four cyclic
    factors each) or three of 2..7 (up to three), exponents 1..3."""
    specs = [(c, 4) for c in itertools.combinations((2, 3, 5, 7, 11, 13), 2)]
    specs += [(c, 3) for c in itertools.combinations((2, 3, 5, 7), 3)]
    for primes, length in specs:
        chains = [c for k in range(1, length + 1) for c in itertools.combinations_with_replacement((1, 2, 3), k)]
        for combo in itertools.product(chains, repeat=len(primes)):
            forms = math.prod(e + 1 for chain in combo for e in chain)
            width = max(len(c) for c in combo)
            moduli = [1] * width
            for p, chain in zip(primes, combo):
                for j, e in enumerate(chain):
                    moduli[width - len(chain) + j] *= p**e
            yield forms, tuple(moduli)


ORBIT_FAMILIES = (("two_group", _two_groups), ("homocyclic", _homocyclic), ("multi_prime", _multi_prime))


def _shape(moduli: tuple[int, ...]) -> tuple[int, int]:
    return len(moduli), len(ref.primes_of([factors_of(d) for d in moduli]))


def factors_of(d: int) -> Factors:
    return FACTORS[d] if d <= ORDER_MAX else ref.factor_small(d)


def orbit_candidates() -> list[tuple[str, list[tuple[int, tuple[int, ...]]]]]:
    """Per family, (reduced forms, moduli) of every group whose reduced-form
    count is within ORBIT_BAND of ORBIT_FORMS, sorted."""
    lo, hi = ORBIT_FORMS
    return [
        (family, sorted(item for item in build() if lo * (1 - ORBIT_BAND) <= item[0] <= hi * (1 + ORBIT_BAND)))
        for family, build in ORBIT_FAMILIES
    ]


def orbit_targets(k: int) -> list[float]:
    """Reduced-form targets of pass k: one in each of ORBIT_TARGETS equal log
    slices of ORBIT_FORMS, at an offset in the slice that steps by the golden
    ratio from pass to pass. The passes of a run cover the range evenly, so
    no percentile sits on a gap between cost clusters, and every seed gets
    the same targets."""
    a, b = map(math.log, ORBIT_FORMS)
    u = (k * 0.6180339887498949) % 1
    return [math.exp(a + (b - a) * (j + u) / ORBIT_TARGETS) for j in range(ORBIT_TARGETS)]


def orbit_passes(seed: int) -> Iterator[list[tuple[str, tuple[int, ...]]]]:
    """Endless passes of ORBIT_TARGETS fresh groups per family. A target
    takes a seeded group whose count is within ORBIT_BAND of it (the nearest
    group if none is), of the rank and prime count most such groups have,
    since per-form cost grows with rank; its moduli are shuffled."""
    rng = rng_for("orbits", seed)
    candidates = orbit_candidates()
    shapes: dict[tuple[int, ...], tuple[int, int]] = {}
    for k in itertools.count():
        out = []
        for family, items in candidates:
            counts = [forms for forms, _ in items]
            for t in orbit_targets(k):
                near = [m for _, m in items[bisect.bisect_left(counts, t * (1 - ORBIT_BAND)):bisect.bisect_right(counts, t * (1 + ORBIT_BAND))]]
                if not near:
                    near = [min(items, key=lambda item: abs(math.log(item[0] / t)))[1]]
                for m in near:
                    if m not in shapes:
                        shapes[m] = _shape(m)
                kinds = [shapes[m] for m in near]
                common = max(sorted(set(kinds)), key=kinds.count)
                moduli = list(rng.choice([m for m in near if shapes[m] == common]))
                rng.shuffle(moduli)
                out.append((family, tuple(moduli)))
        yield out


# --- verify -----------------------------------------------------------------

VERIFY_MAX_ORDER = 32
# C2^5 is over the oracle's search cap; C2^3 x C4 takes ~4 s of cold Aut(G)
# enumeration, more than every other class together.
VERIFY_EXCLUDED = ((2, 2, 2, 2, 2), (2, 2, 2, 4))
VERIFY_PAIRS = 6
VERIFY_SNF_RANK = (16, 64)


@dataclass(frozen=True)
class VerifyCase:
    moduli: tuple[int, ...]
    factors: tuple[Factors, ...]
    pairs: tuple[Pair, ...]
    snf_moduli: tuple[int, ...]
    snf_element: tuple[int, ...]


def verify_classes() -> list[tuple[int, ...]]:
    return [c for c in ref.abelian_classes(VERIFY_MAX_ORDER) if c not in VERIFY_EXCLUDED]


def presentations(divisors: tuple[int, ...], rng: random.Random) -> Iterator[tuple[int, ...]]:
    """Distinct cyclic presentations of the group with these elementary
    divisors: coprime divisors merged in every way and every order first,
    then the same with 1, 2, ... trivial factors inserted."""
    blocks: set[tuple[int, ...]] = set()

    def merge(rest: list[int], acc: list[int]) -> None:
        if not rest:
            blocks.add(tuple(sorted(acc)))
            return
        head, tail = rest[0], rest[1:]
        merge(tail, acc + [head])
        for i, m in enumerate(acc):
            if math.gcd(m, head) == 1:
                merge(tail, acc[:i] + [m * head] + acc[i + 1:])

    merge(list(divisors), [])
    base = sorted({p for b in blocks for p in itertools.permutations(b)})
    for pad in itertools.count():
        layer = sorted({t for m in base for t in _padded(m, pad)})
        rng.shuffle(layer)
        yield from layer


def _padded(m: tuple[int, ...], pad: int) -> Iterator[tuple[int, ...]]:
    n = len(m) + pad
    for spots in itertools.combinations(range(n), pad):
        it = iter(m)
        yield tuple(1 if i in spots else next(it) for i in range(n))


def verify_pairs(moduli: tuple[int, ...], factors: tuple[Factors, ...], rng: random.Random) -> tuple[Pair, ...]:
    """VERIFY_PAIRS pairs: half automorphic images, half elements of another
    orbit; groups with a single orbit get automorphic pairs only."""
    sigs = {z: ref.signature(factors, z) for z in itertools.product(*(range(d) for d in moduli))}
    elements = list(sigs)
    out = []
    for k in range(VERIFY_PAIRS):
        x = rng.choice(elements)
        if k % 2 == 0:
            kind = rng.choice(("equal_histogram", "transvection"))
            pair = make_pair(kind, moduli, factors, x, rng) or make_pair("equal_histogram", moduli, factors, x, rng)
        else:
            others = [y for y in elements if sigs[y] != sigs[x]]
            if others:
                y = rng.choice(others)
                same = ref.element_order(moduli, x) == ref.element_order(moduli, y)
                pair = Pair(moduli, factors, x, y, "same_order" if same else "other_order", False)
            else:
                pair = make_pair("equal_histogram", moduli, factors, x, rng)
        out.append(pair)
    return tuple(out)


def verify_passes(seed: int) -> Iterator[list[VerifyCase]]:
    """Endless passes over the verify classes. Each pass visits every class
    once, in a seeded order, in a presentation no earlier pass used, with a
    rank-16..64 group for the Smith-normal-form check (ranks stratified over
    the pass)."""
    rng = rng_for("verify", seed)
    classes = verify_classes()
    fresh = {c: presentations(c, rng_for("verify", seed, c)) for c in classes}
    while True:
        order = list(classes)
        rng.shuffle(order)
        ranks = [round(r) for r in stratified_log(*VERIFY_SNF_RANK, len(order), rng)]
        rng.shuffle(ranks)
        cases = []
        for cls, rank in zip(order, ranks):
            moduli = next(fresh[cls])
            factors = tuple(FACTORS[d] for d in moduli)
            pairs = verify_pairs(moduli, factors, rng)
            snf_moduli = tuple(rng.choice(rng.choice((PRIME_POWERS, COMPOSITES))) for _ in range(rank))
            snf_factors = tuple(FACTORS[d] for d in snf_moduli)
            cases.append(VerifyCase(moduli, factors, pairs, snf_moduli, random_element(snf_moduli, snf_factors, rng)))
        yield cases


# --- cli-cold ---------------------------------------------------------------

CLI_TRIAL_BOUND = 10**6
CLI_SMALL_PRIME = (1_100_000, 4_000_000)
CLI_MODULUS_MAX = 10**20
CLI_PASS = ("autoeq", "quotient", "factor") * 4


@dataclass(frozen=True)
class CliOp:
    command: str
    argv: tuple[str, ...]
    moduli: tuple[int, ...]
    factors: tuple[Factors, ...]
    x: tuple[int, ...]
    expected_exit: int


def random_prime(lo: int, hi: int, rng: random.Random) -> int:
    while True:
        n = rng.randrange(lo, hi) | 1
        if ref.is_prime(n):
            return n


def big_modulus(rng: random.Random) -> Factors:
    """s * p * q <= 10**20 with s <= 720 smooth, p a prime just above the
    trial-division bound and q a prime above 10**9, so factoring it needs a
    full trial-division sweep and a Pollard rho split."""
    s = rng.randrange(1, ORDER_MAX + 1)
    p = random_prime(*CLI_SMALL_PRIME, rng)
    q = random_prime(10**9, CLI_MODULUS_MAX // (s * p), rng)
    fs = dict(FACTORS[s])
    fs[p] = fs.get(p, 0) + 1
    fs[q] = fs.get(q, 0) + 1
    return tuple(sorted(fs.items()))


def _fmt(values: Sequence[int]) -> str:
    return ",".join(map(str, values))


def cli_ops(seed: int) -> Iterator[CliOp]:
    """Endless CLI operations in passes of CLI_PASS. Every operation gets a
    fresh large modulus; autoeq alternates equivalent and inequivalent pairs,
    the latter alternating a height change and an order change."""
    rng = rng_for("cli-cold", seed)
    seen: set[int] = set()
    autoeq_count = 0
    for k in itertools.count():
        command = CLI_PASS[k % len(CLI_PASS)]
        while True:
            big = big_modulus(rng)
            n = ref.modulus(big)
            if n not in seen:
                seen.add(n)
                break
        if command == "factor":
            yield CliOp(command, ("factor", str(n)), (n,), (big,), (), 0)
            continue
        if command == "quotient":
            moduli, factors = _cli_group(big, rng)
            x = random_element(moduli, factors, rng)
            yield CliOp(command, ("quotient", "-g", _fmt(moduli), "-x", _fmt(x)), moduli, factors, x, 0)
            continue
        kind = ("equal_histogram", "same_order", "transvection", "other_order")[autoeq_count % 4]
        autoeq_count += 1
        pair = None
        while pair is None:
            moduli, factors = _cli_group(big, rng)
            for _attempt in range(20):
                x = element_for(kind, moduli, factors, rng)
                if x is None:
                    break
                pair = make_pair(kind, moduli, factors, x, rng)
                if pair is not None:
                    break
        argv = ("autoeq", "-g", _fmt(moduli), "-x", _fmt(pair.x), "-y", _fmt(pair.y))
        yield CliOp(command, argv, moduli, factors, pair.x, 0 if pair.expected else 1)


def _cli_group(big: Factors, rng: random.Random) -> tuple[tuple[int, ...], tuple[Factors, ...]]:
    """The large modulus between two cyclic orders from 2..720."""
    a, b = rng.randrange(2, ORDER_MAX + 1), rng.randrange(2, ORDER_MAX + 1)
    return (a, ref.modulus(big), b), (FACTORS[a], big, FACTORS[b])
