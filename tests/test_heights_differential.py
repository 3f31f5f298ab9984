"""The decision against a route that shares no code with it: Kaplansky's
height sequences, as perfbench/reference.py computes them.

In a finite abelian p-group two elements are automorphic exactly when their
height sequences agree, and reference.automorphic applies that prime by prime
to moduli given with their factorizations, importing nothing from autorbit.
So it checks the decision past where the oracle reaches (|G| <= 64) and at
moduli near 10^20, where snf shares the quotient criterion, factorize and
groups with the fast path.  The pairs come from perfbench/inputs.py's
builders; both modules are imported from their files as they stand.
"""

import importlib
import sys
from pathlib import Path

import pytest

from autorbit.equivalence import are_automorphic
from autorbit.groups import make_group

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

RANKS = (4, 8, 16, 32, 64, 128, 256, 512)
PAIRS_PER_KIND = 6
SNF_MAX_RANK = 64


@pytest.fixture(scope="module")
def bench():
    """perfbench's inputs and reference modules (inputs.py imports reference
    by its bare name, so the directory is on the path while they load)."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("inputs"), importlib.import_module("reference")
    finally:
        sys.path.remove(str(PERFBENCH))


def group_with_big_moduli(inputs, ref, rank, rng):
    """Cyclic orders from 2..720, as the decide workload draws them, plus
    three built from big_modulus's s * p * q <= 10^20 (p a prime just above
    10^6): that modulus, p^2 and p^3.  The p-part is C_p x C_p^2 x C_p^3,
    the smallest p-part with two same-order elements whose sets of
    gcd(c_i, p^e_i) agree while their heights differ, so a decision that
    drops the exponents from its (p^f, p^e) points fails here.  Drawn again
    until every pair kind can be built."""
    while True:
        big = inputs.big_modulus(rng)
        p = next(q for q, _ in big if q > inputs.ORDER_MAX)
        small = [rng.choice(inputs.BY_PRIMES[i % 3 + 1]) for i in range(rank - 3)]
        coords = [(d, inputs.FACTORS[d]) for d in small]
        coords += [(ref.modulus(big), big), (p**2, ((p, 2),)), (p**3, ((p, 3),))]
        rng.shuffle(coords)
        moduli, factors = map(tuple, zip(*coords))
        pairs = inputs.pairs_of_every_kind(moduli, factors, PAIRS_PER_KIND, rng)
        if pairs is not None:
            return moduli, pairs


def test_decision_matches_height_sequences(bench):
    inputs, ref = bench
    rng = inputs.rng_for("heights-differential", 1)
    kinds = dict.fromkeys(inputs.PAIR_KINDS, 0)
    snf_checked = 0
    for rank in RANKS:
        moduli, pairs = group_with_big_moduli(inputs, ref, rank, rng)
        G = make_group(moduli)
        for pair in pairs:
            x, y = G.element(pair.x), G.element(pair.y)
            expected = ref.automorphic(pair.factors, pair.x, pair.y)
            assert expected == pair.expected, pair.kind
            assert are_automorphic(G, x, y) == expected, (pair.kind, moduli, pair.x, pair.y)
            if rank <= SNF_MAX_RANK:
                assert are_automorphic(G, x, y, method="snf") == expected, (pair.kind, moduli)
                snf_checked += 1
            kinds[pair.kind] += 1
    assert kinds == dict.fromkeys(inputs.PAIR_KINDS, len(RANKS) * PAIRS_PER_KIND)
    assert snf_checked >= 4 * len(inputs.PAIR_KINDS) * PAIRS_PER_KIND
