"""The public operations are pure functions over immutable values, so
concurrent callers must see exactly the serial results."""

import gc
import random
from concurrent.futures import ThreadPoolExecutor

from autorbit.equivalence import quotient_key
from autorbit.groups import make_group
from autorbit.orbits import enumerate_orbits


def test_concurrent_quotients_match_serial():
    rng = random.Random(5)
    cases = []
    for _ in range(300):
        rank = rng.randint(1, 5)
        moduli = [rng.randint(1, 96) for _ in range(rank)]
        G = make_group(moduli)
        x = G.element([rng.randrange(d) for d in moduli])
        cases.append((G, x))
    serial = [
        (quotient_key(G, x, "fast"), quotient_key(G, x, "snf")) for G, x in cases
    ]
    with ThreadPoolExecutor(max_workers=8) as pool:
        fast = list(pool.map(lambda c: quotient_key(c[0], c[1], "fast"), cases))
        snf = list(pool.map(lambda c: quotient_key(c[0], c[1], "snf"), cases))
    assert list(zip(fast, snf)) == serial


def test_concurrent_orbit_enumeration_shares_group():
    G = make_group([8, 9, 5])
    expected = enumerate_orbits(G)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: enumerate_orbits(G), range(16)))
    assert all(r == expected for r in results)
    # each call that paused the collector resumed it, whatever the interleaving
    assert gc.isenabled()
