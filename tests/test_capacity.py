"""The one capacity policy: every capped entry point calls errors.check_cap
before any costly or cached work."""

import pytest

from autorbit import oracle
from autorbit.errors import CapacityExceeded
from autorbit.groups import make_group
from autorbit.orbits import enumerate_orbits, orbit_census, p_group_orbits

G24 = make_group([2, 4])
X, Y = G24.element([1, 1]), G24.element([0, 1])

CAPPED = {
    "p_group_orbits": lambda cap: p_group_orbits(2, (1, 2), cap),
    "orbit_census": lambda cap: orbit_census(G24, cap),
    "enumerate_orbits": lambda cap: enumerate_orbits(G24, cap),
    "enumerate_automorphisms": lambda cap: oracle.enumerate_automorphisms(G24, cap),
    "is_automorphic_image_bruteforce": lambda cap: oracle.is_automorphic_image_bruteforce(G24, X, Y, cap),
    "brute_orbits": lambda cap: oracle.brute_orbits(G24, cap),
    "brute_quotient_key": lambda cap: oracle.brute_quotient_key(G24, X, cap),
    "brute_quotient_keys": lambda cap: oracle.brute_quotient_keys(G24, cap),
}


@pytest.mark.parametrize("cap", [0, -1])
@pytest.mark.parametrize("entry", sorted(CAPPED))
def test_cap_below_one_is_a_value_error(entry, cap):
    # the oracle used to raise CapacityExceeded here, the orbit builders ValueError
    with pytest.raises(ValueError, match="cap must be >= 1"):
        CAPPED[entry](cap)
    CAPPED[entry](64)  # |G|^rank = 64 is the largest count here


def test_search_cap_message_never_prints_the_product():
    # 2^20000 to the 20000th power used to be computed in full (2.2 s, 182 MB)
    # and then failed to print: the product has more digits than str allows
    G = make_group([2] * 20000)
    x = G.identity()
    for call in (
        lambda: oracle.enumerate_automorphisms(G),
        lambda: oracle.is_automorphic_image_bruteforce(G, x, x),
        lambda: oracle.brute_orbits(G),
    ):
        with pytest.raises(CapacityExceeded) as caught:
            call()
        message = str(caught.value)
        assert len(message) < 200 and "automorphism search space" in message
        assert str(oracle.DEFAULT_CAP) in message


def test_unequal_orders_build_no_table():
    # C2^4 is within the cap; x has order 2 and y order 1
    G = make_group([2, 2, 2, 2])
    oracle._raw_automorphisms.cache_clear()
    assert not oracle.is_automorphic_image_bruteforce(G, G.element([1, 0, 0, 0]), G.identity())
    assert oracle._raw_automorphisms.cache_info().misses == 0


def test_tables_are_cached_by_presentation_not_cap():
    oracle._raw_automorphisms.cache_clear()
    assert oracle.brute_orbits(G24) == oracle.brute_orbits(G24, cap=10**8)
    info = oracle._raw_automorphisms.cache_info()
    assert (info.misses, info.hits) == (1, 1)
