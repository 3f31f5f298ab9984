import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _support import groups_up_to
from autorbit import bench, kernels
from autorbit.equivalence import _equal_point_sets, are_automorphic, quotient_key
from autorbit.errors import DimensionMismatch, ForeignElement
from autorbit.fastquot import quotient, sylow_decompose
from autorbit.groups import element_order, make_group, to_invariant_coordinates
from autorbit.oracle import (
    brute_orbits,
    brute_quotient_key,
    enumerate_automorphisms,
    is_automorphic_image_bruteforce,
)
from autorbit.orbits import reduced_form
from autorbit.snf import quotient_by_snf
from test_acceptance import CRITERION_7_RANKS, _counted_work, _in_criterion_7_window, _increment_exponent


def test_unit_scaling_and_swap_are_automorphic():
    G = make_group([4, 4])
    assert are_automorphic(G, G.element([1, 0]), G.element([0, 3]))


def test_distinct_quotients_not_automorphic():
    G = make_group([2, 4])
    x, y = G.element([1, 0]), G.element([0, 2])
    assert quotient_key(G, x).describe_invariant() == "C4"
    assert quotient_key(G, y).describe_invariant() == "C2 x C2"
    assert not are_automorphic(G, x, y)
    # brute confirmation: Aut(C2+C4) has 8 elements and the orbit of (1,0)
    # is {(1,0), (1,2)}
    assert len(enumerate_automorphisms(G)) == 8
    orbit = next(
        o for o in brute_orbits(G) if G.element([1, 0]) in o
    )
    assert {e.coords for e in orbit} == {(1, 0), (1, 2)}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 32])
def test_uniform_family_ones_and_threes(n):
    G = make_group([4] * n)
    assert are_automorphic(G, G.element([1] * n), G.element([3] * n))


def test_quotient_key_dispatch_agrees():
    G = make_group([2, 4, 8, 8])
    x = G.element([2, 1, 2, 4])
    fast = quotient_key(G, x, method="fast")
    snf = quotient_key(G, x, method="snf")
    assert fast == snf
    assert fast.primary_parts == {2: (3, 3, 1)}
    G5 = make_group([5])
    for method in ("fast", "snf"):
        assert quotient_key(G5, G5.element([0]), method).primary_parts == {5: (1,)}
    with pytest.raises(ValueError):
        quotient_key(G, x, method="magic")


def test_are_automorphic_method_param():
    G = make_group([6, 4])
    x, y = G.element([3, 2]), G.element([3, 2])
    assert are_automorphic(G, x, y, method="snf")


def test_dimension_mismatch():
    G = make_group([2, 4])
    H = make_group([2, 4, 8])
    with pytest.raises(DimensionMismatch):
        are_automorphic(G, G.element([1, 1]), H.element([1, 1, 1]))


def test_foreign_element_rejected():
    # x of order 8 in C8 x C8 used to fail the order pre-check against an
    # element of order 4, although both quotients of C4 x C4 are C4
    G = make_group([4, 4])
    x = make_group([8, 8]).element([1, 0])
    with pytest.raises(ForeignElement):
        are_automorphic(G, x, G.element([1, 0]))
    with pytest.raises(ForeignElement):
        are_automorphic(G, G.element([1, 0]), x)
    for method in ("fast", "snf"):
        with pytest.raises(ForeignElement):
            quotient_key(G, x, method)
    with pytest.raises(ForeignElement):
        quotient(G, x)
    with pytest.raises(ForeignElement):
        reduced_form(G, x)
    with pytest.raises(ForeignElement):
        sylow_decompose(G, x)
    with pytest.raises(ForeignElement):
        quotient_by_snf(G, x)
    # a trivial group of the same arity skips the Smith normal form
    with pytest.raises(ForeignElement):
        quotient_by_snf(make_group([1, 1]), x)
    # the oracle used to answer True and C4 x C4 here
    with pytest.raises(ForeignElement):
        is_automorphic_image_bruteforce(G, x, G.element([1, 0]))
    with pytest.raises(ForeignElement):
        is_automorphic_image_bruteforce(G, G.element([1, 0]), x)
    with pytest.raises(ForeignElement):
        brute_quotient_key(G, make_group([8, 8]).element([4, 0]))
    with pytest.raises(ForeignElement):
        to_invariant_coordinates(G, x)
    # apply used to answer (0, 1) in C8 x C8, and (3, 2, 0) for the wider
    # element by truncating its coordinates
    table = enumerate_automorphisms(G)[5]
    with pytest.raises(ForeignElement):
        table.apply(x)
    with pytest.raises(DimensionMismatch):
        table.apply(make_group([4, 4, 4]).element([1, 1, 1]))


def test_arity_checked_before_parent():
    G = make_group([4, 4])
    x = make_group([4, 4, 4]).element([1, 1, 1])
    with pytest.raises(DimensionMismatch):
        quotient(G, x)
    for method in ("fast", "snf"):
        with pytest.raises(DimensionMismatch):
            quotient_key(G, x, method)
    with pytest.raises(DimensionMismatch):
        are_automorphic(G, make_group([8, 8]).element([1, 0]), x)
    with pytest.raises(DimensionMismatch):
        quotient_by_snf(make_group([1, 1]), x)
    # the oracle used to answer True, and the coordinates were truncated
    wide = make_group([4, 4, 4]).element([1, 0, 0])
    with pytest.raises(DimensionMismatch):
        is_automorphic_image_bruteforce(G, wide, G.element([1, 0]))
    with pytest.raises(DimensionMismatch):
        is_automorphic_image_bruteforce(G, make_group([8, 8]).element([1, 0]), wide)
    with pytest.raises(DimensionMismatch):
        brute_quotient_key(G, wide)
    with pytest.raises(DimensionMismatch):
        to_invariant_coordinates(G, wide)


def test_unknown_method_rejected_before_order_precheck():
    # orders 4 and 2 differ, so the pre-check used to answer False first
    G = make_group([4, 4])
    for y in (G.element([2, 0]), G.element([0, 1])):
        with pytest.raises(ValueError):
            are_automorphic(G, G.element([1, 0]), y, method="bogus")


def test_element_of_equal_group_accepted():
    G = make_group([4, 4])
    x = make_group([4, 4]).element([1, 0])
    assert x.parent is not G
    assert are_automorphic(G, x, G.element([0, 3]))
    assert quotient_key(G, x) == quotient(G, x) == quotient_key(G, x, "snf")


def test_equivalence_relation_properties():
    for G in groups_up_to(36):
        elems = list(G.elements())
        keys = {x.coords: quotient_key(G, x) for x in elems}
        for x in elems:
            assert are_automorphic(G, x, x)
        for x, y in itertools.combinations(elems, 2):
            assert are_automorphic(G, x, y) == are_automorphic(G, y, x)
        # transitivity on key classes: same key twice chains
        by_key = {}
        for x in elems:
            by_key.setdefault(keys[x.coords], []).append(x)
        for cls in by_key.values():
            for a, b in zip(cls, cls[1:]):
                assert are_automorphic(G, a, b)


def test_matches_exhaustive_orbit_search_small():
    # |G| <= 64 takes in C2 x C4 x C8, where (1, 2, 1) and (0, 1, 1) have
    # equal order and equal sets of valuations but unequal (valuation,
    # exponent) point sets, and C2 x C3 x C9, where (1, 0, 3) and (1, 1, 0)
    # have equal order, agree at the prime 2 and differ at 3
    for G in groups_up_to(64):
        if G.order ** G.rank > 10**7:
            continue
        orbit_id = {}
        for i, orbit in enumerate(brute_orbits(G)):
            for e in orbit:
                orbit_id[e.coords] = i
        elems = list(G.elements())
        keys = {x.coords: quotient_key(G, x) for x in elems}
        for x, y in itertools.combinations_with_replacement(elems, 2):
            same_orbit = orbit_id[x.coords] == orbit_id[y.coords]
            same_key = keys[x.coords] == keys[y.coords]
            assert same_orbit == same_key, (G, x, y)
            assert are_automorphic(G, x, y) == same_orbit
            if _equal_point_sets(G, x.coords, y.coords):
                assert same_orbit, (G, x, y)


def _count_sweeps(monkeypatch) -> list[int]:
    calls = [0]
    real = kernels.pgroup_sweep

    def counting(fs, es):
        calls[0] += 1
        return real(fs, es)

    monkeypatch.setattr(kernels, "pgroup_sweep", counting)
    return calls


def test_equal_point_sets_decide_without_a_sweep(monkeypatch):
    # rank 512: four C6 coordinates, then C4s.  The transvection that adds 3
    # times coordinate 2 to coordinate 0 takes 2 to 5, so the profile
    # (d_i, gcd(c_i, d_i)) loses (6, 2).  Coordinate 0's points, written
    # (p^f, p^e), go from (2, 2) and (1, 3) to (1, 2) and (1, 3), but the
    # point sets stay the same: the zero coordinate 3 still holds (2, 2), and
    # coordinate 2 already held (1, 2).
    G = make_group([6] * 4 + [4] * 508)
    x = G.element([2, 3, 1, 0] + [1] * 508)
    y = G.element([5, 3, 1, 0] + [1] * 508)
    mods = G.moduli
    assert {(d, math.gcd(c, d)) for c, d in zip(x.coords, mods)} != {
        (d, math.gcd(c, d)) for c, d in zip(y.coords, mods)
    }
    assert quotient_key(G, x) == quotient_key(G, y)
    sweeps = _count_sweeps(monkeypatch)
    assert are_automorphic(G, x, y)
    assert sweeps == [0]


def test_same_order_pair_in_two_orbits_reaches_the_keys(monkeypatch):
    # rank 512, both of order 2: G/<x> is C4^511, G/<y> is C2 x C2 x C4^510
    G = make_group([2] + [4] * 511)
    x = G.element([1] + [0] * 511)
    y = G.element([0, 2] + [0] * 510)
    assert element_order(x) == element_order(y)
    sweeps = _count_sweeps(monkeypatch)
    assert not are_automorphic(G, x, y)
    assert sweeps == [2]  # one sweep per key at the one prime


def test_quotient_key_work_scales_in_criterion_7_window():
    # criterion 7's pair ends at the point-set check, so the sweep's own
    # scaling on the same instance is asserted here, by the same counting
    work = {}
    for rank in CRITERION_7_RANKS:
        G, x, _ = bench.c4_instance(rank)
        work[rank] = _counted_work(lambda: quotient_key(G, x))
    assert _in_criterion_7_window(_increment_exponent(work)), work


def test_maximal_order_elements_share_one_quotient():
    for G in groups_up_to(128):
        exp = G.exponent
        max_keys = {
            quotient_key(G, x) for x in G.elements() if element_order(x) == exp
        }
        assert len(max_keys) == 1, G


@given(
    st.lists(st.integers(2, 12), min_size=1, max_size=3),
    st.randoms(use_true_random=False),
)
def test_equivalence_implies_equal_order(mods, rng):
    G = make_group(mods)
    x = G.element([rng.randrange(d) for d in mods])
    y = G.element([rng.randrange(d) for d in mods])
    if are_automorphic(G, x, y):
        assert element_order(x) == element_order(y)
