import copy
import gc
import math
import pickle
import random
import time

import pytest

from _support import (
    divisor_count,
    exponent_multisets,
    groups_up_to,
    reference_orbits,
    reference_p_group_orbits,
)
from autorbit.equivalence import are_automorphic, quotient_key
from autorbit.errors import CapacityExceeded, DimensionMismatch, InvalidValuation
from autorbit.fastquot import canonical_points, p_group_quotient
from autorbit.groups import make_group
from autorbit.oracle import brute_orbits, brute_quotient_keys
from autorbit.orbits import (
    CensusRow,
    OrbitSummary,
    ReducedForm,
    enumerate_orbits,
    orbit_census,
    p_group_orbits,
    reduced_form,
)


def test_reduced_form_strips_units():
    G = make_group([4, 8])
    assert reduced_form(G, G.element([3, 6])).parts == ((2, (0, 1)),)


def test_reduced_form_identity_clamps_to_exponents():
    G = make_group([4, 8, 9])
    rf = reduced_form(G, G.identity())
    assert dict(rf.parts) == {2: (2, 3), 3: (2,)}


def test_reduced_form_worked_example():
    G = make_group([2, 4, 8, 8])
    rf = reduced_form(G, G.element([2, 1, 2, 4]))
    assert dict(rf.parts) == {2: (1, 0, 1, 2)}


def test_realize_round_trips():
    for G in groups_up_to(60):
        for x in G.elements():
            rf = reduced_form(G, x)
            assert reduced_form(G, rf.realize(G)) == rf
    assert ReducedForm(()).realize(make_group([1])).coords == (0,)


BAD_FORMS = [
    ([4], ((2, (-1,)),), InvalidValuation),  # used to give the coordinate 0.5
    ([4], ((2, (3,)),), InvalidValuation),  # used to give the identity
    ([4], ((3, (1,)),), DimensionMismatch),  # used to raise a bare KeyError
    ([4], ((2, (1, 1)),), DimensionMismatch),  # used to raise a bare ValueError
    ([6], ((2, (0,)),), DimensionMismatch),  # no 3-part: used to give 1
    ([12, 9], ((3, (1, 0)),), DimensionMismatch),  # no 2-part: used to give (0, 1)
    ([6], ((2, (0,)), (2, (0,))), DimensionMismatch),  # right length, wrong primes
    ([4], ((2, (1.5,)),), TypeError),  # used to give the coordinate 2.828...
]


# The ids leave out the group, so each case keeps one stable name as cases are added.
@pytest.mark.parametrize(
    "moduli, parts, error",
    BAD_FORMS,
    ids=[f"parts{i}-{error.__name__}" for i, (_, _, error) in enumerate(BAD_FORMS)],
)
def test_realize_rejects_bad_forms(moduli, parts, error):
    with pytest.raises(error):
        ReducedForm(parts).realize(make_group(moduli))


def test_p_group_orbits_cyclic_four():
    orbits = p_group_orbits(2, (2,))
    assert [(o.quotient_key.describe_invariant(), o.size) for o in orbits] == [
        ("C1", 2),
        ("C2", 1),
        ("C4", 1),
    ]
    # brute-force confirmation: Aut(C4) = {1, 3} partitions {0},{2},{1,3}
    partition = {frozenset(e.coords[0] for e in o) for o in brute_orbits(make_group([4]))}
    assert partition == {frozenset({0}), frozenset({2}), frozenset({1, 3})}


def test_p_group_orbits_two_by_four():
    orbits = p_group_orbits(2, (1, 2))
    assert sum(len(o.representatives) for o in orbits) == 6
    assert [o.size for o in orbits] == [4, 2, 1, 1]
    sizes = sorted(len(o) for o in brute_orbits(make_group([2, 4])))
    assert sizes == sorted(o.size for o in orbits)


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_p_group_orbits_prime_cyclic(p):
    orbits = p_group_orbits(p, (1,))
    assert [o.size for o in orbits] == [p - 1, 1]


def test_p_group_orbits_rejects_bad_exponents():
    with pytest.raises(ValueError):
        p_group_orbits(2, (0, 1))


# p = 4 used to report "C4" orbits of sizes 3 and 1, and p = 0 a size of -1
@pytest.mark.parametrize("p", [0, 1, 4, 6])
def test_p_group_orbits_rejects_non_prime(p):
    with pytest.raises(ValueError):
        p_group_orbits(p, (1,))


def test_p_group_orbits_sweeps_once_per_orbit(monkeypatch):
    calls = []

    def counting(fs, es):
        calls.append(fs)
        return p_group_quotient(fs, es)

    monkeypatch.setattr("autorbit.orbits.p_group_quotient", counting)
    found = p_group_orbits(2, (1, 2, 2, 3))
    assert len(calls) == len(found)


def test_enumerate_orbits_c6():
    orbits = enumerate_orbits(make_group([6]))
    assert sorted(o.size for o in orbits) == [1, 1, 2, 2]
    assert sum(o.size for o in orbits) == 6
    # Aut(C6) has order 2
    assert len(brute_orbits(make_group([6]))) == 4


def test_enumerate_orbits_trivial_group():
    for mods in ([], [1], [1, 1]):
        orbits = enumerate_orbits(make_group(mods))
        assert len(orbits) == 1
        assert orbits[0].size == 1
        assert orbits[0].quotient_key.is_trivial()


@pytest.mark.parametrize(
    "moduli",
    [
        (2, 4, 8, 16),  # distinct exponents: one sweep per form
        (32, 2, 8),
        (4, 4, 4),  # repeated exponents: one sweep per multiset
        (2, 2, 2, 2, 2, 2),
        (8, 8, 8, 8),
        (2, 8, 4, 8, 4),  # mixed classes, shuffled positions
        (9, 3, 27, 9, 3),
        (12, 18, 10),  # several primes
        (4, 4, 9, 3, 5),
        (8, 2, 45, 15, 7),
        (12, 12, 90, 90),  # three primes, repeated blocks at 2 and 3
        (2,),  # rank 1
        (64,),
        (3**5,),
        (),  # trivial
        (1,),
        (1, 1),
    ],
)
def test_matches_per_form_reference(moduli):
    # exact list equality: orbit order, representative order, keys and sizes
    G = make_group(moduli)
    assert enumerate_orbits(G) == reference_orbits(G)


def test_matches_per_form_reference_small_groups():
    for G in groups_up_to(128):
        assert enumerate_orbits(G) == reference_orbits(G), G


def test_cyclic_orbit_count_is_divisor_count():
    for n in range(1, 1001):
        orbits = enumerate_orbits(make_group([n]))
        assert len(orbits) == divisor_count(n), n


def test_sizes_sum_to_group_order():
    for G in groups_up_to(400):
        orbits = enumerate_orbits(G)
        assert sum(o.size for o in orbits) == G.order, G


def test_matches_brute_partition():
    for G in groups_up_to(48):
        if G.order ** G.rank > 10**7:
            continue
        summaries = enumerate_orbits(G)
        lookup = {}
        for i, s in enumerate(summaries):
            for rf in s.representatives:
                lookup[rf] = i
        ours = {}
        for x in G.elements():
            ours.setdefault(lookup[reduced_form(G, x)], set()).add(x.coords)
        brute = {frozenset(e.coords for e in o) for o in brute_orbits(G)}
        assert {frozenset(v) for v in ours.values()} == brute, G
        for i, s in enumerate(summaries):
            assert len(ours[i]) == s.size


@pytest.mark.parametrize("moduli", [(2, 2, 2, 4), (4, 4, 4)])
def test_brute_orbits_match_keys_and_sizes(moduli):
    # C2^3 x C4 (21,504 automorphisms, the most of any order-32 class within
    # the default cap) and C4^3 (86,016, the most at |G| <= 64): each
    # brute-force orbit holds one brute-force quotient key, and the
    # (key, size) pairs are enumerate_orbits'
    G = make_group(moduli)
    keys = brute_quotient_keys(G)
    brute = {}
    for orbit in brute_orbits(G):
        found = {keys[e.coords] for e in orbit}
        assert len(found) == 1, orbit
        brute[found.pop()] = len(orbit)
    summaries = enumerate_orbits(G)
    assert len(brute) == len(summaries)
    assert brute == {s.quotient_key: s.size for s in summaries}


def test_consistent_with_pairwise_equivalence():
    # two elements share an OrbitSummary iff are_automorphic says so; checking
    # the summary-id -> key map is well-defined and injective is equivalent to
    # the all-pairs statement, so |G| <= 128 is exhaustive and cheap
    for G in groups_up_to(128):
        summaries = enumerate_orbits(G)
        lookup = {}
        for i, s in enumerate(summaries):
            for rf in s.representatives:
                lookup[rf] = i
        key_of_id: dict[int, object] = {}
        for x in G.elements():
            i = lookup[reduced_form(G, x)]
            key = quotient_key(G, x)
            assert key_of_id.setdefault(i, key) == key, (G, x)
        keys = list(key_of_id.values())
        assert len(set(keys)) == len(keys), G
    # and the public pairwise API on one mid-size group, all pairs
    G = make_group([4, 8])
    summaries = enumerate_orbits(G)
    lookup = {}
    for i, s in enumerate(summaries):
        for rf in s.representatives:
            lookup[rf] = i
    elems = list(G.elements())
    for x in elems:
        for y in elems:
            same = lookup[reduced_form(G, x)] == lookup[reduced_form(G, y)]
            assert are_automorphic(G, x, y) == same


def test_orbit_count_multiplicative_over_coprime_parts():
    pairs = [((4, 2), (9,)), ((8,), (3, 3)), ((5,), (7,)), ((2, 2), (27,))]
    for left, right in pairs:
        combined = enumerate_orbits(make_group(left + right))
        a = enumerate_orbits(make_group(left))
        b = enumerate_orbits(make_group(right))
        assert len(combined) == len(a) * len(b)
        assert sorted(o.size for o in combined) == sorted(
            x.size * y.size for x in a for y in b
        )


def test_representative_count_is_divisor_product():
    for mods in [(4,), (2, 4), (6, 4), (12, 10), (8, 9, 5)]:
        G = make_group(mods)
        summaries = enumerate_orbits(G)
        touched = sum(len(s.representatives) for s in summaries)
        assert touched == math.prod(divisor_count(d) for d in mods)


def test_capacity_cap_enforced():
    with pytest.raises(CapacityExceeded):
        enumerate_orbits(make_group([2, 4]), cap=2)
    with pytest.raises(CapacityExceeded):
        p_group_orbits(2, (1, 2), cap=5)


def test_cap_below_one_is_value_error():
    G = make_group([4, 4])
    for cap in (0, -5):
        with pytest.raises(ValueError):
            enumerate_orbits(G, cap=cap)
        with pytest.raises(ValueError):
            p_group_orbits(2, (2, 2), cap=cap)
        with pytest.raises(ValueError):
            orbit_census(G, cap=cap)
    # the trivial group has one orbit, but a cap below 1 is still refused
    for mods in ([], [1]):
        with pytest.raises(ValueError):
            enumerate_orbits(make_group(mods), cap=0)
        with pytest.raises(ValueError):
            orbit_census(make_group(mods), cap=0)


@pytest.mark.parametrize("moduli", [(8, 2, 45, 15, 7), (8, 8, 8, 8)])
def test_bulk_built_forms_behave_like_constructed(moduli):
    for s in enumerate_orbits(make_group(moduli)):
        for rf in s.representatives:
            assert type(rf) is ReducedForm
            built = ReducedForm(rf.parts)
            assert rf == built and hash(rf) == hash(built) and repr(rf) == repr(built)
            assert pickle.loads(pickle.dumps(rf)) == rf
            assert copy.deepcopy(rf) == rf
            with pytest.raises(AttributeError):
                rf.parts = ()


def test_orbit_summary_fields():
    s = enumerate_orbits(make_group([4]))[0]
    assert isinstance(s, OrbitSummary)
    assert s.size >= 1
    assert all(isinstance(rf, ReducedForm) for rf in s.representatives)


def test_all_representatives_map_to_summary_key():
    for G in groups_up_to(60):
        for s in enumerate_orbits(G):
            for rf in s.representatives:
                assert quotient_key(G, rf.realize(G)) == s.quotient_key, (G, rf)


# Every exponent multiset up to this many reduced forms (457 of them, rank <= 6),
# in three position orders; 3000 would take 30,169 multisets and 51M forms per order.
DIFFERENTIAL_MAX_FORMS = 120


@pytest.mark.parametrize("p", [2, 3])
def test_p_group_orbits_match_canonical_points_reference(p):
    rng = random.Random(13)
    for ascending in exponent_multisets(DIFFERENTIAL_MAX_FORMS):
        shuffled = list(ascending)
        rng.shuffle(shuffled)
        for exponents in {ascending, ascending[::-1], tuple(shuffled)}:
            found = p_group_orbits(p, exponents)
            expected, antichains = reference_p_group_orbits(p, exponents)
            assert found == expected, exponents
            # the closed-form expansion keeps canonical_points a live oracle
            for orbit, points in zip(found, antichains):
                for rf in orbit.representatives:
                    assert canonical_points(rf.parts[0][1], exponents) == points


def test_census_matches_enumerate_orbits():
    for G in groups_up_to(128):
        summaries = enumerate_orbits(G)
        # the cap counts orbits exactly
        rows = orbit_census(G, cap=len(summaries))
        if len(summaries) > 1:
            with pytest.raises(CapacityExceeded):
                orbit_census(G, cap=len(summaries) - 1)
        assert len(rows) == len(summaries), G
        for row, s in zip(rows, summaries):
            assert isinstance(row, CensusRow)
            assert row.first == s.representatives[0], G
            assert row.form_count == len(s.representatives), G
            assert (row.size, row.quotient_key) == (s.size, s.quotient_key), G


@pytest.mark.parametrize(
    "moduli, orbit_count",
    [
        ([2**k for k in range(1, 10)] * 50, 512),  # rank 450, 9 distinct exponents
        ([4] * 512, 3),
    ],
    ids=["2-to-512-x50", "C4^512"],
)
def test_census_is_closed_form_past_the_form_cap(moduli, orbit_count):
    G = make_group(moduli)
    start = time.perf_counter()
    rows = orbit_census(G)
    elapsed = time.perf_counter() - start
    assert len(rows) == orbit_count
    assert sum(r.size for r in rows) == G.order
    assert sum(r.form_count for r in rows) == math.prod(divisor_count(d) for d in moduli)
    assert elapsed < 1.0
    # p_group_orbits writes every form out, so the form cap still stops it
    with pytest.raises(CapacityExceeded):
        p_group_orbits(2, G.primary_exponents(2))


def test_orbit_builders_leave_no_cyclic_garbage():
    # an antichain recursion whose frames reached themselves through a
    # reference cycle would keep its antichain list or memo alive until the
    # next collection.  The enumerators run with the collector paused, which
    # is sound only while no path of theirs makes a cycle: blocks of
    # multiplicity 1 pin their point, larger blocks filter the product with
    # tee and compress, and both must leave nothing for the collector.
    census_group = make_group([2**k for k in range(1, 10)] * 50)
    builds = [
        lambda: orbit_census(census_group),
        lambda: enumerate_orbits(make_group([8, 4, 2, 9, 3, 5, 25])),
        lambda: p_group_orbits(2, (2, 2, 3)),
        lambda: enumerate_orbits(make_group([4, 4, 8, 9, 9])),
    ]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for build in builds:
            build()
            assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_enumerators_restore_the_collector(monkeypatch):
    G = make_group([8, 9, 5])
    enabled = gc.isenabled()
    try:
        for on in (True, False):
            gc.enable() if on else gc.disable()
            enumerate_orbits(G)
            assert gc.isenabled() is on
            p_group_orbits(2, (2, 2, 3))
            assert gc.isenabled() is on
        gc.enable()
        # the build runs paused, and a build that raises resumes the collector
        seen = []

        def failing_many(values, count):
            seen.append(gc.isenabled())
            raise RuntimeError("build failed")

        with monkeypatch.context() as patch:
            patch.setattr(ReducedForm, "_many", failing_many)
            for build in (lambda: enumerate_orbits(G), lambda: p_group_orbits(3, (2,))):
                with pytest.raises(RuntimeError, match="build failed"):
                    build()
                assert gc.isenabled()
        assert seen == [False, False]
        # an over-cap call fails before it touches the collector
        toggles = []
        with monkeypatch.context() as patch:
            patch.setattr(gc, "disable", lambda: toggles.append("disable"))
            patch.setattr(gc, "enable", lambda: toggles.append("enable"))
            with pytest.raises(CapacityExceeded):
                enumerate_orbits(G, cap=15)
            with pytest.raises(CapacityExceeded):
                p_group_orbits(2, (2, 2, 3), cap=35)
        assert toggles == []
        assert gc.isenabled()
    finally:
        gc.enable() if enabled else gc.disable()


def test_census_cap_bounds_orbits():
    assert len(orbit_census(make_group([2, 4]), cap=4)) == 4
    with pytest.raises(CapacityExceeded):
        orbit_census(make_group([2, 4]), cap=3)
    # C2 x C3 x C9 has 2 * 4 = 8 orbits; the cap counts their product
    assert len(orbit_census(make_group([2, 3, 9]), cap=8)) == 8
    with pytest.raises(CapacityExceeded):
        orbit_census(make_group([2, 3, 9]), cap=7)
    assert len(orbit_census(make_group([4] * 512), cap=3)) == 3
    # 40 distinct exponents give about 2^40 orbits: counted, not built, before failing
    start = time.perf_counter()
    with pytest.raises(CapacityExceeded):
        orbit_census(make_group([2**k for k in range(1, 41)]))
    assert time.perf_counter() - start < 1.0
