import pytest
from hypothesis import given
from hypothesis import strategies as st

from _support import groups_up_to
from autorbit.arith import nu
from autorbit.errors import InvalidValuation
from autorbit.equivalence import quotient_key
from autorbit.fastquot import canonical_points, p_group_quotient, quotient, sylow_decompose
from autorbit.groups import CanonicalGroupKey, element_order, make_group
from autorbit.oracle import brute_quotient_key
from autorbit.snf import quotient_by_snf

pair_lists = st.lists(
    st.integers(1, 9).flatmap(lambda e: st.tuples(st.integers(0, e), st.just(e))),
    min_size=1,
    max_size=8,
)


def test_sweep_worked_example():
    assert p_group_quotient([0, 1, 1, 2], [2, 1, 3, 3]) == [3, 3, 1]


def test_sweep_identity_element():
    es = (2, 1, 3, 3)
    assert p_group_quotient(es, es) == sorted(es, reverse=True)


def test_sweep_two_component_example():
    assert p_group_quotient([0, 1], [1, 2]) == [2]
    G = make_group([2, 4])
    x = G.element([1, 2])
    assert quotient(G, x).primary_parts == {2: (2,)}
    assert quotient_by_snf(G, x) == quotient(G, x)
    assert brute_quotient_key(G, x) == quotient(G, x)


def test_invalid_valuation_rejected():
    with pytest.raises(InvalidValuation):
        p_group_quotient([3], [2])
    with pytest.raises(InvalidValuation):
        p_group_quotient([-1], [2])
    with pytest.raises(ValueError):
        p_group_quotient([0], [0])
    with pytest.raises(ValueError):
        p_group_quotient([0, 1], [2])


def test_quotient_worked_example():
    G = make_group([2, 4, 8, 8])
    assert quotient(G, G.element([2, 1, 2, 4])).primary_parts == {2: (3, 3, 1)}


@pytest.mark.parametrize("n", [2, 7, 12, 360, 10**12])
def test_quotient_cyclic_by_generator_is_trivial(n):
    G = make_group([n])
    assert quotient(G, G.element([1])).is_trivial()


def test_quotient_mixed_primes_against_oracles():
    G = make_group([6, 4])
    x = G.element([3, 2])
    key = quotient(G, x)
    assert key == quotient_by_snf(G, x)
    assert key == brute_quotient_key(G, x)


def test_normalize_valuations_worked_example():
    G = make_group([2, 4, 8, 8])
    fs, es = sylow_decompose(G, G.element([2, 1, 2, 4]))[2]
    assert fs == [1, 0, 1, 2]
    assert es == [1, 2, 3, 3]
    assert sorted(zip(fs, es)) == [(0, 2), (1, 1), (1, 3), (2, 3)]


def test_normalize_valuations_zero_coordinate_clamps():
    G = make_group([4, 4])
    fs, es = sylow_decompose(G, G.element([2, 0]))[2]
    assert list(zip(fs, es)) == [(1, 2), (2, 2)]
    key = quotient(G, G.element([2, 0]))
    assert key == brute_quotient_key(G, G.element([2, 0]))
    assert key.primary_parts == {2: (2, 1)}


@given(pair_lists, st.randoms(use_true_random=False))
def test_sweep_is_permutation_invariant(pairs, rng):
    base = p_group_quotient(*zip(*pairs))
    shuffled = list(pairs)
    rng.shuffle(shuffled)
    assert p_group_quotient(*zip(*shuffled)) == base


def _quotient_remove_variant(G, x):
    """The structural alternative to clamping: drop components where the
    element's coordinate is zero, sweep the rest, reattach the dropped
    exponents to the quotient."""
    primary = {}
    for p in G.primes():
        kept = []
        reattached = []
        for pos, e, pe in G._primary[p]:
            r = x.coords[pos] % pe
            if r == 0:
                reattached.append(e)
            else:
                kept.append((nu(p, r), e))
        exps = []
        if kept:
            exps.extend(p_group_quotient(*zip(*kept)))
        exps.extend(reattached)
        exps = [e for e in exps if e]
        if exps:
            primary[p] = exps
    return CanonicalGroupKey.from_map(primary)


def test_zero_coordinate_clamp_equals_remove_variant():
    for G in groups_up_to(64):
        for x in G.elements():
            assert quotient(G, x) == _quotient_remove_variant(G, x), (G, x)


def test_order_conservation_exhaustive():
    for G in groups_up_to(64):
        for x in G.elements():
            assert quotient(G, x).order() == G.order // element_order(x)


def test_quotient_invariant_under_subgroup_generators():
    # same cyclic subgroup => same quotient: any unit multiple of x must get
    # the same key; exhaustive over |G| <= 256 with one key computed per element
    import math

    for G in groups_up_to(256):
        keys = {x.coords: quotient(G, x) for x in G.elements()}
        for x in G.elements():
            o = element_order(x)
            for k in range(2, o):
                if math.gcd(k, o) == 1:
                    assert keys[(k * x).coords] == keys[x.coords], (G, x, k)


def test_sylow_decompose_empty_for_trivial():
    G = make_group([1, 1])
    assert sylow_decompose(G, G.identity()) == {}


def test_canonical_points_partition_like_quotient_key():
    # within each p-group, equal points <=> equal quotient keys
    for G in groups_up_to(256):
        if len(G.primes()) != 1:
            continue
        (p,) = G.primes()
        key_of_points = {}
        for x in G.elements():
            key = quotient_key(G, x)
            points = canonical_points(*sylow_decompose(G, x)[p])
            assert key_of_points.setdefault(points, key) == key, (G, x)
        keys = list(key_of_points.values())
        assert len(set(keys)) == len(keys), G


def test_canonical_points_drop_zero_dominated_and_repeated_points():
    assert canonical_points([2, 3], [2, 3]) == ()
    assert canonical_points([1, 0, 1, 0], [3, 1, 3, 1]) == ((0, 1), (1, 3))
    assert canonical_points([0, 1], [3, 3]) == ((0, 3),)


def test_canonical_points_rejects_unequal_lengths():
    with pytest.raises(ValueError):
        canonical_points([0, 1], [2])
    with pytest.raises(ValueError):
        canonical_points([0], [2, 2])
