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
from autorbit.orbits import ReducedForm, p_group_orbits
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


@pytest.mark.parametrize("fs, es", [([0.5], [1]), ([0], [1.5]), ([1, 0], [2, 2.0])])
def test_p_group_quotient_rejects_non_integers(fs, es):
    # [0.5], [1] used to answer [0.5], and [0], [1.5] the empty list
    with pytest.raises(TypeError):
        p_group_quotient(fs, es)


@pytest.mark.parametrize(
    "fs, es, error",
    [
        ([0.5], [1], TypeError),
        ([0], [1.5], TypeError),
        ([3], [1], InvalidValuation),
        ([0, 4], [3, 3], InvalidValuation),
        ([-1], [2], InvalidValuation),
    ],
)
def test_canonical_points_rejects_bad_values(fs, es, error):
    # [0.5], [1] used to give ((0.5, 1),) and [3], [1] the empty tuple
    with pytest.raises(error):
        canonical_points(fs, es)


# One bad (valuation, exponent) pair per case: which value is bad, the pair,
# and the error every per-prime entry point that takes that value must raise.
BAD_PAIRS = {
    "float-valuation": ("valuation", [1.0], [2], TypeError),
    "float-exponent": ("exponent", [1], [2.0], TypeError),
    "exponent-zero": ("exponent", [0], [0], ValueError),
    "valuation-above-e": ("valuation", [3], [2], InvalidValuation),
    "negative-valuation": ("valuation", [-1], [2], InvalidValuation),
}

# Each entry point, called on (fs, es), and the values it takes from its
# caller: realize reads its exponents from the group, and p_group_orbits takes
# no valuations.  cap=1 is below p_group_orbits' count of reduced forms.
PER_PRIME = {
    "p_group_quotient": (p_group_quotient, {"valuation", "exponent"}),
    "canonical_points": (canonical_points, {"valuation", "exponent"}),
    "ReducedForm.realize": (
        lambda fs, es: ReducedForm(((2, tuple(fs)),)).realize(make_group([2**e for e in es])),
        {"valuation"},
    ),
    "p_group_orbits": (lambda fs, es: p_group_orbits(2, tuple(es), cap=1), {"exponent"}),
}


@pytest.mark.parametrize(
    "entry, case",
    [
        pytest.param(entry, case, id=f"{entry}-{case}")
        for entry, (_, takes) in PER_PRIME.items()
        for case, (bad, *_) in BAD_PAIRS.items()
        if bad in takes
    ],
)
def test_per_prime_entry_points_share_one_contract(entry, case):
    # canonical_points([0], [0]) used to answer (), and p_group_orbits(2,
    # (2.0,), cap=1) raised CapacityExceeded before any type check
    _, fs, es, error = BAD_PAIRS[case]
    with pytest.raises(Exception) as caught:
        PER_PRIME[entry][0](fs, es)
    assert type(caught.value) is error, caught.value


@pytest.mark.parametrize("entry", [p_group_quotient, canonical_points])
def test_per_prime_entry_points_reject_one_shot_iterators(entry):
    # the check used up the iterators, so these used to answer [] and ()
    with pytest.raises(TypeError):
        entry(iter([0, 1]), iter([2, 3]))


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
