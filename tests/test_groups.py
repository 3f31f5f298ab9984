import copy
import math
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _support import (
    brute_element_order,
    cyclic_presentations,
    groups_up_to,
    order_census,
)
from autorbit.bench import BenchRow, PowerFit
from autorbit.errors import DimensionMismatch, ForeignElement, NonPositiveModulus
from autorbit.fastquot import sylow_decompose
from autorbit.groups import (
    CanonicalGroupKey,
    GroupElement,
    element_order,
    make_group,
    to_invariant_coordinates,
)
from autorbit.oracle import EndomorphismTable
from autorbit.orbits import OrbitSummary, ReducedForm

moduli_lists = st.lists(st.integers(1, 64), min_size=0, max_size=5)


def test_make_group_reorders_prime_powers():
    G = make_group([8, 2, 4])
    assert G.invariant_factors == (2, 4, 8)
    assert G.canonical.primary_parts == {2: (3, 2, 1)}


def test_make_group_trivial():
    G = make_group([1])
    assert G.invariant_factors == ()
    assert G.canonical.is_trivial()
    assert G.order == 1
    assert G.moduli == (1,)  # arity preserved


def test_make_group_crt_split():
    G = make_group([6, 4])
    assert G.invariant_factors == (2, 12)
    assert G.canonical.primary_parts == {2: (2, 1), 3: (1,)}
    # brute isomorphism check: the order census separates iso classes of
    # finite abelian groups, and C6+C4 must census like C2+C12
    assert order_census(make_group([6, 4])) == order_census(make_group([2, 12]))
    assert order_census(make_group([6, 4])) != order_census(make_group([24]))


def test_make_group_rejects_nonpositive():
    with pytest.raises(NonPositiveModulus):
        make_group([0])
    with pytest.raises(NonPositiveModulus):
        make_group([4, -3])


def test_non_integral_input_rejected():
    # each of these used to truncate silently: C4 x C6, (1,), and (2.5,)
    with pytest.raises(TypeError):
        make_group([4.7, 6])
    with pytest.raises(TypeError):
        make_group([4]).element([1.9])
    with pytest.raises(TypeError):
        2.5 * make_group([4]).element([1])


def test_elements_odometer_order():
    # enumerate_automorphisms(G)[i] indexes depend on this order
    assert [x.coords for x in make_group([2, 3]).elements()] == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
    ]
    assert [x.coords for x in make_group([]).elements()] == [()]
    assert [x.coords for x in make_group([1]).elements()] == [(0,)]


def test_element_order_examples():
    G = make_group([2, 4])
    assert element_order(G.element([0, 0])) == 1
    x = G.element([1, 2])
    assert brute_element_order(x) == 2
    assert element_order(x) == 2
    G2 = make_group([2, 4, 8, 8])
    y = G2.element([2, 1, 2, 4])
    assert brute_element_order(y) == 4
    assert element_order(y) == 4


def test_element_order_matches_brute_exhaustively():
    for G in groups_up_to(36):
        for x in G.elements():
            assert element_order(x) == brute_element_order(x)


def test_sylow_decompose_worked_example():
    G = make_group([2, 4, 8, 8])
    parts = sylow_decompose(G, G.element([2, 1, 2, 4]))
    assert set(parts) == {2}
    pairs = list(zip(*parts[2]))
    assert pairs == [(1, 1), (0, 2), (1, 3), (2, 3)]
    # in valuation-sorted order this is the (0,1,1,2)/(2,1,3,3) table
    assert sorted(pairs) == [(0, 2), (1, 1), (1, 3), (2, 3)]


def test_sylow_decompose_crt_coordinate():
    G = make_group([6])
    parts = sylow_decompose(G, G.element([3]))
    # 3 is odd, so it generates the C2 part (valuation 0); it is zero in the
    # C3 part, so the valuation clamps to the exponent
    assert parts[2] == ([0], [1])
    assert parts[3] == ([1], [1])


def test_sylow_decompose_trivial_group():
    G = make_group([1])
    assert sylow_decompose(G, G.identity()) == {}


def test_canonical_idempotent_under_invariant_factors():
    for G in groups_up_to(60):
        again = make_group(G.invariant_factors)
        assert again.canonical == G.canonical


@given(moduli_lists)
def test_order_agrees_with_canonical_key(mods):
    G = make_group(mods)
    assert G.order == math.prod(mods)
    assert G.canonical.order() == G.order


def test_lagrange_exhaustive_small():
    for G in groups_up_to(48):
        for x in G.elements():
            assert G.order % element_order(x) == 0


@pytest.mark.parametrize("mods", [[10000], [123, 81], [7, 11, 13], [512, 19]])
def test_lagrange_larger_groups_spot(mods):
    G = make_group(mods)
    for coords in [[1] * len(mods), [d - 1 for d in mods], [d // 2 for d in mods]]:
        assert G.order % element_order(G.element(coords)) == 0


def test_crt_soundness_all_presentations_up_to_200():
    # two presentations get the same canonical key exactly when their order
    # censuses agree (the census is an independent complete invariant)
    for n in range(1, 201):
        seen: dict[tuple, dict[int, int]] = {}
        census_by_key: dict[CanonicalGroupKey, dict[int, int]] = {}
        for mods in cyclic_presentations(n):
            G = make_group(mods)
            census = order_census(G)
            seen[mods] = census
            prior = census_by_key.setdefault(G.canonical, census)
            assert prior == census, (n, mods)
        # distinct keys must have distinct censuses
        censuses = [tuple(sorted(c.items())) for c in census_by_key.values()]
        assert len(set(censuses)) == len(censuses), n


def test_invariant_factors_divisibility_chain():
    for G in groups_up_to(80):
        chain = G.invariant_factors
        for a, b in zip(chain, chain[1:]):
            assert b % a == 0
        assert math.prod(chain) == G.order


def test_to_invariant_coordinates_example():
    G = make_group([6, 4])
    assert to_invariant_coordinates(G, G.element([3, 2])) == (1, 6)


def test_to_invariant_coordinates_preserves_order():
    for G in groups_up_to(48):
        H = make_group(G.invariant_factors)
        for x in G.elements():
            image = H.element(to_invariant_coordinates(G, x))
            assert element_order(image) == element_order(x)


def test_to_invariant_coordinates_is_bijective():
    for mods in [(6, 4), (2, 2, 9), (12, 10), (8, 3, 5)]:
        G = make_group(mods)
        images = {to_invariant_coordinates(G, x) for x in G.elements()}
        assert len(images) == G.order


def test_element_arity_checked():
    G = make_group([2, 4])
    with pytest.raises(DimensionMismatch):
        G.element([1, 2, 3])


def test_element_algebra():
    G = make_group([4, 6])
    x = G.element([3, 5])
    assert (x + (-x)).is_identity()
    assert (2 * x).coords == (2, 4)
    assert (x - x).is_identity()


def test_element_arithmetic_rejects_other_groups():
    # the difference used to be the identity of C4 x C4, and a sum with a
    # C4^3 element was truncated to (2, 2)
    x = make_group([4, 4]).element([1, 1])
    with pytest.raises(ForeignElement):
        x - make_group([8, 8]).element([1, 1])
    with pytest.raises(ForeignElement):
        x + make_group([8, 8]).element([1, 1])
    with pytest.raises(DimensionMismatch):
        x + make_group([4, 4, 4]).element([1, 1, 1])
    assert (x + make_group([4, 4]).element([1, 3])).coords == (2, 0)
    # a non-element used to raise AttributeError from check_elements
    for other in (1, (1, 2)):
        with pytest.raises(TypeError):
            x + other
    with pytest.raises(TypeError):
        x - 1


def test_coordinates_reduced():
    G = make_group([4, 6])
    assert G.element([-1, 13]).coords == (3, 1)


def test_canonical_key_renderings():
    key = CanonicalGroupKey.from_map({2: [2, 1], 3: [1]})
    assert key.elementary_divisors() == [2, 3, 4]
    assert key.invariant_factors() == [2, 12]
    assert key.describe_elementary() == "C2 x C3 x C4"
    assert key.describe_invariant() == "C2 x C12"
    assert CanonicalGroupKey(()).describe_invariant() == "C1"



class _OtherSummary(OrbitSummary):
    __slots__ = ()


def _record_cases():
    """name -> (record, an equal record built separately, a record of another
    class with the same field values, the field names, the record's repr).

    _OtherSummary adds no field and keeps OrbitSummary's; its repr, copies and
    pickles used to lose the fields."""
    G = make_group([2, 4])
    parts = ((2, (2, 1)),)
    images = (G.element([1, 0]), G.element([0, 1]))
    summary = (CanonicalGroupKey(((2, (1,)),)), (ReducedForm(((2, (0, 1)),)),), 2)
    return {
        "CanonicalGroupKey": (
            CanonicalGroupKey(parts),
            CanonicalGroupKey.from_map({2: [1, 2]}),
            ReducedForm(parts),
            ("parts",),
            "CanonicalGroupKey(parts=((2, (2, 1)),))",
        ),
        "ReducedForm": (
            ReducedForm(parts),
            ReducedForm(((2, (2, 1)),)),
            CanonicalGroupKey(parts),
            ("parts",),
            "ReducedForm(parts=((2, (2, 1)),))",
        ),
        "GroupElement": (
            G.element([1, 2]),
            make_group([2, 4]).element([3, 6]),
            EndomorphismTable(G, (1, 2)),
            ("parent", "coords"),
            "GroupElement([1, 2] in AbelianGroup([2, 4]))",
        ),
        "EndomorphismTable": (
            EndomorphismTable(G, images),
            EndomorphismTable(make_group([2, 4]), (G.element([1, 0]), G.element([0, 1]))),
            GroupElement(G, images),
            ("group", "images"),
            "EndomorphismTable(group=AbelianGroup([2, 4]), images=(GroupElement([1, 0] in "
            "AbelianGroup([2, 4])), GroupElement([0, 1] in AbelianGroup([2, 4]))))",
        ),
        "OrbitSummary": (
            OrbitSummary(*summary),
            OrbitSummary(CanonicalGroupKey.from_map({2: [1]}), (ReducedForm(((2, (0, 1)),)),), 2),
            _OtherSummary(*summary),
            ("quotient_key", "representatives", "size"),
            "OrbitSummary(quotient_key=CanonicalGroupKey(parts=((2, (1,)),)), "
            "representatives=(ReducedForm(parts=((2, (0, 1)),)),), size=2)",
        ),
        "_OtherSummary": (
            _OtherSummary(*summary),
            _OtherSummary(CanonicalGroupKey.from_map({2: [1]}), (ReducedForm(((2, (0, 1)),)),), 2),
            OrbitSummary(*summary),
            ("quotient_key", "representatives", "size"),
            "_OtherSummary(quotient_key=CanonicalGroupKey(parts=((2, (1,)),)), "
            "representatives=(ReducedForm(parts=((2, (0, 1)),)),), size=2)",
        ),
        "BenchRow": (
            BenchRow(4, "fast", 0.5),
            BenchRow(2 * 2, "".join(["fa", "st"]), 0.25 * 2),
            PowerFit(4, "fast", 0.5),
            ("rank", "method", "mean_ms"),
            "BenchRow(rank=4, method='fast', mean_ms=0.5)",
        ),
        "PowerFit": (
            PowerFit(0.5, 1.25, 1.0),
            PowerFit(1 / 2, 5 / 4, 1),
            BenchRow(0.5, 1.25, 1.0),
            ("coefficient", "exponent", "r_squared"),
            "PowerFit(coefficient=0.5, exponent=1.25, r_squared=1.0)",
        ),
    }


@pytest.mark.parametrize("name", list(_record_cases()))
def test_record_semantics(name):
    record, twin, other, fields, text = _record_cases()[name]
    values = tuple(getattr(record, f) for f in fields)
    assert record == twin and not record != twin
    assert hash(record) == hash(twin) == hash(values)
    # the same field values in another class, or in a plain tuple, differ
    assert record != other and not record == other
    assert record != values
    assert len({record, twin, other}) == 2
    assert repr(record) == text
    for field in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, fields[0])
    for clone in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert clone == record and repr(clone) == text
    # construction is positional and takes exactly the fields
    assert type(record)(*values) == record
    with pytest.raises(TypeError):
        type(record)(*values[:-1])
    with pytest.raises(TypeError):
        type(record)(*values, None)
