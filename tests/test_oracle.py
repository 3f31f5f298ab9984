import ast
import gc
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from _support import aut_order_hillar_rhea, cyclic_presentations, groups_up_to
from autorbit import oracle
from autorbit.arith import factorize
from autorbit.errors import CapacityExceeded
from autorbit.groups import make_group
from autorbit.oracle import (
    aut_order_homocyclic,
    brute_orbits,
    brute_quotient_key,
    brute_quotient_keys,
    enumerate_automorphisms,
    is_automorphic_image_bruteforce,
)


def test_cyclic_four_has_two_automorphisms():
    assert len(enumerate_automorphisms(make_group([4]))) == 2


def test_klein_group_has_gl22_automorphisms():
    # |GL(2, 2)| = 6
    assert len(enumerate_automorphisms(make_group([2, 2]))) == 6


@pytest.mark.parametrize(
    "p,m,n,expected",
    [(2, 1, 2, 6), (2, 2, 2, 96), (3, 1, 2, 48), (2, 1, 3, 168)],
)
def test_homocyclic_formula_matches_enumeration(p, m, n, expected):
    assert aut_order_homocyclic(p, m, n) == expected
    G = make_group([p**m] * n)
    assert len(enumerate_automorphisms(G)) == expected


@pytest.mark.parametrize("args", [(2, 1.5, 2), (2, 1, 2.0), (2.0, 1, 2)])
def test_aut_order_homocyclic_rejects_non_integers(args):
    # (2, 1.5, 2) used to answer 24.0
    with pytest.raises(TypeError):
        aut_order_homocyclic(*args)


def test_aut_order_homocyclic_trivial_case():
    assert aut_order_homocyclic(2, 1, 1) == 1
    with pytest.raises(ValueError):
        aut_order_homocyclic(2, 0, 1)
    # a non-prime p used to return a wrong count (180, 0, -1 and -3)
    for p, m, n in ((4, 1, 2), (1, 1, 1), (0, 1, 1), (-2, 1, 1)):
        with pytest.raises(ValueError):
            aut_order_homocyclic(p, m, n)


def _invertible_mod(p, rows):
    """Is the square matrix with these rows invertible over F_p?  Gaussian
    elimination, in place."""
    n = len(rows)
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c] % p), None)
        if pivot is None:
            return False
        rows[c], rows[pivot] = rows[pivot], rows[c]
        u = pow(rows[c][c], -1, p)
        for r in range(c + 1, n):
            if f := rows[r][c] * u % p:
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[c])]
    return True


def _reference_raw_automorphisms(moduli, cap=oracle.DEFAULT_CAP):
    """The search the depth-first one replaced: every tuple of the product of
    the image pools, kept when each G/pG matrix is invertible."""
    positions = {}
    for i, d in enumerate(moduli):
        for p in factorize(d):
            positions.setdefault(p, []).append(i)
    rank = max(map(len, positions.values()), default=0)
    if math.prod(moduli) ** rank > cap:
        raise CapacityExceeded(f"{moduli} over cap {cap}")
    pools = [
        list(itertools.product(*(range(0, e, e // math.gcd(d, e)) for e in moduli)))
        for d in moduli
    ]
    return tuple(
        candidate
        for candidate in itertools.product(*pools)
        if all(
            _invertible_mod(p, [[candidate[i][j] % p for j in pos] for i in pos])
            for p, pos in positions.items()
        )
    )


# presentations with trivial factors padded in, or with several primes merged
# into one modulus, or out of ascending order
IRREGULAR_PRESENTATIONS = [
    (1,), (1, 1), (2, 2, 2, 1, 2), (1, 3, 3, 3), (2, 3, 2, 2), (3, 1, 6),
    (6, 1, 2, 2), (4, 2), (8, 2, 4), (2, 4, 2), (9, 3), (10, 2), (15, 2),
]


def test_depth_first_search_matches_product_filter():
    # same tuples in the same order: enumerate_automorphisms(G)[i] indexes
    # (test_groups, test_equivalence) depend on it
    presentations = {tuple(G.moduli) for G in groups_up_to(32)}
    for n in range(1, 33):
        presentations.update(cyclic_presentations(n))
    presentations.update(IRREGULAR_PRESENTATIONS)
    searched = 0
    for moduli in sorted(presentations):
        try:
            expected = _reference_raw_automorphisms(moduli)
        except CapacityExceeded:
            # the public entry points check the cap, not the search
            with pytest.raises(CapacityExceeded):
                enumerate_automorphisms(make_group(moduli))
            continue
        assert oracle._raw_automorphisms(moduli) == expected, moduli
        searched += 1
    assert searched == len(presentations) - 1  # only C2^5 is over the cap


def test_trivial_generators_do_not_deepen_the_search():
    # a modulus-1 generator's only image is 0; 1800 of them, before, between
    # and after the others, must not run the search into the recursion limit
    moduli = (1,) * 600 + (2,) + (1,) * 600 + (3,) + (1,) * 600
    assert oracle._raw_automorphisms(moduli) == _reference_raw_automorphisms(moduli)
    assert oracle._raw_automorphisms((1,) * 1500) == (((0,) * 1500,) * 1500,)


def test_search_leaves_no_cyclic_garbage():
    # a search whose frames reached themselves through a reference cycle
    # would keep every table it found alive until the next collection
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for moduli in [(2, 2, 2, 4), (4, 4, 4), (2, 6, 3), (5,), ()]:
            oracle._raw_automorphisms.__wrapped__(moduli)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_aut_order_matches_hillar_rhea():
    # every group of order <= 64 within the cap: a p-group against the closed
    # form, a mixed group against the product of its primes' closed forms
    p_groups = mixed = 0
    for G in groups_up_to(64):
        if G.order**G.rank > oracle.DEFAULT_CAP:
            continue
        expected = math.prod(aut_order_hillar_rhea(p, G.primary_exponents(p)) for p in G.primes())
        assert len(oracle._raw_automorphisms(G.moduli)) == expected, G
        if len(G.primes()) == 1:
            p_groups += 1
        elif len(G.primes()) > 1:
            mixed += 1
    assert p_groups >= 40 and mixed >= 40
    for moduli in [(6, 4), (12, 2, 3), (2, 6, 3), (10, 6)]:
        G = make_group(moduli)
        expected = math.prod(aut_order_hillar_rhea(p, G.primary_exponents(p)) for p in G.primes())
        assert len(enumerate_automorphisms(G)) == expected, moduli


def test_hillar_rhea_matches_homocyclic_closed_form():
    for p, m, n in itertools.product((2, 3, 5), (1, 2, 3), (1, 2, 3)):
        assert aut_order_hillar_rhea(p, (m,) * n) == aut_order_homocyclic(p, m, n)


@pytest.mark.parametrize("moduli", [(4, 4), (2, 6, 3), (2, 1, 2, 2), (3, 1, 3), (8, 4, 2)])
def test_support_projection_matches_every_table(moduli):
    # an element's images from the distinct projections of the tables onto
    # its support are its images under every table
    tables = oracle._raw_automorphisms(moduli)
    for x in make_group(moduli).elements():
        expected = {oracle._apply(x.coords, images, moduli) for images in tables}
        assert set(oracle._images(x.coords, tables, moduli)) == expected, x


def test_aut_lower_bound_exponential_in_rank():
    for G in groups_up_to(64):
        if len(G.primes()) != 1 or G.rank == 0:
            continue
        if G.order ** G.rank > 10**7:
            continue
        p = G.primes()[0]
        count = len(enumerate_automorphisms(G))
        assert count >= (p / 2) ** G.rank, G


@pytest.mark.parametrize(
    "moduli", [(6, 4), (4, 6), (12, 2, 3), (1, 4, 2), (2, 6, 3), (10, 6), (2, 2, 6)]
)
def test_automorphisms_of_composite_presentations(moduli):
    # a modulus with several primes (or none) spreads over several G/pG
    G = make_group(moduli)
    elements = set(G.elements())
    tables = enumerate_automorphisms(G)
    for t in tables:
        assert {t.apply(x) for x in elements} == elements
    elementary = make_group(G.canonical.elementary_divisors())
    assert len(tables) == len(enumerate_automorphisms(elementary))


def test_brute_orbits_cyclic_four():
    partition = {frozenset(e.coords for e in o) for o in brute_orbits(make_group([4]))}
    assert partition == {
        frozenset({(0,)}),
        frozenset({(2,)}),
        frozenset({(1,), (3,)}),
    }


def test_brute_orbits_trivial():
    orbits = brute_orbits(make_group([1]))
    assert len(orbits) == 1 and len(orbits[0]) == 1


def test_brute_orbits_two_by_four_sizes():
    assert sorted(len(o) for o in brute_orbits(make_group([2, 4]))) == [1, 1, 2, 4]


def test_brute_quotient_worked_example():
    G = make_group([2, 4, 8, 8])
    assert brute_quotient_key(G, G.element([2, 1, 2, 4])).primary_parts == {2: (3, 3, 1)}


def test_brute_quotient_cyclic_by_generator():
    G = make_group([12])
    assert brute_quotient_key(G, G.element([1])).is_trivial()


def test_brute_quotient_small_example():
    G = make_group([2, 4])
    assert brute_quotient_key(G, G.element([1, 2])).primary_parts == {2: (2,)}


def test_batched_brute_quotients_match_single():
    for G in groups_up_to(48):
        batched = brute_quotient_keys(G)
        for x in G.elements():
            assert batched[x.coords] == brute_quotient_key(G, x), (G, x)


def test_composition_closure_spot_check():
    G = make_group([2, 4])
    tables = enumerate_automorphisms(G)
    raw = {tuple(img.coords for img in t.images) for t in tables}
    for a in tables[:4]:
        for b in tables[:4]:
            composed = tuple(a.apply(img).coords for img in b.images)
            assert composed in raw


def test_apply_is_linear():
    G = make_group([4, 6])
    phi = enumerate_automorphisms(G)[1]
    x, y = G.element([1, 2]), G.element([3, 5])
    assert phi.apply(x + y) == phi.apply(x) + phi.apply(y)


def test_bruteforce_image_decision():
    G = make_group([4, 4])
    assert is_automorphic_image_bruteforce(G, G.element([1, 0]), G.element([0, 3]))
    G2 = make_group([2, 4])
    assert not is_automorphic_image_bruteforce(
        G2, G2.element([1, 0]), G2.element([0, 2])
    )


def test_bruteforce_decision_compares_orders_first(monkeypatch):
    # x has order 4 and y order 2, so no table is applied; the cap is checked
    # before the orders, so it still applies
    G = make_group([2, 2, 2, 4])
    x, y = G.element([1, 1, 1, 1]), G.element([1, 0, 0, 2])
    calls = []

    def counting(*args):
        calls.append(args)
        return apply(*args)

    apply = oracle._apply
    monkeypatch.setattr(oracle, "_apply", counting)
    assert not is_automorphic_image_bruteforce(G, x, y)
    assert len(calls) == 0
    with pytest.raises(CapacityExceeded):
        is_automorphic_image_bruteforce(G, x, y, cap=1000)
    assert is_automorphic_image_bruteforce(G, x, G.element([1, 1, 0, 3]))
    assert len(calls) > 0


def test_capacity_cap():
    with pytest.raises(CapacityExceeded):
        enumerate_automorphisms(make_group([2] * 8), cap=10**4)
    with pytest.raises(CapacityExceeded):
        brute_quotient_key(make_group([64, 64]), make_group([64, 64]).element([1, 1]), cap=100)
    with pytest.raises(CapacityExceeded):
        brute_quotient_keys(make_group([64, 64]), cap=100)


def test_torsion_count_not_a_prime_power_raises():
    # 3 cosets cannot be annihilated by a power of 2; the check was an assert,
    # so under `python -O` this returned [2, 2]
    with pytest.raises(ValueError, match="not a power of 2"):
        oracle._exponents_from_torsion(2, [3, 12])
    assert oracle._exponents_from_torsion(2, [4, 8]) == [1, 2]  # C2 x C4


def test_torsion_count_check_survives_optimize_flag():
    proc = subprocess.run(
        [
            sys.executable,
            "-O",
            "-c",
            "from autorbit.oracle import _exponents_from_torsion\n"
            "try:\n"
            "    print(_exponents_from_torsion(2, [3, 12]))\n"
            "except ValueError:\n"
            "    print('ValueError')",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ValueError"


def test_oracle_imports_no_production_path():
    # the oracle checks fastquot, snf and orbits, so it must not use them
    tree = ast.parse(Path(oracle.__file__).read_text())
    relative = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            # `from . import snf` names the module in the alias, not in `module`
            relative |= {node.module} if node.module else {a.name for a in node.names}
    assert relative <= {"arith", "errors", "groups"}, relative
