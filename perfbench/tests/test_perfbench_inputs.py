"""The generators and the reference answers the benchmark checks against."""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import reference as ref
from autorbit import are_automorphic, make_group, oracle
from autorbit.orbits import enumerate_orbits
from workloads import orbits_match_heights

BENCH = Path(__file__).resolve().parent.parent


def _digest(seed: int) -> str:
    g = inputs.verify_passes(seed)
    c = inputs.cli_ops(seed)
    blob = repr(
        (
            inputs.decide_inputs(seed),
            next(inputs.orbit_passes(seed)),
            [next(g) for _ in range(3)],
            [next(c) for _ in range(24)],
        )
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def test_same_seed_same_inputs_across_processes():
    paths = [str(BENCH), str(BENCH / "tests"), str(BENCH.parent / "src")]
    code = f"import sys; sys.path[:0] = {paths!r}; import test_perfbench_inputs as t; print(t._digest(3))"
    digests = {_digest(3)}
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        digests.add(out.stdout.strip())
    assert len(digests) == 1


def test_other_seed_other_inputs():
    assert inputs.decide_inputs(1) != inputs.decide_inputs(2)
    assert next(inputs.orbit_passes(1)) != next(inputs.orbit_passes(2))


def test_decide_shape():
    pairs = inputs.decide_inputs(5)
    ranks = sorted({len(p.moduli) for p in pairs})
    assert len({p.moduli for p in pairs}) == inputs.DECIDE_GROUPS
    assert ranks[0] >= 4 and ranks[-1] <= 512 and ranks[-1] > 256
    per_kind = {k: sum(p.kind == k for p in pairs) for k in inputs.PAIR_KINDS}
    assert set(per_kind.values()) == {inputs.DECIDE_GROUPS * inputs.DECIDE_PAIRS_PER_KIND}
    assert all(2 <= d <= 720 for p in pairs for d in p.moduli)


def _kind_holds(pair) -> bool:
    """The property that names the pair kind."""
    same_order = ref.element_order(pair.moduli, pair.x) == ref.element_order(pair.moduli, pair.y)
    same_hist = ref.histogram(pair.factors, pair.x) == ref.histogram(pair.factors, pair.y)
    return {
        "equal_histogram": same_hist,
        "transvection": not same_hist,
        "same_order": same_order,
        "other_order": not same_order,
    }[pair.kind]


def _oracle_sized(max_order: int):
    """Nontrivial classes whose Aut(G) search fits the oracle's cap."""
    return [c for c in ref.abelian_classes(max_order) if c and math.prod(c) ** len(c) <= oracle.DEFAULT_CAP]


@pytest.mark.parametrize("divisors", _oracle_sized(64), ids=str)
def test_pairs_agree_with_oracle_up_to_64(divisors):
    """Every pair kind the group admits, checked by exhaustive Aut(G)."""
    rng = random.Random(str(divisors))
    moduli = tuple(rng.sample(divisors, len(divisors)))
    factors = tuple(ref.factor_small(d) for d in moduli)
    G = make_group(moduli)
    for kind in inputs.PAIR_KINDS:
        for _ in range(3):
            x = inputs.element_for(kind, moduli, factors, rng)
            pair = x and inputs.make_pair(kind, moduli, factors, x, rng)
            if not pair:
                continue
            assert _kind_holds(pair)
            assert oracle.is_automorphic_image_bruteforce(G, G.element(pair.x), G.element(pair.y)) is pair.expected


def test_pairs_agree_with_snf_up_to_rank_32():
    rng = random.Random("snf")
    for rank in (4, 8, 16, 32):
        for _ in range(3):
            pairs = inputs.decide_group(rank, 2, rng)
            G = make_group(pairs[0].moduli)
            for pair in pairs:
                assert _kind_holds(pair)
                got = are_automorphic(G, G.element(pair.x), G.element(pair.y), method="snf")
                assert got is pair.expected


@pytest.mark.parametrize("moduli", [(2, 4), (4, 4), (2, 4, 8), (3, 9), (6, 12), (2, 2, 4), (9, 27)], ids=str)
def test_height_signature_is_the_orbit_partition(moduli):
    """reference.automorphic agrees with brute_orbits on every pair."""
    G = make_group(moduli)
    factors = tuple(ref.factor_small(d) for d in moduli)
    for orbit_a, orbit_b in itertools.combinations_with_replacement(oracle.brute_orbits(G), 2):
        x, y = next(iter(orbit_a)), next(iter(orbit_b))
        assert ref.automorphic(factors, x.coords, y.coords) is (orbit_a == orbit_b)


@pytest.mark.parametrize("moduli", [(2, 4), (2, 4, 4), (6, 4), (12, 18), (2, 2, 3, 9)], ids=str)
def test_orbit_check_accepts_enumerate_orbits(moduli):
    factors = tuple(ref.factor_small(d) for d in moduli)
    summaries = enumerate_orbits(make_group(moduli))
    assert orbits_match_heights(factors, summaries)
    assert sorted(o.size for o in summaries) == sorted(len(o) for o in oracle.brute_orbits(make_group(moduli)))


def test_orbit_check_rejects_a_wrong_partition():
    moduli = (2, 4, 8)
    factors = tuple(ref.factor_small(d) for d in moduli)
    summaries = enumerate_orbits(make_group(moduli))
    a, b = summaries[0], summaries[1]
    merged = type(a)(a.quotient_key, a.representatives + b.representatives, a.size + b.size)
    assert not orbits_match_heights(factors, [merged, *summaries[2:]])


def test_orbit_passes_span_the_reduced_form_range():
    passes = inputs.orbit_passes(4)
    first, second = next(passes), next(passes)
    assert len(first) == len(inputs.ORBIT_FAMILIES) * inputs.ORBIT_TARGETS
    assert first != second
    lo, hi = inputs.ORBIT_FORMS
    for (family, moduli), (family2, moduli2) in zip(first, second):
        forms = math.prod(e + 1 for d in moduli for _, e in ref.factor_small(d))
        assert lo * (1 - inputs.ORBIT_BAND) <= forms <= hi * (1 + inputs.ORBIT_BAND)
        assert len(moduli) <= inputs.ORBIT_MAX_RANK
        assert family == family2
        primes = ref.primes_of([ref.factor_small(d) for d in moduli])
        if family == "two_group":
            assert primes == [2] and len(set(moduli)) == len(moduli)
        elif family == "homocyclic":
            assert len(primes) == 1 and len(set(moduli)) == 1
        else:
            assert len(primes) > 1


def test_verify_classes_and_fresh_presentations():
    classes = inputs.verify_classes()
    assert len(classes) == 53
    assert all(math.prod(c) <= 32 for c in classes)
    g = inputs.verify_passes(2)
    seen = set()
    for _ in range(4):
        for case in g.__next__():
            assert case.moduli not in seen
            seen.add(case.moduli)
            divisors = sorted(q**e for d in case.moduli for q, e in ref.factor_small(d))
            assert tuple(divisors) in classes
            assert 16 <= len(case.snf_moduli) <= 64
            G = make_group(case.moduli)
            for pair in case.pairs:
                assert ref.automorphic(case.factors, pair.x, pair.y) is pair.expected
                if math.prod(case.moduli) <= 16:
                    got = oracle.is_automorphic_image_bruteforce(G, G.element(pair.x), G.element(pair.y))
                    assert got is pair.expected


def test_cli_ops_use_fresh_moduli_beyond_trial_division():
    ops = list(itertools.islice(inputs.cli_ops(9), 36))
    bigs = [max(op.moduli) for op in ops]
    assert len(set(bigs)) == len(bigs)
    for op in ops:
        big = max(op.factors, key=ref.modulus)
        assert ref.modulus(big) <= inputs.CLI_MODULUS_MAX
        assert sum(p > inputs.CLI_TRIAL_BOUND for p, _ in big) == 2
        assert all(ref.is_prime(p) for p, _ in big)
        if op.command == "autoeq":
            y = tuple(int(c) for c in op.argv[op.argv.index("-y") + 1].split(","))
            assert ref.automorphic(op.factors, op.x, y) is (op.expected_exit == 0)
    assert [op.command for op in ops[:12]] == list(inputs.CLI_PASS)
