import math
import re

import pytest

from autorbit import bench


def test_fit_power_law_recovers_exact_parameters():
    points = [(n, 0.37 * n**1.282) for n in (3, 5, 8, 13, 21, 34)]
    fit = bench.fit_power_law(points)
    assert fit.exponent == pytest.approx(1.282, abs=1e-9)
    assert fit.coefficient == pytest.approx(0.37, rel=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("slope", [7, 12, 13, 14, 16, 28])
def test_fit_power_law_exact_on_linear_counts(slope):
    # criterion 7 fits per-rank call-count increments and requires an
    # exponent >= 1.0; slopes 14 and 28 used to fit 0.9999999999999998
    points = [(n, slope * n) for n in (4, 8, 16, 32, 64, 128, 256)]
    assert bench.fit_power_law(points).exponent == 1.0


def test_fit_power_law_needs_two_points():
    with pytest.raises(ValueError):
        bench.fit_power_law([(4, 1.0)])


@pytest.mark.parametrize(
    "points,bad",
    [
        ([(1, 0), (2, 1)], "(1, 0)"),
        ([(0, 1), (2, 3)], "(0, 1)"),
        ([(1, 1), (2, -3), (4, 0)], "(2, -3)"),
        ([(1, 1), (-2, 3)], "(-2, 3)"),
    ],
)
def test_fit_power_law_rejects_non_positive_points(points, bad):
    # the first two used to raise ZeroDivisionError, the others "math domain error"
    with pytest.raises(ValueError, match=re.escape(f"point {bad}")):
        bench.fit_power_law(points)


def test_model_operation_counts_formula():
    n = 400
    fast_ops, snf_ops = bench.model_operation_counts(n)
    assert fast_ops == pytest.approx(2e7 + 4 * n * 67 + 67 * n * math.log2(n))
    assert snf_ops == pytest.approx(n**2.8074)


def test_model_operation_counts_rank_one_and_below():
    # rank 1 follows the formula (log2(1) = 0); there is no rank below 1
    assert bench.model_operation_counts(1) == (2e7 + 4 * 67, 1.0)
    for rank in (0, -3):
        with pytest.raises(ValueError):
            bench.model_operation_counts(rank)


def test_model_crossover_near_four_hundred():
    crossover = bench.model_crossover()
    assert 300 <= crossover <= 500
    fast_lo, snf_lo = bench.model_operation_counts(crossover - 1)
    fast_hi, snf_hi = bench.model_operation_counts(crossover)
    assert fast_lo > snf_lo  # matrix path still cheaper just below
    assert fast_hi <= snf_hi


def test_rank_one_run_emits_row_per_method():
    rows = bench.run_scaling([1], methods=("fast", "snf"), trials=1)
    assert [(r.rank, r.method) for r in rows] == [(1, "fast"), (1, "snf")]
    assert all(r.mean_ms > 0 for r in rows)


def test_c4_instance_shape():
    G, x, y = bench.c4_instance(3)
    assert G.moduli == (4, 4, 4)
    assert x.coords == (1, 1, 1) and y.coords == (3, 3, 3)
