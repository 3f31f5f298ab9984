import math

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


def test_model_operation_counts_formula():
    n = 400
    fast_ops, snf_ops = bench.model_operation_counts(n)
    assert fast_ops == pytest.approx(2e7 + 4 * n * 67 + 67 * n * math.log2(n))
    assert snf_ops == pytest.approx(n**2.8074)


def test_model_crossover_near_four_hundred():
    crossover = bench.model_crossover()
    assert 300 <= crossover <= 500
    fast_lo, snf_lo = bench.model_operation_counts(crossover - 1)
    fast_hi, snf_hi = bench.model_operation_counts(crossover)
    assert fast_lo > snf_lo  # matrix path still cheaper just below
    assert fast_hi <= snf_hi


def test_default_rank_schedule():
    sched = bench.default_rank_schedule(512)
    assert sched[0] == 2
    assert 3 in sched and 13 in sched and 163 in sched
    assert 256 in sched and 512 in sched
    assert sched == sorted(set(sched))
    assert bench.default_rank_schedule(64) == [n for n in sched if n <= 64]


def test_rank_one_run_emits_row_per_method():
    rows = bench.run_scaling([1], methods=("fast", "snf"), trials=1)
    assert [(r.rank, r.method) for r in rows] == [(1, "fast"), (1, "snf")]
    assert all(r.mean_ms > 0 for r in rows)


def test_csv_schema_stable():
    rows = bench.run_scaling([2], methods=("fast",), trials=2)
    text = bench.rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "rank,method,mean_ms,stddev_ms"
    rank, method, mean_ms, stddev_ms = lines[1].split(",")
    assert rank == "2" and method == "fast"
    float(mean_ms), float(stddev_ms)


def test_snf_rank_cutoff():
    rows = bench.run_scaling(
        [2, 8], methods=("fast", "snf"), trials=1, snf_max_rank=4
    )
    assert ("snf" in {r.method for r in rows if r.rank == 2})
    assert not [r for r in rows if r.rank == 8 and r.method == "snf"]


def test_c4_instance_shape():
    G, x, y = bench.c4_instance(3)
    assert G.moduli == (4, 4, 4)
    assert x.coords == (1, 1, 1) and y.coords == (3, 3, 3)


def test_model_csv_shape():
    text = bench.model_to_csv(bench.model_rows(5))
    lines = text.strip().split("\n")
    assert lines[0] == "rank,fast_model_ops,snf_model_ops"
    assert len(lines) == 6
