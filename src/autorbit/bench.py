"""Scaling helpers and analytic cost model for the two quotient paths.

The scaling family is C4^n with x = (1, ..., 1) and y = (3, ..., 3), so the
group exponent stays constant while the rank grows.  `run_scaling` times the
decision on it with `timeit`, which turns gc off while it times: a warm-up
call, one call that sizes the batches, then batched trials.  `fit_power_law`
fits a log-log least-squares exponent to per-rank means with
`statistics.linear_regression`.
The end-to-end benchmark is `perfbench/`; these helpers serve the
acceptance tests.

The analytic model counts operations of one decision at exponent 10**20:
the sweep path costs about 2e7 + 4*n*67 + 67*n*log2(n) operations
(factoring the exponent, valuations, sorting; 67 ~ log2(10**20) is the
bit-length budget), against n**2.8074 for the matrix path.  The model
crossover sits just above rank 400.
"""

from __future__ import annotations

import math
import statistics
import timeit
from typing import Callable, Iterable, Sequence

from .equivalence import are_automorphic
from .groups import AbelianGroup, GroupElement, Record


class BenchRow(Record):
    """Mean milliseconds of one decision at one rank by one method."""

    __slots__ = ("rank", "method", "mean_ms")
    rank: int
    method: str
    mean_ms: float


class PowerFit(Record):
    """A least-squares fit of t = coefficient * n^exponent."""

    __slots__ = ("coefficient", "exponent", "r_squared")
    coefficient: float
    exponent: float
    r_squared: float


def c4_instance(rank: int) -> tuple[AbelianGroup, GroupElement, GroupElement]:
    """The scaling family: C4^rank with x all-ones and y all-threes."""
    G = AbelianGroup([4] * rank)
    return G, G.element([1] * rank), G.element([3] * rank)


def _time_callable(fn: Callable[[], object], trials: int) -> list[float]:
    """Per-call seconds for each trial, batching calls so one trial takes
    roughly 20 ms.  timeit turns gc off while it times."""
    timer = timeit.Timer(fn)
    timer.timeit(1)  # warm-up
    single = max(timer.timeit(1), 1e-9)
    batch = max(1, min(100_000, int(0.02 / single)))
    return [t / batch for t in timer.repeat(trials, batch)]


def run_scaling(
    ranks: Iterable[int],
    methods: Sequence[str] = ("fast", "snf"),
    trials: int = 5,
) -> list[BenchRow]:
    """Mean milliseconds of one decision per rank and method, over trials."""
    rows = []
    for rank in ranks:
        G, x, y = c4_instance(rank)
        for method in methods:
            samples = _time_callable(lambda: are_automorphic(G, x, y, method=method), trials)
            rows.append(BenchRow(rank, method, statistics.fmean(samples) * 1e3))
    return rows


def method_points(rows: Sequence[BenchRow], method: str) -> list[tuple[int, float]]:
    """(rank, mean_ms) pairs for one method, rank-sorted."""
    return sorted((r.rank, r.mean_ms) for r in rows if r.method == method)


def fit_power_law(points: Sequence[tuple[float, float]]) -> PowerFit:
    """Least-squares fit of t = c * n^a on log-log axes.

    >>> fit = fit_power_law([(n, 0.5 * n**1.25) for n in (2, 4, 8, 16)])
    >>> round(fit.exponent, 6), round(fit.coefficient, 6)
    (1.25, 0.5)
    """
    if len(points) < 2:
        raise ValueError("need at least two points to fit")
    # Logs are taken of ratios to the first point.  For data proportional to
    # n the two ratio lists are then bit-identical and the slope is exactly
    # 1.0; logs of the raw values round apart and can fit 0.9999999999999998.
    n0, t0 = points[0]
    xs = [math.log(n / n0) for n, _ in points]
    ys = [math.log(t / t0) for _, t in points]
    slope, intercept = statistics.linear_regression(xs, ys)
    r2 = 1.0 if len(set(ys)) == 1 else statistics.correlation(xs, ys) ** 2
    coefficient = math.exp(intercept + math.log(t0) - slope * math.log(n0))
    return PowerFit(coefficient, slope, r2)


# --- analytic model -------------------------------------------------------


def model_operation_counts(rank: int) -> tuple[float, float]:
    """Model operation counts at exponent 10**20 for one decision:
    sweep path 2e7 + 4n*67 + 67n*log2(n), matrix path n^2.8074.  Raises
    ValueError for a rank below 1."""
    n = rank
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {n}")
    fast_ops = 2e7 + 4 * n * 67 + 67 * n * math.log2(n)
    snf_ops = float(n) ** 2.8074
    return fast_ops, snf_ops


def model_crossover(max_rank: int = 100_000) -> int:
    """Smallest rank at which the sweep-path model undercuts the matrix-path
    model; the matrix path wins below it."""
    for n in range(2, max_rank + 1):
        fast_ops, snf_ops = model_operation_counts(n)
        if fast_ops <= snf_ops:
            return n
    raise ValueError(f"no crossover below rank {max_rank}")

