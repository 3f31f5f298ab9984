"""The machine's current speed, from a fixed reference loop.

On a shared machine the CPU runs several tens of percent slower for seconds
at a time when neighbours are busy; steal time stays near zero, so the
slowdown is contention for the core and its caches, and it hits every piece
of Python code alike. The benchmark times this loop between operations and
reports times scaled to a machine on which the loop takes REFERENCE_S: a
duration d measured while the loop took c seconds is reported as
d * REFERENCE_S / c. The raw figures are printed beside the scaled ones.

The loop does dict and integer work like the program's, and it allocates
nothing the garbage collector tracks, so its time does not depend on how
much the program keeps alive.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.005
_ITERATIONS = 12_000
_TABLE = 4093


def reference_seconds() -> float:
    """Wall time of one run of the reference loop."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(_ITERATIONS):
        k = (i * 7919) % _TABLE
        table[k] = table.get(k, 0) + i
        acc += table[k] % 97
    return time.perf_counter() - t0


def speed_factor() -> float:
    """REFERENCE_S over the median of three reference runs: the factor that
    turns durations measured now into reference-machine durations."""
    return REFERENCE_S / statistics.median(reference_seconds() for _ in range(3))
