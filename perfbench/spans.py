"""Spans around the program's public functions, recorded from outside it.

A span is (name, start, end, parent, op id, work). The tracer wraps each
function by rebinding the name its caller looks up: ``autorbit.orbits``
imports ``p_group_quotient`` into its own namespace, so that binding is
wrapped separately from ``autorbit.fastquot.p_group_quotient``, and both
report as ``fastquot.p_group_quotient``. Spans stay in memory until
``write``. Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import math
from array import array
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable

# (span name, object holding the binding, attribute, work counter or None).
# The object is a module path, or "module:Class" for a classmethod.
BINDINGS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("arith.factorize", "autorbit.groups", "factorize", None),
    ("arith.factorize", "autorbit.snf", "factorize", None),
    ("arith.factorize", "autorbit.oracle", "factorize", None),
    ("arith.factorize", "autorbit.cli", "factorize", None),
    ("arith.is_prime", "autorbit.arith", "is_prime", None),
    ("groups.make_group", "autorbit.groups", "make_group", None),
    # The CLI builds groups with the constructor; it is the same layer.
    ("groups.make_group", "autorbit.cli", "AbelianGroup", None),
    ("groups.element_order", "autorbit.equivalence", "element_order", None),
    ("groups.CanonicalGroupKey.from_map", "autorbit.groups:CanonicalGroupKey", "from_map", None),
    ("groups.to_invariant_coordinates", "autorbit.snf", "to_invariant_coordinates", None),
    ("equivalence.are_automorphic", "autorbit.equivalence", "are_automorphic", None),
    ("equivalence.are_automorphic", "autorbit.cli", "are_automorphic", None),
    ("equivalence.quotient_key", "autorbit.equivalence", "quotient_key", None),
    ("equivalence.quotient_key", "autorbit.cli", "quotient_key", None),
    ("fastquot.quotient", "autorbit.fastquot", "quotient", None),
    ("fastquot.sylow_decompose", "autorbit.fastquot", "sylow_decompose", None),
    ("fastquot.p_group_quotient", "autorbit.fastquot", "p_group_quotient", None),
    ("fastquot.p_group_quotient", "autorbit.orbits", "p_group_quotient", None),
    ("kernels.pgroup_sweep", "autorbit.kernels", "pgroup_sweep", lambda fs, es: len(fs)),
    ("kernels.snf_diagonal", "autorbit.kernels", "snf_diagonal", lambda rows, cols, entries: rows * cols),
    ("orbits.enumerate_orbits", "autorbit.orbits", "enumerate_orbits", None),
    (
        "orbits.p_group_orbits",
        "autorbit.orbits",
        "p_group_orbits",
        lambda p, exponents, *rest, **kw: math.prod(e + 1 for e in exponents),
    ),
    ("snf.quotient_by_snf", "autorbit.snf", "quotient_by_snf", None),
    ("oracle.brute_orbits", "autorbit.oracle", "brute_orbits", None),
    ("oracle.is_automorphic_image_bruteforce", "autorbit.oracle", "is_automorphic_image_bruteforce", None),
    ("oracle.brute_quotient_key", "autorbit.oracle", "brute_quotient_key", None),
    ("cli.main", "autorbit.cli", "main", None),
)

NO_PARENT = -1


@dataclass
class LayerTotal:
    calls: int = 0
    self_ns: int = 0
    work: int = 0


class Tracer:
    """Records spans while installed. Not thread-safe: one caller, one thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self.work = array("q")
        self._stack = [NO_PARENT]
        self._op = NO_PARENT
        self._saved: list[tuple[object, str, object]] = []

    # --- recording -----------------------------------------------------------

    def _open(self, name: str, work: int) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ops.append(self._op)
        self.work.append(work)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter_ns()
        self._stack.pop()

    def run_op(self, name: str, op_id: int, fn: Callable[[], object]) -> object:
        """Call fn under a root span of its own, tagged with op_id."""
        self._op = op_id
        idx = self._open(name, 0)
        try:
            return fn()
        finally:
            self._close(idx)
            self._op = NO_PARENT

    def _wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, count(*args, **kwargs) if count else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    # --- installing ----------------------------------------------------------

    def install(self) -> None:
        """Rebind every name in BINDINGS to a recording wrapper."""
        for name, where, attr, count in BINDINGS:
            module, _, cls = where.partition(":")
            target = importlib.import_module(module)
            if cls:
                target = getattr(target, cls)
            original = vars(target)[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__, count))
            else:
                wrapped = self._wrap(name, original, count)
            self._saved.append((target, attr, original))
            setattr(target, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --- reading -------------------------------------------------------------

    def self_times(self) -> list[int]:
        """Per span, its duration minus the durations of its direct children."""
        out = [e - s for s, e in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent != NO_PARENT:
                out[parent] -= self.ends[idx] - self.starts[idx]
        return out

    def totals(self, ops_only: bool = False) -> dict[str, LayerTotal]:
        """Calls, self time and work per span name; with ops_only, only the
        spans recorded inside run_op calls with an op id."""
        out: dict[str, LayerTotal] = {}
        for name, self_ns, work, op in zip(self.names, self.self_times(), self.work, self.ops):
            if ops_only and op == NO_PARENT:
                continue
            t = out.setdefault(name, LayerTotal())
            t.calls += 1
            t.self_ns += self_ns
            t.work += work
        return out

    def children_named(self, parent_name: str, child_name: str) -> tuple[int, int]:
        """(spans named parent_name, those with no direct child child_name)."""
        has_child = set()
        for idx, parent in enumerate(self.parents):
            if parent != NO_PARENT and self.names[idx] == child_name:
                has_child.add(parent)
        parents = [i for i, n in enumerate(self.names) if n == parent_name]
        return len(parents), sum(1 for i in parents if i not in has_child)

    def write(self, path, header: dict) -> None:
        """Gzipped text: one JSON header line (with "names", the span names
        in index order), then per span "name_index start end parent op work",
        times in ns from the first span's start."""
        names = list(dict.fromkeys(self.names))
        index = {n: i for i, n in enumerate(names)}
        t0 = self.starts[0] if self.starts else 0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write(json.dumps({**header, "names": names}) + "\n")
            for row in zip(self.names, self.starts, self.ends, self.parents, self.ops, self.work):
                f.write(f"{index[row[0]]} {row[1] - t0} {row[2] - t0} {row[3]} {row[4]} {row[5]}\n")
