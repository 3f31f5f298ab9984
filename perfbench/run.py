"""Benchmark for autorbit: four workloads, end-to-end metrics, a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload decide --seed 1 --seconds 20 --trace 0

Workloads: decide, orbits, verify, cli-cold (see README.md). With --trace 0
the run prints the end-to-end metrics of one workload. With --trace 1 it
runs the traced pass over all four workloads, whatever --workload names,
because each per-layer metric belongs to one of them, and writes the spans
to perfbench/out/spans-<workload>.txt.gz.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give every metric by name
and unit, the raw figures, fail_ratio and the sample count, and a stamp
naming the interpreter, CPU count, git commit and kernel backend. End-to-end
times are scaled to a reference machine speed (see machine.py), so that runs
minutes apart on a shared machine compare. The program is loaded
from src/ of the checkout; without it the run exits with code 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import machine
import spans
import workloads
from workloads import ROOT, SRC, WORKLOADS

OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5
CLI_PROBE_REPEATS = 7
# Share of --seconds each workload's traced loop gets in the traced run; an
# untraced loop over the same number of passes follows it.
TRACE_SHARE = 1 / 8
MAX_TRACEBACKS = 3
# Operation time between two runs of the machine's reference loop.
CALIBRATE_EVERY_S = 0.1

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per workload, the layers whose calls and self time the traced run reports,
# and the span work counters it reports as counts.
TRACE_LAYERS = {
    "decide": (
        "arith.factorize",
        "arith.is_prime",
        "groups.make_group",
        "groups.element_order",
        "equivalence.are_automorphic",
        "equivalence.quotient_key",
        "fastquot.quotient",
        "fastquot.sylow_decompose",
        "fastquot.p_group_quotient",
        "groups.CanonicalGroupKey.from_map",
        "kernels.pgroup_sweep",
    ),
    "orbits": (
        "orbits.enumerate_orbits",
        "orbits.p_group_orbits",
        "fastquot.p_group_quotient",
        "groups.CanonicalGroupKey.from_map",
        "kernels.pgroup_sweep",
    ),
    "verify": (
        "snf.quotient_by_snf",
        "groups.to_invariant_coordinates",
        "kernels.snf_diagonal",
        "oracle.brute_orbits",
        "oracle.is_automorphic_image_bruteforce",
        "oracle.brute_quotient_key",
    ),
    "cli-cold": (
        "cli.main",
        "arith.factorize",
        "arith.is_prime",
        "groups.make_group",
    ),
}
TRACE_COUNTERS = {
    "decide": (("kernels.pgroup_sweep.pairs", "kernels.pgroup_sweep"),),
    "orbits": (("kernels.pgroup_sweep.pairs", "kernels.pgroup_sweep"), ("orbits.reduced_forms", "orbits.p_group_orbits")),
    "verify": (("kernels.snf_diagonal.cells", "kernels.snf_diagonal"),),
    "cli-cold": (),
}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run prints, with its unit."""
    out = []
    for w in WORKLOADS:
        for layer in TRACE_LAYERS[w]:
            out += [(f"{w}.{layer}.calls", "count"), (f"{w}.{layer}.self_ms", "ms")]
        out += [(f"{w}.{name}", "count") for name, _ in TRACE_COUNTERS[w]]
        if w == "decide":
            out.append((f"{w}.equivalence.precheck_exit_ratio", "ratio"))
        if w == "cli-cold":
            out += [(f"{w}.cli.interpreter_ms", "ms"), (f"{w}.cli.import_ms", "ms")]
        out += [(f"{w}.op.self_ms", "ms"), (f"{w}.trace.layer_share", "ratio"), (f"{w}.trace.overhead_ratio", "ratio")]
    return out


class SetupError(Exception):
    """The program or the benchmark cannot be set up in this directory."""


def check_program() -> None:
    """Make src/autorbit of this checkout the one `import autorbit` finds."""
    if not (SRC / "autorbit" / "__init__.py").is_file():
        raise SetupError(f"no program at {SRC / 'autorbit'}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import autorbit

    if Path(autorbit.__file__).resolve().parent != (SRC / "autorbit").resolve():
        raise SetupError(f"imported autorbit from {autorbit.__file__}, not from {SRC}")


def stamp() -> dict:
    """What the numbers were measured on. Compare runs only when backend and
    speedups match."""
    from autorbit import kernels

    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "autorbit").rglob("*")):
        if path.suffix in (".py", ".pyx") and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "kernel_backend": kernels.active_backend(),
        "speedups_imported": kernels.compiled_available(),
    }


# --- measuring ---------------------------------------------------------------


@dataclass
class Sample:
    durations_ns: list[int]
    scaled_ns: list[float]
    failed: int
    passes: int

    @property
    def busy_s(self) -> float:
        return sum(self.durations_ns) / 1e9

    @property
    def ops_per_s(self) -> float:
        return len(self.durations_ns) / self.busy_s

    @property
    def scaled_ops_per_s(self) -> float:
        return len(self.scaled_ns) / (sum(self.scaled_ns) / 1e9)


_tracebacks = 0


def _report(exc: BaseException) -> None:
    global _tracebacks
    if _tracebacks < MAX_TRACEBACKS:
        _tracebacks += 1
        traceback.print_exception(exc, file=sys.stderr)


def measure(passes, seconds: float | None = None, n_passes: int | None = None, around=None) -> Sample:
    """Run whole passes until the summed operation time reaches seconds (or
    for n_passes passes). One caller, one operation at a time. Each answer is
    checked after its timer stops; an exception or a wrong answer is a
    failure.

    The reference loop runs before the first operation and after every
    CALIBRATE_EVERY_S of operation time; the operations between two of its
    runs are scaled by the mean of the two speed factors."""
    durations: list[int] = []
    scaled: list[float] = []
    failed = done = 0
    busy = since = 0
    factor = machine.speed_factor()

    def rescale() -> None:
        nonlocal factor, since
        now = machine.speed_factor()
        mean = (factor + now) / 2
        scaled.extend(d * mean for d in durations[len(scaled):])
        factor, since = now, 0

    for ops in passes:
        for op in ops:
            t0 = time.perf_counter_ns()
            try:
                out = op.run() if around is None else around(op.run, len(durations))
            except Exception as exc:  # a failed operation; the run goes on
                out, error = None, exc
            else:
                error = None
            dt = time.perf_counter_ns() - t0
            durations.append(dt)
            busy += dt
            since += dt
            if error is None:
                try:
                    ok = bool(op.check(out))
                except Exception as exc:  # a malformed answer
                    ok, error = False, exc
            else:
                ok = False
            if error is not None:
                _report(error)
            failed += not ok
            if since >= CALIBRATE_EVERY_S * 1e9:
                rescale()
        done += 1
        if n_passes is not None and done >= n_passes:
            break
        if seconds is not None and busy >= seconds * 1e9:
            break
    rescale()
    return Sample(durations, scaled, failed, done)


def setup_seconds(name: str, seed: int) -> tuple[float, float]:
    """Median over fresh processes of one set-up, program import included:
    raw and scaled to the reference machine."""
    code = (
        f"import sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
        f"import workloads; workloads.probe_setup({name!r}, {seed})"
    )
    env = workloads.child_env()
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        status, out, _ = workloads.spawn([sys.executable, "-c", code], env)
        if status != 0:
            raise SetupError(f"set-up of {name} failed in a child process (exit {status})")
        seconds, factor = map(float, out.split())
        raw.append(seconds)
        scaled.append(seconds * factor)
    return statistics.median(raw), statistics.median(scaled)


def quantile(values: list[int], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def plain_run(name: str, seed: int, seconds: float) -> tuple[dict, int, int, list[str]]:
    setup_raw, setup_scaled = setup_seconds(name, seed)
    prog = workloads.load_program()
    w = WORKLOADS[name]()
    w.setup(seed, prog)
    sample = measure(w.passes(), seconds=seconds)
    if name == "cli-cold":
        peak_kb = w.peak_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed = sample.failed + w.final_check()

    def timings(durations, rate, setup):
        return {
            "ops_per_s": rate,
            "op_p50_ms": quantile(durations, 50) / 1e6,
            "op_p90_ms": quantile(durations, 90) / 1e6,
            "setup_s": setup,
            "peak_rss_mb": peak_kb / 1024,
        }

    values = timings(sample.scaled_ns, sample.scaled_ops_per_s, setup_scaled)
    raw = timings(sample.durations_ns, sample.ops_per_s, setup_raw)
    n = len(sample.durations_ns)
    notes = [
        "raw, before scaling to the reference machine: "
        + ", ".join(f"{m} {raw[m]!r}" for m, _ in END_TO_END if m != "peak_rss_mb"),
        f"samples {n} (passes {sample.passes}, busy {sample.busy_s:.3f} s)",
        f"fail_ratio {failed / n} ratio ({failed}/{n})",
    ]
    return {m: {"value": values[m], "unit": u} for m, u in END_TO_END}, n, failed, notes


# --- the traced run ----------------------------------------------------------


def startup_ms() -> tuple[float, float]:
    """Medians over alternating child runs: a bare `python -c pass`, and
    `python -c "import autorbit"` minus the bare run just before it."""
    env = workloads.child_env()

    def child_ms(code: str) -> float:
        t0 = time.perf_counter()
        status, _, _ = workloads.spawn([sys.executable, "-c", code], env)
        if status != 0:
            raise SetupError(f"probe {code!r} exited {status}")
        return (time.perf_counter() - t0) * 1e3

    bare, extra = [], []
    for _ in range(CLI_PROBE_REPEATS):
        b = child_ms("pass")
        bare.append(b)
        extra.append(child_ms("import autorbit") - b)
    return statistics.median(bare), statistics.median(extra)


def trace_workload(name: str, seed: int, seconds: float, prog, header: dict) -> tuple[dict, int, int]:
    """Set up and run one workload under the tracer, then run the same number
    of passes untraced. Writes the spans; returns the workload's per-layer
    metrics, operations attempted and failures."""
    w = WORKLOADS[name](in_process=True) if name == "cli-cold" else WORKLOADS[name]()
    tracer = spans.Tracer()
    with tracer:
        tracer.run_op("setup", spans.NO_PARENT, lambda: w.setup(seed, prog))
        passes = w.passes()
        traced = measure(passes, seconds=seconds * TRACE_SHARE, around=lambda fn, i: tracer.run_op("op", i, fn))
    untraced = measure(passes, n_passes=traced.passes)
    failed = traced.failed + untraced.failed + w.final_check()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{name}.txt.gz", {"workload": name, "seed": seed, **header})

    totals = tracer.totals()
    metrics = {}
    for layer in TRACE_LAYERS[name]:
        t = totals.get(layer, spans.LayerTotal())
        metrics[f"{layer}.calls"] = t.calls
        metrics[f"{layer}.self_ms"] = t.self_ns / 1e6
    for counter, layer in TRACE_COUNTERS[name]:
        metrics[counter] = totals.get(layer, spans.LayerTotal()).work
    if name == "decide":
        decisions, early = tracer.children_named("equivalence.are_automorphic", "equivalence.quotient_key")
        metrics["equivalence.precheck_exit_ratio"] = early / decisions
    if name == "cli-cold":
        metrics["cli.interpreter_ms"], metrics["cli.import_ms"] = startup_ms()
    in_ops = tracer.totals(ops_only=True)
    metrics["op.self_ms"] = in_ops["op"].self_ns / 1e6
    # Self times inside the traced operations sum to the operations' wall
    # time; the share not left to the "op" root is what named layers explain.
    inside_ops = sum(t.self_ns for t in in_ops.values())
    metrics["trace.layer_share"] = 1 - in_ops["op"].self_ns / inside_ops
    metrics["trace.overhead_ratio"] = untraced.ops_per_s / traced.ops_per_s
    attempted = len(traced.durations_ns) + len(untraced.durations_ns)
    return {f"{name}.{k}": v for k, v in metrics.items()}, attempted, failed


def trace_run(seed: int, seconds: float, header: dict) -> tuple[dict, int, int, list[str]]:
    prog = workloads.load_program()
    values: dict = {}
    attempted = failed = 0
    for name in WORKLOADS:
        metrics, a, f = trace_workload(name, seed, seconds, prog, header)
        values.update(metrics)
        attempted += a
        failed += f
    notes = [f"fail_ratio {failed / attempted} ratio ({failed}/{attempted})", f"spans written to {OUT}"]
    return {m: {"value": values[m], "unit": u} for m, u in per_layer_names()}, attempted, failed, notes


# --- entry point ---------------------------------------------------------------


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="summed operation time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        check_program()
        header = stamp()
        print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        print("stamp " + json.dumps(header))
        if args.trace:
            metrics, attempted, failed, notes = trace_run(args.seed, args.seconds, header)
        else:
            metrics, attempted, failed, notes = plain_run(args.workload, args.seed, args.seconds)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    width = max(map(len, metrics))
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value']!r} {m['unit']}")
    for note in notes:
        print(note)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
