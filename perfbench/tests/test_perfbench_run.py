"""Smoke runs of every workload and of the traced run, the output contract,
the tracer's bookkeeping and the answer checks."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import run
import spans
import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_every_workload(workload):
    proc = _run("--workload", workload, "--seed", "11", "--seconds", "0.01", "--trace", "0")
    metrics = _result(proc)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for spec in SPEC["end_to_end"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert metrics[spec["name"]]["value"] > 0
    for name, unit in run.END_TO_END:
        assert f"\n{name}" in "\n" + proc.stdout and unit in proc.stdout
    assert "fail_ratio 0.0 ratio" in proc.stdout
    assert '"kernel_backend"' in proc.stdout and '"speedups_imported"' in proc.stdout


def test_smoke_traced_run():
    proc = _run("--workload", "decide", "--seed", "11", "--seconds", "0.01", "--trace", "1")
    metrics = _result(proc)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for spec in SPEC["per_layer"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert metrics[spec["name"]]["value"] > 0, spec["name"]
    for w in workloads.WORKLOADS:
        assert 0.9 < metrics[f"{w}.trace.layer_share"]["value"] <= 1
        assert (run.OUT / f"spans-{w}.txt.gz").is_file()


def test_benchmark_json_names_what_run_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == run.per_layer_names()
    assert SPEC["command"] == ["python3", "perfbench/run.py"] and SPEC["paths"] == ["perfbench"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _run("--workload", "decide", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_self_times_sum_to_root_time_and_bindings_restore():
    import autorbit.fastquot
    from autorbit import equivalence, make_group

    original = autorbit.fastquot.quotient
    G = make_group([4, 8, 6, 9])
    tracer = spans.Tracer()
    with tracer:
        for i in range(5):
            tracer.run_op("op", i, lambda: equivalence.are_automorphic(G, G.element([1, 2, 3, 3]), G.element([3, 2, 1, 6])))
    assert autorbit.fastquot.quotient is original
    selfs = tracer.self_times()
    roots = [e - s for n, s, e in zip(tracer.names, tracer.starts, tracer.ends) if n == "op"]
    assert sum(selfs) == sum(roots)
    assert min(selfs) >= 0
    totals = tracer.totals()
    assert totals["equivalence.are_automorphic"].calls == 5
    # Equal orders, so both quotients run: one sweep per prime, over the
    # three coordinates 2 divides and the two 3 divides.
    assert totals["kernels.pgroup_sweep"].calls == 5 * 2 * 2
    assert totals["kernels.pgroup_sweep"].work == 5 * 2 * (3 + 2)
    assert set(tracer.ops) == set(range(5))


def test_cli_checks_reject_wrong_answers():
    op = next(op for op in inputs.cli_ops(1) if op.command == "factor")
    n = op.moduli[0]
    body = " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in op.factors[0])
    assert workloads.cli_output_ok(op, 0, f"{n} = {body}\n")
    assert not workloads.cli_output_ok(op, 1, f"{n} = {body}\n")
    assert not workloads.cli_output_ok(op, 0, f"{n} = {n}\n")
    eq = next(op for op in inputs.cli_ops(1) if op.command == "autoeq")
    word = "equivalent" if eq.expected_exit == 0 else "not equivalent"
    assert workloads.cli_output_ok(eq, eq.expected_exit, f"x quotient: C1\ny quotient: C1\n{word}\n")
    assert not workloads.cli_output_ok(eq, 1 - eq.expected_exit, "x quotient: C1\ny quotient: C1\nequivalent\n")
