"""Tests for the benchmark itself, at test size (``--tiny``).

Run from the repository root::

    python -m pytest perfbench -q

Every workload must print every declared metric with its unit, in both
modes; a deliberately perturbed result must be caught by the output
checks; and a checkout without the program must fail before printing a
result.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
from workloads import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = ("fig9-sweep", "capability-mix", "parallel-sweep", "service-evaluate")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = PER_LAYER if trace == "1" else END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
        if trace == "0":
            assert metric["value"] > 0, name


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # the two steady workloads; the others run by hand (see README)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS[:2])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.fixture()
def bench_env(monkeypatch):
    """The benchmark's environment, restored after the test."""
    for name in ("TMPDIR", "PYTHONPATH", "REPRO_LEDGER_DIR"):
        monkeypatch.setenv(name, os.environ.get(name, ""))
    monkeypatch.setattr(tempfile, "tempdir", tempfile.tempdir)
    harness.prepare_environment()


def test_same_seed_gives_same_inputs(bench_env):
    from workloads import Context, ParallelSweep

    def keys(seed):
        ctx = Context(seed=seed, seconds=1, trace=False,
                      scratch=harness.Scratch("test"), tiny=True)
        try:
            return [spec.cache_key() for spec in ParallelSweep(ctx).specs(rep=1)]
        finally:
            ctx.scratch.close()

    assert keys(5) == keys(5)
    assert keys(5) != keys(6)


def perturbed(simulate):
    """A ``simulate`` whose non-reference results are off by one cycle."""
    def wrong(spec, gating_policy=None, telemetry=None, backend=None):
        result = simulate(spec, gating_policy=gating_policy,
                          telemetry=telemetry, backend=backend)
        if backend == "reference":
            return result
        return dataclasses.replace(result, avg_latency=result.avg_latency + 1.0)
    return wrong


def run_tiny(name: str):
    from loadgen import ServiceEvaluate
    from workloads import WORKLOADS as SWEEPS, Context, Run

    classes = {**SWEEPS, ServiceEvaluate.name: ServiceEvaluate}
    ctx = Context(seed=4, seconds=1, trace=False,
                  scratch=harness.Scratch("test"), tiny=True)
    run = Run()
    workload = classes[name](ctx)
    try:
        workload.run(run)
    finally:
        getattr(workload, "close", lambda: None)()
        ctx.scratch.close()
    return run


@pytest.mark.parametrize("workload,module", [
    ("fig9-sweep", "repro.exec.runner"),
    ("capability-mix", "repro.noc.sim"),
    ("parallel-sweep", "repro.exec.runner"),   # pool results only
    ("service-evaluate", "repro.noc.sim"),     # the in-process side
])
def test_perturbed_result_is_counted_failed(bench_env, monkeypatch, workload, module):
    import importlib

    target = importlib.import_module(module)
    monkeypatch.setattr(target, "simulate", perturbed(target.simulate))
    run = run_tiny(workload)
    assert run.failed > 0 and run.failed / run.attempted > 0
    assert run.problems


def test_unperturbed_tiny_run_is_clean(bench_env):
    run = run_tiny("fig9-sweep")
    assert run.failed == 0, run.problems


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("--workload", "fig9-sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_is_the_highest_percentile_with_ten_beyond():
    value, pct, n = harness.tail(list(range(1, 101)))
    assert (value, n) == (90, 100) and pct == pytest.approx(90.0)
    assert harness.tail([5.0, 1.0]) == (5.0, 100.0, 2)
