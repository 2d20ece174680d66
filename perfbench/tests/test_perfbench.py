"""Tests of the benchmark itself (not part of the uvlab suite).

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks      # noqa: E402
import workloads   # noqa: E402
import worker      # noqa: E402
from tracer import BINDINGS, Tracer, _owner   # noqa: E402
from uvlab import qma2   # noqa: E402

TABLE = qma2.consistency_accept_table   # the lru_cache object, before any wrapping


def _one_pass(workload, tracer=None):
    insts = workloads.setup(workload, smoke=True)
    exps = workloads.experiments(workload, insts, seed=5, smoke=True)
    return worker.run_pass(exps, TABLE, tracer, "smoke")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_workload_passes_its_checks(workload):
    p = _one_pass(workload)
    assert p.attempted > 0
    assert p.failures == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counters_repeat_and_bindings_restored(workload):
    originals = [getattr(_owner(path), attr) for path, attr, _, _ in BINDINGS]
    runs = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            runs.append(_one_pass(workload, tracer))
        finally:
            tracer.restore()
    assert [getattr(_owner(path), attr) for path, attr, _, _ in BINDINGS] == originals
    assert runs[0].failures == [] and runs[0].spans
    assert runs[0].counts == runs[1].counts
    metrics, unstable = worker.per_layer(runs, runs, [])
    assert unstable == []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in declared["per_layer"]} == set(metrics)


def test_self_time_subtracts_children():
    from tracer import self_times
    spans = [(1, "child", 1.0, 3.0, 0, "e"), (2, "child", 4.0, 5.0, 0, "e"),
             (0, "parent", 0.0, 10.0, None, "e")]
    assert self_times(spans) == {"parent": 7.0, "child": 3.0}


def test_checker_counts_perturbed_value_as_failure():
    insts = workloads.setup("exact", smoke=True)
    k4 = insts["k4_n2"]
    rc, report = workloads.run_cli(["run", "--instance", k4.path, "--protocol", "qma2",
                                    "--strategy", "near"])
    assert rc == 0
    assert checks.qma2_near(report, k4.n, k4.violations) is None
    bad = dict(report, p_total=report["p_total"] + 1e-6)
    assert checks.qma2_near(bad, k4.n, k4.violations) is not None

    exp = workloads.Experiment("perturbed", lambda: (0, bad),
                               lambda out, done: checks.qma2_near(out[1], k4.n, k4.violations))
    p = worker.run_pass([exp], TABLE)
    assert (p.attempted, p.failed) == (1, 1)


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_run_prints_contract_result():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {"run_s", "setup_s", "peak_rss_mb"}
