"""The benchmark's own tests: one-op smoke runs, repeatable counters, self time.

Run from the repository root (about two minutes on 2 cores):

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTERS = [m["name"] for m in SPEC["per_layer"] if m["name"].endswith("calls_per_op")]


def run(workload: str, trace: int, seed: int, cwd: str = ROOT):
    """One op; returns (exit code, parsed last stdout line or None, the finished process)."""
    done = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--ops", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = done.stdout.splitlines()
    return done.returncode, (json.loads(lines[-1]) if done.returncode == 0 else None), done


def check_result(res, metric_specs) -> None:
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    units = {name: m["unit"] for name, m in res["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in metric_specs}
    assert all(isinstance(m["value"], float) for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_smoke_reports_every_end_to_end_metric(workload):
    # seed 1 is the default seed, so op 0 is also compared with reference.json
    code, res, done = run(workload, trace=0, seed=1)
    assert code == 0, done.stderr
    check_result(res, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat_exactly(workload):
    results = []
    for _ in range(2):
        code, res, done = run(workload, trace=1, seed=5)
        assert code == 0, done.stderr
        check_result(res, SPEC["per_layer"])
        results.append(res["metrics"])
    first, second = results
    assert first["subsets.best_per_size.calls_per_op"]["value"] >= 1
    for name in COUNTERS:
        assert first[name]["value"] == second[name]["value"], name


def test_refuses_to_run_without_the_package():
    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, _, done = run(WORKLOADS[0], trace=0, seed=1, cwd=bare)
    assert code != 0
    assert done.stdout == ""


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer()
    # op 0: root [0, 10] holds a [1, 4] holding b [2, 3], and a second a [5, 6]
    tracer.spans = [
        [0, spans.OP_SPAN, None, 0.0, 10.0],
        [0, "a", 0, 1.0, 4.0],
        [0, "b", 1, 2.0, 3.0],
        [0, "a", 0, 5.0, 6.0],
    ]
    s = tracer.summary()
    assert s["ops"] == 1 and s["op_s"] == 10.0
    assert s["calls"]["a"] == 2
    assert s["self_s"] == {spans.OP_SPAN: 6.0, "a": 3.0, "b": 1.0}
