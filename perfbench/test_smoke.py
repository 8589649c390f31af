"""Smoke-size runs of every workload: the benchmark's own test.

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs at smoke scale, untraced and traced.  Every run must
pass its correctness checks and print every metric ``BENCHMARK.json``
names, and two traced runs with one seed must report the same work counts.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# work counts, which must not depend on timing
COUNT_UNITS = ("count", "B")


def run(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_end_to_end_metrics(workload):
    result = run(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    for name in names:
        assert result["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = run(workload, trace=1), run(workload, trace=1)
    assert first["correct"] and second["correct"]
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == names
    counts = {k for k, unit in names.items() if unit in COUNT_UNITS}
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_refuses_to_run_without_the_package():
    empty = os.path.join(ROOT, ".perfbench", f"no-package-{os.getpid()}")
    os.makedirs(empty)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=empty, capture_output=True, text=True, timeout=60,
        )
    finally:
        os.rmdir(empty)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
