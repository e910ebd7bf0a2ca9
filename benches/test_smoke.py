"""Smoke test of the benchmark itself, on shrunken workloads.

    python3 -m pytest -q benches/test_smoke.py

Checks that a run of every workload, untraced and traced, passes its own
correctness checks and prints exactly the metric names of BENCHMARK.json
with their units, that a stage that raises counts as failed operations, and
that the benchmark refuses to run without sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._use_checkout_sources()

import pipeline  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(workload: pipeline.Workload) -> pipeline.Workload:
    return dataclasses.replace(
        workload,
        population=(2, 2, 2),
        scenarios=1,
        frames=30,
        train_steps=30,
        train_scenarios=1,
    )


@pytest.fixture
def tiny_workloads(monkeypatch):
    monkeypatch.setattr(
        pipeline, "WORKLOADS", {name: tiny(w) for name, w in pipeline.WORKLOADS.items()}
    )


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(pipeline.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_run_prints_benchmark_metrics(tiny_workloads, workload, trace):
    result = run.run(workload, seed=3, seconds=0.1, trace=bool(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    json.dumps(result)


def test_counts_operations_of_a_failed_stage(tiny_workloads, monkeypatch):
    original = pipeline.cli.evaluate_directories
    calls = []

    def evaluate_fails_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("evaluation fails in the second round")
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline.cli, "evaluate_directories", evaluate_fails_once)
    result = run.run("vehicle-kf", seed=3, seconds=0.1, trace=False)
    workload = pipeline.WORKLOADS["vehicle-kf"]
    assert result["correct"] is True
    assert result["attempted"] == run.MIN_ROUNDS * pipeline.operations_per_round(workload)
    assert result["failed"] == pipeline.stage_operations(workload)["eval"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benches", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "benches/run.py", "--workload", "vehicle-kf", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
