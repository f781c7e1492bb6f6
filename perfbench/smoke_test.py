"""Fast checks of the benchmark itself, on tiny versions of every workload.

Run from the repository root: ``python3 -m pytest -q perfbench/smoke_test.py``.
It is outside ``tests/``, so the tier-1 suite does not collect it.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "trees-interact": dict(n=60, grid_count=3, fit="bagged:n_trees=3,max_depth=3,min_leaf=5,seed=1"),
    "oracle-interact": dict(n=200, grid_count=3),
    "knn-importance": dict(n=60, grid_count=3, fit="knn:k=3"),
    "bridge-importance": dict(n=100, grid_count=3),
}


def tiny(name: str) -> run.Workload:
    return dataclasses.replace(run.WORKLOADS[name], **TINY[name])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_every_workload_reports_every_metric(name, trace):
    result = run.measure(tiny(name), seed=3, seconds=0, trace=bool(trace))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_traced_counts_are_exact():
    w = tiny("knn-importance")
    result = run.measure(w, seed=3, seconds=0, trace=True)
    metrics = result["metrics"]
    # importance scores each feature on a 4-point grid, plus one baseline per feature
    n_features = 10
    assert metrics["engine.predict_calls"]["value"] == n_features * (4 + 1)
    assert metrics["engine.rows_scored"]["value"] == n_features * (4 + 1) * w.n
    assert metrics["engine.useful_row_ratio"]["value"] == (n_features * 4 + 1) / (n_features * 5)


def test_digest_check_catches_a_tampered_artifact(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    w = tiny("knn-importance")
    inputs, _ = run.set_up(w, 3, tmp_path / "setup")
    out_dir = tmp_path / "out"
    outcome = run.pdimp(run.analysis_args(w, inputs, out_dir), tmp_path / "run.log")
    checker = run.Checker(expected=None)
    assert checker.check(outcome, out_dir, "first")

    (out_dir / "manifest.json").write_text("{}\n")  # the manifest is not compared
    assert checker.check(outcome, out_dir, "manifest edited")

    csv_path = out_dir / "importance.csv"
    csv_path.write_bytes(csv_path.read_bytes().replace(b"\n", b"\r\n", 1))
    assert not checker.check(outcome, out_dir, "tampered")
    assert (checker.attempted, checker.failed) == (3, 1)


def test_recorded_digests_belong_to_the_registered_workloads():
    for name, w in run.WORKLOADS.items():
        assert run.recorded_digest(w, 7) is not None
        assert run.recorded_digest(tiny(name), 7) is None


def test_self_time_counts_overlapping_children_once():
    assert run._covered(0.0, 10.0, [(1.0, 4.0), (2.0, 5.0), (8.0, 12.0)]) == 6.0
    spans = [
        {"id": 1, "parent": None, "name": "engine.pd_values_at", "via": "engine",
         "start": 0.0, "end": 10.0, "rows": None, "model": None, "cost": 0.25},
        {"id": 2, "parent": 1, "name": "models.predict", "via": "models",
         "start": 1.0, "end": 7.0, "rows": 5, "model": "KnnModel", "cost": 0.125},
        {"id": 3, "parent": 1, "name": "models.predict", "via": "models",
         "start": 2.0, "end": 8.0, "rows": 5, "model": "KnnModel", "cost": 0.125},
    ]
    metrics = run.layer_metrics(spans, logical_rows=5)
    assert metrics["engine.predict_s"] == 12.0
    assert metrics["engine.self_s"] == 3.0
    assert metrics["engine.useful_row_ratio"] == 0.5
    assert metrics["trace.overhead_s"] == 0.5


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "knn-importance", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
