"""Smoke test of the benchmark at a tiny size.

Run from the repository root: ``python3 -m pytest perfbench/test_smoke.py``.
Every workload must emit exactly the metrics BENCHMARK.json lists, with no
failed operation; the same seed must give the same digests; the traced
run's counts must repeat (the run itself fails otherwise).
"""

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

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = 6

# a layer each workload exists to exercise
EXERCISED = {
    "routing": "routing.pingall.calls",
    "k8s": "k8spolicy.connectivity.connectivity_check.calls",
    "cp": "cp.graph.CpGraph.degree.calls",
}


def test_workloads_match_spec():
    assert sorted(WORKLOADS) == sorted(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_tiny(workload):
    runs = [run.run_workload(workload, 3, 0.1, 0, root=ROOT, queries=TINY) for _ in range(2)]
    for meta, result in runs:
        assert result["correct"] and result["failed"] == 0 and meta["fail_frac"] == 0
        assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert runs[0][0]["round0"] == runs[1][0]["round0"]
    assert None not in runs[0][0]["round0"].values()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_tiny(workload):
    meta, result = run.run_workload(workload, 3, 0.1, 1, root=ROOT, queries=TINY)
    assert result["correct"] and result["failed"] == 0
    assert meta["absent_targets"] == []
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert metrics[EXERCISED[workload]]["value"] > 0
    bridged = run.WORKLOADS[workload].bridge
    assert (metrics["agents.external.ExecAgent.step.calls"]["value"] > 0) == bridged
    assert (metrics["agents.external.spawns_per_episode"]["value"] == 1) == bridged


def test_absent_target_is_reported(monkeypatch):
    missing = "netbench.nowhere:renamed_function"
    monkeypatch.setattr(run.tracing, "WRAPS",
                        run.tracing.WRAPS + (("gone.layer", (missing,), {}),))
    meta, result = run.run_workload("k8s", 3, 0.1, 1, root=ROOT, queries=3)
    assert meta["absent_targets"] == [missing]
    assert result["correct"] and result["metrics"]["k8spolicy.kubectl.exec_kubectl.calls"]["value"] > 0


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
