"""Smoke tests for the benchmark itself (not part of the tier-1 suite).

    python -m pytest qvbench/smoke.py

Each workload runs at its tiny size with tracing off and on.  Every metric
BENCHMARK.json names must be emitted with its unit, and every output check
must pass on the current code.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*BENCHMARK["command"], "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    if trace:
        assert result["metrics"]["check_fail_ratio"]["value"] == 0
    else:
        assert result["metrics"]["check_pass_ratio"]["value"] == 1


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_unknown_workload_exits_nonzero():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "qvbench" / "run.py"), "--workload", "nope", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout.strip() == ""
