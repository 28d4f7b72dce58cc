"""Smoke test of the benchmark itself, at tiny shapes.

Run from the repository root with ``python3 -m pytest bench -q``; the
repository's own test suite does not collect this directory.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# desk_recover is not in BENCHMARK.json but stays runnable by hand.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["desk_recover"]


def bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_listed_metric(workload, trace):
    result = result_of(bench("--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", str(trace), "--tiny"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], (int, float)) and math.isfinite(reported["value"])


def test_same_seed_gives_same_counts():
    runs = [
        result_of(bench("--workload", "desk_recover", "--seed", "5", "--seconds", "1", "--trace", "0", "--tiny"))
        for _ in range(2)
    ]
    for name in ("sweeps_to_target", "final_error_digits"):
        assert runs[0]["metrics"][name] == runs[1]["metrics"][name]


def test_surrogate_radius_binds_and_projections_cycle():
    metrics = result_of(bench("--workload", "surrogate_bound", "--seed", "7", "--seconds", "1",
                              "--trace", "1", "--tiny"))["metrics"]
    assert metrics["driver.short_sweep_frac"]["value"] == 1.0
    assert metrics["subsolver.project_box_ball.cycles"]["value"] > 0


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
