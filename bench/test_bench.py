"""Fast end-to-end test of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

Each workload runs a couple of trials in both modes; the printed metric names
and units must match the ones declared in BENCHMARK.json.
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
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(cwd: Path, workload: str, trace: int, seed: int = 3, script: Path = BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_match_declaration(tmp_path, workload):
    result = result_of(run(tmp_path, workload, trace=0))
    assert result["correct"] is True
    assert result["attempted"] >= 2 and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared("end_to_end")
    for name, m in metrics.items():
        assert math.isfinite(m["value"]) and m["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_match_declaration(tmp_path, workload):
    result = result_of(run(tmp_path, workload, trace=1))
    assert result["correct"] is True and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("per_layer")
    assert all(math.isfinite(v) for v in metrics.values())
    # self times partition the trial: layers plus bench.self_ms sum to it
    self_ms = sum(v for k, v in metrics.items() if k.endswith(".self_ms"))
    assert self_ms == pytest.approx(metrics["bench.trial_ms"], rel=1e-9)
    assert metrics["bench.self_ms"] < 0.1 * metrics["bench.trial_ms"]


def test_exact_counts_repeat_across_runs(tmp_path):
    counts = []
    for sub in ("a", "b"):
        cwd = tmp_path / sub
        cwd.mkdir()
        result_of(run(cwd, "estimation", trace=1))
        record = json.loads((cwd / ".bench_out" / "estimation-seed3-trace1.json").read_text())
        assert record["counts_repeat"] is True
        counts.append(record["exact_counts_per_round"])
    assert counts[0] == counts[1]
    assert counts[0]["chanest.omp.calls"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".bench_out"))
    proc = run(tmp_path, WORKLOADS[0], trace=0, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
