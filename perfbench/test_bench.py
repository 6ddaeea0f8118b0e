"""Self-test of the benchmark harness.

    python3 -m pytest -q perfbench/test_bench.py

Takes a few minutes: every workload runs twice, traced, on one seed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# every workload run.py knows, including the ones BENCHMARK.json leaves out
WORKLOADS = ["rt0-2d", "gmsfem-3d", "impes-2d"]
SEED = 5


def run(cwd, workload, trace, seconds=1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def units(metrics):
    return {name: metric["unit"] for name, metric in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    counts = []
    for _ in range(2):
        detail, result = parse(run(ROOT, workload, trace=1))
        assert result["correct"] and result["failed"] == 0
        assert units(result["metrics"]) == {
            m["name"]: m["unit"] for m in SPEC["per_layer"]}
        counts += detail["counts_by_rep"]
    assert all(c == counts[0] for c in counts), counts


def test_end_to_end_metrics():
    _, result = parse(run(ROOT, "impes-2d", trace=0))
    assert result["correct"] and result["attempted"] >= 1
    assert units(result["metrics"]) == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(tmp_path, WORKLOADS[0], trace=0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
