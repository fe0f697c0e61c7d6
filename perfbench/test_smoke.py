"""Smoke test of the benchmark itself: every workload at a tiny size, untraced
and traced, must print every metric BENCHMARK.json names, with its unit, and
report no failed operation.

    python3 -m pytest perfbench/test_smoke.py
"""

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@functools.cache
def _run(workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_failed_operation(workload, trace):
    lines = _run(workload, trace)
    summary = json.loads(lines[-1])
    assert summary["failed"] == 0, [line for line in lines if line.startswith("FAILED")]
    assert summary["correct"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_unit(workload, trace):
    lines = _run(workload, trace)
    summary = json.loads(lines[-1])
    assert summary["correct"] == (summary["failed"] == 0)
    assert 1 <= summary["attempted"] and 0 <= summary["failed"] <= summary["attempted"]
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3:
            printed[parts[0]] = parts[2]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for metric in wanted:
        assert printed.get(metric["name"]) == metric["unit"], metric["name"]
        assert summary["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert set(summary["metrics"]) == {m["name"] for m in wanted}


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "slice_batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
