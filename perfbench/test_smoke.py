"""Smoke test of the benchmark.

Runs every workload at its tiny ``--smoke`` size, untraced and traced, and
fails if an output is wrong, an operation fails, or a metric that
BENCHMARK.json declares is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def result(workload: str, trace: int) -> dict:
    done = run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert out["correct"], done.stderr
    assert out["failed"] == 0, done.stderr
    assert out["attempted"] >= 1
    return out


def check_metrics(out: dict, declared: list[dict]) -> None:
    assert set(out["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    out = result(workload, 0)
    check_metrics(out, BENCH["end_to_end"])
    for m in BENCH["end_to_end"]:
        assert out["metrics"][m["name"]]["value"] > 0, m["name"]


def test_per_layer_metrics():
    traced = {w: result(w, 1) for w in WORKLOADS}
    for out in traced.values():
        check_metrics(out, BENCH["per_layer"])
    # A layer no workload exercises would be a misspelt name.
    for m in BENCH["per_layer"]:
        assert any(traced[w]["metrics"][m["name"]]["value"] > 0 for w in WORKLOADS), m["name"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(tmp_path, WORKLOADS[0], 0)
    assert done.returncode != 0
    assert "correct" not in done.stdout
