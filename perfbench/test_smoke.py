"""Smoke test of the benchmark: every workload at a tiny length, both modes.

    python3 -m pytest -q perfbench/test_smoke.py      # or: python3 perfbench/test_smoke.py

Checks that each run prints a well-formed result line carrying every
metric BENCHMARK.json names, with its unit, that no operation failed, and
that the workload-specific metrics appear on the workloads they belong to.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

# Metrics that only some workloads have; they go to the record file.
EXTRAS = {
    "chain-churn": {"withdraw_p50_us", "install_drift", "error_rate", "submit_p90_us", "submit_p99_us"},
    "grid-distinct": {"read_p50_us", "read_p99_us", "error_rate", "submit_p90_us", "submit_p99_us"},
    "rest-mixed": {"withdraw_p50_us", "read_p50_us", "read_p99_us", "error_rate", "submit_p90_us", "submit_p99_us"},
    "cli-oneshot": {"cli_p50_ms", "cli_p90_ms", "error_rate", "submit_p90_us"},
}


def run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(HERE, "out", f"{workload}-seed7-trace{trace}.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    return result, record


# rest-mixed is not in BENCHMARK.json (too unsteady to bound) but stays runnable.
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]] + ["rest-mixed"])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric(workload: str, trace: int) -> None:
    result, record = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0, record["errors"]
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace == 0:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)
        assert EXTRAS[workload] <= set(record["extras"])
        assert record["extras"]["error_rate"]["value"] == 0
        for key in ("commit", "nproc", "python", "seed", "seconds", "note"):
            assert key in record["meta"]
    else:
        m = result["metrics"]
        assert m["trace.spans_us"]["value"] + m["trace.untraced_us"]["value"] == pytest.approx(
            m["trace.total_us"]["value"]
        )


def test_refuses_to_run_without_sources() -> None:
    """In a directory holding only BENCHMARK.json and perfbench/, no result is printed."""
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if os.path.isfile(os.path.join(HERE, name)):
            shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain-churn", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
