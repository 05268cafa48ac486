"""Tier-1 smoke test of flood-e2e: ``--quick`` runs all six workloads.

Quick mode (20 k rows, one 0.5 s repetition) exercises every code path
of the benchmark — set-up, server launch, both load loops, the oracle,
the ``kill -9`` epilogue — without measuring anything worth keeping.
"""

import json
import math
import os
import re
import subprocess
import sys

E2E_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(E2E_DIR))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _spec() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(*args) -> list[dict]:
    """Run the benchmark's own command; returns its JSON result lines."""
    done = subprocess.run(
        [sys.executable, os.path.join(E2E_DIR, "run.py"), "--quick", *args],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return [
        json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")
    ]


def _check(result: dict, declared: list[dict]) -> None:
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {entry["name"] for entry in declared}
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        assert NAME.match(entry["name"])
        assert metric["unit"] == entry["unit"]
        assert math.isfinite(metric["value"])


def test_quick_run_reports_every_end_to_end_metric():
    spec = _spec()
    results = {result.pop("workload"): result for result in _run()}
    assert list(results) == [workload["name"] for workload in spec["workloads"]]
    for result in results.values():
        _check(result, spec["end_to_end"])
        for entry in spec["end_to_end"]:
            assert result["metrics"][entry["name"]]["value"] > 0


def test_quick_traced_write_mix_loses_no_acked_row():
    spec = _spec()
    (result,) = _run("--workload", "serve_write_mix", "--trace", "1")
    _check(result, spec["per_layer"])
    metrics = result["metrics"]
    assert metrics["core.durable.acked_rows_lost"]["value"] == 0
    assert metrics["client.insert_ack_per_s"]["value"] > 0
    assert metrics["core.durable.recovery_s"]["value"] > 0
