"""Pinned inputs of flood-e2e: sizes, the design layout, generated data.

``repro serve`` learns its layout through the machine-calibrated
``default_cost_model()``; three calibrations on one box gave 12, 6 290
and 13 056 cells for the same table, so a number taken through the CLI
without pinning the layout measures calibration noise. Here the layout
is learned with the deterministic ``AnalyticCostModel`` on a fixed
*design* bundle (``DESIGN_SEED``, ``design_rows``) — the same grid for
every ``--seed`` — and rebuilt over the run's own table. ``--seed`` only
reaches the generators of that table, the query pools and the inserted
rows: TPC-H columns are stationary, so runs on different seeds measure
the same work on different inputs.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

#: Seed of the design bundle the layout is learned from.
DESIGN_SEED = 7
#: Bytes of one user row: six int64 attributes.
ROW_BYTES = 6 * 8

E2E_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(E2E_DIR))
SRC_DIR = os.path.join(REPO_ROOT, "src")
OUT_DIR = os.path.join(E2E_DIR, "out")


@dataclass(frozen=True)
class Scale:
    """Every size a workload depends on, full or ``--quick``."""

    design_rows: int  # rows of the table the layout is learned on
    rows: int  # lib_* and read-only serve_* table
    write_rows: int  # serve_write_mix table
    lib_pool: int  # distinct lib_* queries (above the engine's 1 024-entry enum cache)
    serve_pool: int  # distinct queries of serve_capacity / serve_open / serve_write_mix
    hot_pool: int  # distinct queries serve_hot draws from: 4x the cache
    cache_entries: int  # server --cache-entries
    merge_threshold: int  # server --merge-threshold on serve_write_mix
    insert_rows: int  # rows available to the insert connection
    setup_reps: int  # set-ups per run; setup_s is their median


FULL = Scale(
    design_rows=1_000_000,
    rows=400_000,
    write_rows=200_000,
    lib_pool=8192,
    serve_pool=8192,
    hot_pool=4096,
    cache_entries=1024,
    merge_threshold=768,
    insert_rows=40_000,
    setup_reps=3,
)
QUICK = Scale(
    design_rows=20_000,
    rows=20_000,
    write_rows=20_000,
    lib_pool=256,
    serve_pool=2048,
    hot_pool=1024,
    cache_entries=256,
    merge_threshold=64,
    insert_rows=4_000,
    setup_reps=1,
)


class Steps:
    """Wall time of named set-up steps (the ``*_s`` per-layer metrics)."""

    def __init__(self):
        self.seconds: dict[str, float] = {}

    @contextmanager
    def step(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = (
                self.seconds.get(name, 0.0) + time.perf_counter() - start
            )


def design_layout(scale: Scale, steps: Steps):
    """The pinned grid: Algorithm 1 over the design bundle."""
    from repro.core.cost import AnalyticCostModel
    from repro.core.optimizer import find_optimal_layout
    from repro.datasets import load

    with steps.step("datasets.load_s"):
        design = load("tpch", n=scale.design_rows, num_queries=50, seed=DESIGN_SEED)
    with steps.step("core.optimizer.learn_s"):
        result = find_optimal_layout(
            design.table, design.train, AnalyticCostModel(), seed=DESIGN_SEED
        )
    return result.layout


def generate_table(rows: int, seed: int, steps: Steps):
    """The run's own lineitem table (same generator ``load`` uses)."""
    from repro.datasets.tpch import generate_lineitem

    with steps.step("datasets.load_s"):
        return generate_lineitem(rows, seed=seed)


def generate_queries(table, count: int, selectivity: float, seed: int, steps: Steps):
    """``count`` TPC-H template queries at the target selectivity."""
    from repro.datasets.tpch import tpch_workload

    with steps.step("workloads.gen_s"):
        return tpch_workload(table, count, selectivity, seed=seed)


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def rss_mb(pid: int | None = None, field: str = "VmHWM") -> float:
    """Peak (``VmHWM``) or current (``VmRSS``) resident set of ``pid``
    (this process when ``None``), in MB."""
    with open(f"/proc/{pid or os.getpid()}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field} in /proc status")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    """Fingerprint stamped on every result file (ROADMAP aim 1)."""
    from repro.storage.kernels import numba_available, resolve_kernel

    numba_version = None
    if numba_available():
        import numba

        numba_version = numba.__version__
    return {
        "cores": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "numba": numba_version,
        "kernel_tier": resolve_kernel("auto"),
        "git_sha": _git_sha(),
        "seed": seed,
    }
