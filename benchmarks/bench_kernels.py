"""Fused scan kernels: identity, fan-out × selectivity, numba speedup.

Three measurements over a synthetic table shaped to maximize fused-kernel
work (an unindexed filter dimension makes every run carry a residual
check, so the kernels — not the exact-range fast path — do the scanning):

1. **Identity** — on this platform's scan path (numba's fused kernels
   when numba imports, the classic ``scan_runs`` otherwise), serial and
   through the sharded index's worker processes, query results are
   identical to the
   seed's ``query_percell`` loop: byte-exact for COUNT/MIN/MAX/collect
   and all int64 aggregates, ~1e-9 relative for float SUM/AVG
   (documented accumulation-order difference).
2. **Fan-out × selectivity sweep** — COUNT and SUM latency, serial and
   process fan-out,
   persisted to ``results/BENCH_kernels.json`` for the perf trajectory
   (picked up by ``repro bench-diff`` automatically).
3. **numba over classic** — when numba is importable, ``scan_runs`` with
   the fused kernel must be >= ``MIN_NUMBA_SPEEDUP``x the classic
   ``scan_runs`` over the lowest-selectivity COUNT's run groups; demote
   with ``REPRO_REQUIRE_KERNEL_SPEEDUP=0`` on noisy runners.
"""

import math
import os
import time

import numpy as np
import pytest

from repro.bench.report import write_json_result
from repro.core.index import FloodIndex
from repro.core.layout import GridLayout
from repro.core.shard import ShardedFloodIndex
from repro.query.predicate import Query
from repro.storage.kernels import (
    get_kernel,
    numba_available,
    resolve_kernel,
    warmup_kernels,
)
from repro.storage.scan import scan_runs
from repro.storage.table import Table
from repro.storage.visitor import (
    AvgVisitor,
    CollectVisitor,
    CountVisitor,
    MaxVisitor,
    MinVisitor,
    SumVisitor,
)

ROWS = 200_000
#: Fractions of the unindexed dimension's domain that pass the filter.
SELECTIVITIES = (0.5, 0.1, 0.01)
#: Required numba-over-classic speedup on the lowest-selectivity COUNT.
MIN_NUMBA_SPEEDUP = 2.0
REQUIRE_SPEEDUP = os.environ.get("REPRO_REQUIRE_KERNEL_SPEEDUP", "1") != "0"
CORES = os.cpu_count() or 1

DIMS = ("x", "y", "z")


@pytest.fixture(scope="module")
def kernels_setup():
    rng = np.random.default_rng(13)
    data = {
        "x": rng.integers(0, 1000, size=ROWS),
        "y": rng.integers(0, 1000, size=ROWS),
        "z": rng.integers(0, 1000, size=ROWS),
        # Unindexed: every run must residual-check it -> kernel work.
        "w": rng.integers(0, 1_000_000, size=ROWS),
        # Float aggregate target with NaNs, for float identity.
        "f": rng.uniform(0, 1000, size=ROWS),
    }
    data["f"][rng.integers(0, ROWS, size=200)] = np.nan
    table = Table(data)
    flood = FloodIndex(GridLayout(DIMS, (10, 8))).build(table)
    sharded = ShardedFloodIndex.wrap(flood, num_shards=4, min_parallel_points=0)
    yield flood, sharded
    sharded.shutdown()


def _query(selectivity: float) -> Query:
    """Bounds strictly inside the indexed domain (boundary cells keep
    residual checks) plus an unindexed-dim filter that passes roughly
    ``selectivity`` of the scanned rows."""
    return Query(
        {
            "x": (25, 925),
            "y": (25, 925),
            "w": (0, int(1_000_000 * selectivity)),
        }
    )


def _scan_groups(flood, query):
    """``(bounds, runs)`` groups exactly as ``execute_plan`` scans them."""
    plan = flood.plan(query)
    flood.refine_plan(plan)
    by_code: dict[int, list] = {}
    for start, stop, code in plan.coalesced_runs():
        by_code.setdefault(code, []).append((start, stop))
    return [
        ([(dim, *query.bounds(dim)) for dim in plan.checks_for(code)], spans)
        for code, spans in by_code.items()
    ]


def _best_seconds(run, repeats=3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def _close(a, b, rel=1e-9) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=rel)
    return a == b


def test_kernel_identity_suite(kernels_setup):
    """Serial and process fan-out × dtype against the seed's per-cell loop."""
    flood, sharded = kernels_setup
    queries = [_query(s) for s in SELECTIVITIES] + [
        Query({"x": (100, 500), "z": (200, 800)}),
        Query({"w": (999_999, 2_000_000)}),  # near-empty result
    ]
    reference = []
    for query in queries:
        visitors = {
            "count": CountVisitor(),
            "sum_int": SumVisitor("z"),
            "avg_int": AvgVisitor("z"),
            "min_f": MinVisitor("f"),
            "max_f": MaxVisitor("f"),
            "sum_f": SumVisitor("f"),
            "collect": CollectVisitor(),
        }
        stats = None
        for visitor in visitors.values():
            stats = flood.query_percell(query, visitor)
        reference.append((visitors, stats))

    for label, index in (("serial", flood), ("process", sharded)):
        for query, (expected, ref_stats) in zip(queries, reference):
            for name, ref in expected.items():
                visitor = ref.fresh()
                stats = index.query(query, visitor)
                where = (label, name)
                if name == "collect":
                    assert np.array_equal(
                        np.sort(visitor.result), np.sort(ref.result)
                    ), where
                elif name in ("sum_f",):
                    assert _close(float(visitor.result), float(ref.result)), where
                elif name in ("count", "sum_int", "avg_int", "min_f", "max_f"):
                    # int aggregates and float MIN/MAX are byte-exact
                    assert _close(visitor.result, ref.result, rel=0.0) or (
                        visitor.result == ref.result
                    ), where
                assert stats.points_scanned == ref_stats.points_scanned, where
                assert stats.points_matched == ref_stats.points_matched, where


def test_kernel_sweep_and_speedups(kernels_setup):
    flood, sharded = kernels_setup
    warmup_kernels()  # JIT compile off the timed path
    tier = resolve_kernel("auto")

    rows = []
    for label, index in (("serial", flood), ("process", sharded)):
        for selectivity in SELECTIVITIES:
            query = _query(selectivity)
            index.query(query, CountVisitor())  # warm caches
            rows.append(
                {
                    "kernel": tier,
                    "fanout": label,
                    "selectivity": selectivity,
                    "count_seconds": _best_seconds(
                        lambda: index.query(query, CountVisitor())
                    ),
                    "sum_seconds": _best_seconds(
                        lambda: index.query(query, SumVisitor("z"))
                    ),
                }
            )

    print(f"\nkernel sweep ({ROWS} rows, {CORES} cores, {tier} scan path):")
    for row in rows:
        print(
            f"  {row['fanout']:>7s} @ sel={row['selectivity']:<5}: "
            f"count {row['count_seconds'] * 1e3:7.2f} ms, "
            f"sum {row['sum_seconds'] * 1e3:7.2f} ms"
        )

    low = min(SELECTIVITIES)
    groups = _scan_groups(flood, _query(low))
    table = flood.table

    def scan(kernel):
        for bounds, spans in groups:
            scan_runs(table, bounds, spans, CountVisitor(), kernel=kernel)

    classic_seconds = _best_seconds(lambda: scan(None))
    print(f"  classic scan_runs (sel={low}): {classic_seconds * 1e3:.2f} ms")
    numba_speedup = None
    if numba_available():
        numba_seconds = _best_seconds(lambda: scan(get_kernel("numba")))
        numba_speedup = classic_seconds / numba_seconds
        print(f"  numba over classic scan_runs (sel={low}): {numba_speedup:.2f}x")

    write_json_result(
        "BENCH_kernels",
        {
            "rows": ROWS,
            "cores": CORES,
            "numba_available": numba_available(),
            "sweep": rows,
            "classic_scan_seconds": classic_seconds,
            "numba_over_classic": numba_speedup,
        },
    )

    if numba_speedup is not None:
        numba_message = (
            f"numba tier only {numba_speedup:.2f}x over the classic "
            f"scan_runs on the low-selectivity COUNT (need >= "
            f"{MIN_NUMBA_SPEEDUP}x)"
        )
        if REQUIRE_SPEEDUP:
            assert numba_speedup >= MIN_NUMBA_SPEEDUP, numba_message
        elif numba_speedup < MIN_NUMBA_SPEEDUP:
            print(f"  WARNING (not asserted): {numba_message}")
    else:
        print("  (numba not importable: compiled-tier speedup not measured)")
