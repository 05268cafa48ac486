"""Sharding: one query's scan fanned out across worker processes.

Four measurements over a Fig.7-style TPC-H configuration:

1. **Identity** — ``ShardedFloodIndex`` (forced parallel) produces
   results and ``points_scanned`` / ``points_matched`` identical to the
   seed's ``query_percell`` loop, for COUNT and SUM.
2. **Shard sweep** — one *large* query (most of the table, with residual
   checks so the scan does real masking work) on the unsharded index and
   on the process fan-out at 2 and 4 shards, with a numpy COUNT and a
   GIL-bound pure-Python COUNT. Persisted to
   ``results/BENCH_sharding.json`` for the perf trajectory. On >= 2 cores
   with the ``fork`` start method, the best fan-out must be
   ``MIN_SHARDED_SPEEDUP``x over unsharded on the GIL-bound visitor —
   the workload fan-out exists for. Demote to a report with
   ``REPRO_REQUIRE_SHARD_SPEEDUP=0`` on runners too noisy for timing
   guarantees; the numpy COUNT is recorded, never asserted.
3. **Concurrency** — the generated query mix through ``BatchQueryEngine``
   over the unsharded vs the sharded index at increasing worker counts,
   showing the two parallelism axes (across queries / within a query)
   compose without corrupting results.
4. **Leak-freedom** — after ``shutdown()`` no shared-memory segment the
   fan-out created survives.
"""

import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.analysis.sanitizers import shm_leak_sanitizer
from repro.bench.harness import build_flood
from repro.bench.report import write_json_result
from repro.core.cost import AnalyticCostModel
from repro.core.engine import BatchQueryEngine
from repro.core.index import FloodIndex
from repro.core.layout import GridLayout
from repro.core.shard import ShardedFloodIndex
from repro.datasets import load
from repro.query.predicate import Query
from repro.storage.table import Table
from repro.storage.visitor import CountVisitor, SumVisitor, Visitor

ROWS = 150_000
GRID_SCALE = 4.0
#: Shard counts of the process fan-out (the unsharded index is the baseline).
SHARD_COUNTS = (2, 4)
#: Required GIL-bound-visitor speedup of the best fan-out over unsharded.
MIN_SHARDED_SPEEDUP = 1.15
REQUIRE_SPEEDUP = os.environ.get("REPRO_REQUIRE_SHARD_SPEEDUP", "1") != "0"
CORES = os.cpu_count() or 1


class PyCountVisitor(Visitor):
    """A deliberately GIL-bound COUNT: pure-Python per-row accumulation.

    Mergeable, so each worker ships one integer back per shard — the
    *accumulation* is what the fan-out parallelizes, which only worker
    processes can do (threads would serialize on the GIL here).
    """

    def __init__(self):
        self.count = 0

    def visit(self, table, start, stop, mask):
        total = 0
        if mask is None:
            for _ in range(stop - start):
                total += 1
        else:
            for hit in mask.tolist():
                if hit:
                    total += 1
        self.count += total

    def fresh(self) -> "PyCountVisitor":
        return PyCountVisitor()

    def merge(self, other: "PyCountVisitor") -> None:
        self.count += other.count

    @property
    def result(self) -> int:
        return self.count


@pytest.fixture(scope="module")
def sharding_setup():
    bundle = load("tpch", n=ROWS, num_queries=80, seed=7)
    _, opt = build_flood(
        bundle.table, bundle.train, cost_model=AnalyticCostModel(),
        max_cells=8192, seed=7,
    )
    layout = opt.layout.scaled(GRID_SCALE)
    flood = FloodIndex(layout).build(bundle.table)
    return flood, bundle


def _large_query(flood) -> Query:
    """A query covering most of the table with genuine residual checks.

    Bounds sit strictly inside each dimension's domain so boundary columns
    keep their per-point checks — the masking work that sharding splits.
    """
    table = flood.table
    ranges = {}
    for dim in flood.layout.order[:2]:
        lo, hi = table.min_max(dim)
        span = hi - lo
        ranges[dim] = (lo + span // 20, hi - span // 20)
    return Query(ranges)


def _best_seconds(run, repeats=5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def test_sharded_percell_identity(sharding_setup):
    """Process fan-out matches the seed loop on the generated mix."""
    flood, bundle = sharding_setup
    sharded = ShardedFloodIndex.wrap(flood, num_shards=4, min_parallel_points=0)
    try:
        for query in bundle.test[:20] + [_large_query(flood)]:
            for make in (CountVisitor, lambda: SumVisitor(flood.layout.order[0])):
                fast, slow = make(), make()
                s_fast = sharded.query(query, fast)
                s_slow = flood.query_percell(query, slow)
                assert fast.result == slow.result
                assert s_fast.points_scanned == s_slow.points_scanned
                assert s_fast.points_matched == s_slow.points_matched
    finally:
        sharded.shutdown()


def test_single_query_shard_sweep(sharding_setup):
    flood, _ = sharding_setup
    query = _large_query(flood)
    reference = CountVisitor()
    flood.query_percell(query, reference)

    visitor_kinds = (("numpy-count", CountVisitor), ("python-count", PyCountVisitor))
    variants = [("unsharded", 1, flood)] + [
        ("process", shards, ShardedFloodIndex.wrap(flood, num_shards=shards))
        for shards in SHARD_COUNTS
    ]
    rows = []
    try:
        for label, shards, index in variants:
            for visitor_name, visitor_cls in visitor_kinds:
                check = visitor_cls()
                index.query(query, check)  # warmup + identity
                assert check.result == reference.result, (label, visitor_name)
                rows.append(
                    {
                        "fanout": label,
                        "shards": shards,
                        "visitor": visitor_name,
                        "seconds": _best_seconds(
                            lambda: index.query(query, visitor_cls())
                        ),
                    }
                )
    finally:
        for _, _, index in variants[1:]:
            index.shutdown()

    print(f"\nsingle large query ({reference.result} rows matched), {CORES} cores:")
    for row in rows:
        print(
            f"  {row['fanout']:>9s} x{row['shards']}, {row['visitor']:>12s}: "
            f"{row['seconds'] * 1e3:8.2f} ms"
        )

    def speedup(visitor_name):
        seconds = {
            (row["fanout"], row["shards"]): row["seconds"]
            for row in rows
            if row["visitor"] == visitor_name
        }
        best = min(seconds[("process", s)] for s in SHARD_COUNTS)
        return seconds[("unsharded", 1)] / best

    gil_bound = speedup("python-count")
    print(
        f"  best fan-out over unsharded: {gil_bound:.2f}x GIL-bound, "
        f"{speedup('numpy-count'):.2f}x numpy COUNT (recorded, not asserted)"
    )
    # The perf trajectory: persisted for the CI artifact diff.
    write_json_result(
        "BENCH_sharding",
        {
            "rows": ROWS,
            "cores": CORES,
            "start_method": multiprocessing.get_start_method(),
            "matched": reference.result,
            "sweep": rows,
            "gil_bound_speedup": gil_bound,
            "numpy_count_speedup": speedup("numpy-count"),
        },
    )
    if CORES >= 2 and multiprocessing.get_start_method() == "fork":
        message = (
            f"process fan-out only {gil_bound:.2f}x over unsharded on the "
            f"GIL-bound visitor with {CORES} cores "
            f"(need >= {MIN_SHARDED_SPEEDUP}x)"
        )
        if REQUIRE_SPEEDUP:
            assert gil_bound >= MIN_SHARDED_SPEEDUP, message
        elif gil_bound < MIN_SHARDED_SPEEDUP:
            print(f"  WARNING (not asserted): {message}")
    else:
        print(
            f"  ({CORES} core(s), start method "
            f"{multiprocessing.get_start_method()!r}: speedup reported, "
            "not asserted)"
        )


def test_concurrency_sweep_identity(sharding_setup):
    flood, bundle = sharding_setup
    queries = (bundle.test + bundle.train)[:60]
    sharded = ShardedFloodIndex.wrap(flood)
    reference = BatchQueryEngine(flood, workers=1).run(queries)
    print(f"\nworkload of {len(queries)} queries, {CORES} cores:")
    try:
        for workers in (1, 2, 4):
            for index, label in ((flood, "unsharded"), (sharded, "sharded")):
                engine = BatchQueryEngine(index, workers=workers)
                batch = min(
                    (engine.run(queries) for _ in range(3)),
                    key=lambda b: b.wall_seconds,
                )
                assert batch.results == reference.results, (workers, label)
                print(f"  {workers} worker(s), {label:>9s}: "
                      f"{batch.queries_per_second:9.1f} q/s")
    finally:
        sharded.shutdown()


def test_no_leaked_segments_after_shutdown():
    """A sharded index's full lifecycle leaves no shm segment behind."""
    rng = np.random.default_rng(9)
    table = Table({
        "x": rng.integers(0, 1000, size=30_000),
        "y": rng.integers(0, 1000, size=30_000),
    })
    index = FloodIndex(GridLayout(("x", "y"), (8,))).build(table)
    with shm_leak_sanitizer() as probe:
        sharded = ShardedFloodIndex.wrap(index, num_shards=2, min_parallel_points=0)
        sharded.query(Query({"y": (0, 900)}), CountVisitor())
        assert probe.created()  # segments existed in use
        sharded.shutdown()
    # Exiting the sanitizer raises ShmLeakError if any segment survived.


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q", "-s"]))
