"""Process fan-out: identity to the per-cell loop, plumbing, leaks.

The contract is that scanning a query's shards on worker processes never
changes *what* it computes: the sharded index is held to the seed's
``FloodIndex.query_percell`` results and counters, for mergeable
visitors (partial-aggregate shipping) and arbitrary ones (recording
fallback) alike. Every index that scans in parallel is shut down.
"""

import numpy as np
import pytest

from repro.core.engine import BatchQueryEngine
from repro.core.index import FloodIndex
from repro.core.layout import GridLayout
from repro.core.shard import ProcessBackend, ShardedFloodIndex
from repro.errors import QueryError
from repro.query.predicate import Query
from repro.query.stats import QueryStats
from repro.storage.scan import split_runs
from repro.storage.shm import SharedMemoryTable, owned_segment_names
from repro.storage.visitor import (
    CollectVisitor,
    CountVisitor,
    SumVisitor,
    Visitor,
)

from tests.helpers import make_table, random_query

DIMS = ("x", "y", "z")


@pytest.fixture(scope="module")
def flood():
    table = make_table(n=6000, dims=DIMS, seed=11)
    return FloodIndex(GridLayout(DIMS, (6, 5))).build(table)


@pytest.fixture(scope="module")
def sharded(flood):
    index = ShardedFloodIndex.wrap(flood, num_shards=4, min_parallel_points=0)
    yield index
    index.shutdown()


def _on_path(flood, sharded, path):
    """The sharded index on one of its two scan paths: ``process`` fans
    every plan out to worker processes, ``serial`` keeps every plan below
    ``min_parallel_points`` and so on the serial kernel."""
    if path == "process":
        return sharded
    return ShardedFloodIndex.wrap(flood, num_shards=4, min_parallel_points=10**12)


def _queries(flood, n, seed):
    rng = np.random.default_rng(seed)
    return [random_query(flood.table, rng) for _ in range(n)]


class _DoubleCount(CountVisitor):
    """A subclass overriding visit(); module-level so worker processes
    can unpickle fresh() prototypes by reference."""

    def visit(self, table, start, stop, mask):
        super().visit(table, start, stop, mask)
        super().visit(table, start, stop, mask)


class _TupleVisitor(Visitor):
    """Deliberately non-mergeable: exercises the recording fallback."""

    def __init__(self):
        self.spans = []

    def visit(self, table, start, stop, mask):
        count = stop - start if mask is None else int(np.count_nonzero(mask))
        self.spans.append((start, stop, count))

    @property
    def result(self):
        return self.spans


class TestIdentity:
    @pytest.mark.parametrize("path", ["serial", "process"])
    def test_counts_and_stats_match_percell(self, flood, sharded, path):
        index = _on_path(flood, sharded, path)
        for query in _queries(flood, 12, seed=2):
            fast, slow = CountVisitor(), CountVisitor()
            s_fast = index.query(query, fast)
            s_slow = flood.query_percell(query, slow)
            assert fast.result == slow.result
            assert s_fast.points_scanned == s_slow.points_scanned
            assert s_fast.points_matched == s_slow.points_matched
            assert s_fast.exact_points == s_slow.exact_points

    @pytest.mark.parametrize("path", ["serial", "process"])
    def test_sum_and_collect_match(self, flood, sharded, path):
        index = _on_path(flood, sharded, path)
        for query in _queries(flood, 6, seed=3):
            total, reference_total = SumVisitor("y"), SumVisitor("y")
            index.query(query, total)
            flood.query_percell(query, reference_total)
            assert total.result == reference_total.result
            rows, reference_rows = CollectVisitor(), CollectVisitor()
            index.query(query, rows)
            flood.query_percell(query, reference_rows)
            np.testing.assert_array_equal(
                np.sort(rows.result), np.sort(reference_rows.result)
            )

    def test_collect_order_deterministic_across_backends(self, flood, sharded):
        """Partial-aggregate shipping reproduces the serial kernel's
        visit order shard by shard — shard order, per-shard code
        grouping — not just the same multiset."""
        for query in _queries(flood, 4, seed=4):
            got = CollectVisitor()
            sharded.query(query, got)
            plan = flood.plan(query)
            flood.refine_plan(plan)
            expected = CollectVisitor()
            for shard_runs in split_runs(
                plan.coalesced_runs(), sharded.shard_bounds
            ):
                if shard_runs:
                    flood.execute_plan(
                        plan, query, expected, QueryStats(), runs=shard_runs
                    )
            np.testing.assert_array_equal(got.result, expected.result)

    def test_subclassed_visitor_correct_under_every_backend(self, flood, sharded):
        """Regression: fresh() used to hard-code the base class, so a
        subclass overriding visit() silently computed the base aggregate
        on the parallel path."""
        query = Query({"x": (50, 900), "z": (100, 800)})
        expected = CountVisitor()
        flood.query_percell(query, expected)
        doubled = _DoubleCount()
        sharded.query(query, doubled)
        assert doubled.result == 2 * expected.result

    def test_non_mergeable_visitor_uses_recording_fallback(self, flood, sharded):
        query = Query({"x": (50, 900), "z": (100, 800)})
        fallback, reference = _TupleVisitor(), CountVisitor()
        sharded.query(query, fallback)
        flood.query_percell(query, reference)
        assert sum(count for _, _, count in fallback.result) == reference.result

    def test_cumulative_fast_path_survives_process_hop(self):
        """Workers see the shared cumulative column, so exact-range SUMs
        stay O(1) on the far side of the pool."""
        table = make_table(n=5000, dims=DIMS, seed=12)
        index = FloodIndex(GridLayout(DIMS, (6, 5))).build(table)
        index.table.add_cumulative("y")
        sharded = ShardedFloodIndex.wrap(index, num_shards=4, min_parallel_points=0)
        try:
            query = Query({"x": table.min_max("x")})  # whole domain: exact runs
            fast, slow = SumVisitor("y"), SumVisitor("y")
            sharded.query(query, fast)
            index.query_percell(query, slow)
            assert fast.result == slow.result
            assert fast.cumulative_hits > 0
        finally:
            sharded.shutdown()


class TestPlumbing:
    def test_small_plans_stay_serial(self, flood):
        """Below min_parallel_points no pool or segment is ever created."""
        before = set(owned_segment_names())
        sharded = ShardedFloodIndex.wrap(flood, num_shards=4)
        query = Query({"x": (100, 120)})
        got, expected = CountVisitor(), CountVisitor()
        sharded.query(query, got)
        flood.query_percell(query, expected)
        assert got.result == expected.result
        assert set(owned_segment_names()) == before
        sharded.shutdown()  # a no-op here, and must not raise

    def test_engine_backend_wiring_identical_results(self, flood, sharded):
        """Engine worker threads share the index's one process pool."""
        queries = _queries(flood, 10, seed=5)
        reference = BatchQueryEngine(flood).run(queries)
        batch = BatchQueryEngine(sharded, workers=2).run(queries)
        assert batch.results == reference.results

    def test_invalid_worker_count(self, flood):
        with pytest.raises(QueryError):
            ProcessBackend(flood.table, workers=0)


class TestLifecycle:
    def test_shutdown_unlinks_owned_segments(self):
        table = make_table(n=2000, dims=("x", "y"), seed=13)
        index = FloodIndex(GridLayout(("x", "y"), (4,))).build(table)
        before = set(owned_segment_names())
        sharded = ShardedFloodIndex.wrap(index, num_shards=2, min_parallel_points=0)
        assert set(owned_segment_names()) == before  # nothing until a scan
        sharded.query(Query({"y": (0, 500)}), CountVisitor())
        created = set(owned_segment_names()) - before
        assert created  # the first parallel scan put the table in shm
        sharded.shutdown()
        assert not created & set(owned_segment_names())
        sharded.shutdown()  # idempotent

    def test_scan_after_shutdown_starts_afresh(self):
        table = make_table(n=2000, dims=("x", "y"), seed=15)
        index = FloodIndex(GridLayout(("x", "y"), (4,))).build(table)
        sharded = ShardedFloodIndex.wrap(index, num_shards=2, min_parallel_points=0)
        query = Query({"y": (0, 700)})
        expected = CountVisitor()
        index.query_percell(query, expected)
        before = set(owned_segment_names())
        for _ in range(2):
            got = CountVisitor()
            sharded.query(query, got)
            assert got.result == expected.result
            sharded.shutdown()
            assert set(owned_segment_names()) == before

    def test_borrowed_shm_table_not_unlinked_by_shutdown(self):
        table = make_table(n=2000, dims=("x", "y"), seed=14)
        shm_table = SharedMemoryTable.from_table(table)
        backend = ProcessBackend(shm_table, workers=1)
        backend.shutdown()
        # The caller owns a table it passed in; shutdown must not yank it.
        np.testing.assert_array_equal(shm_table.values("x"), table.values("x"))
        shm_table.unlink()

    def test_pool_survives_across_queries(self, flood, sharded):
        for query in _queries(flood, 5, seed=6):
            expected = CountVisitor()
            flood.query_percell(query, expected)
            got = CountVisitor()
            sharded.query(query, got)
            assert got.result == expected.result
        pool = sharded._backend._pool
        assert pool is not None  # persistent, not per-query
        sharded.query(_queries(flood, 1, seed=7)[0], CountVisitor())
        assert sharded._backend._pool is pool
