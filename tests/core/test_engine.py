"""Tests for the batch query engine and the vectorized query path.

The load-bearing property is *result identity*: the vectorized plan /
refine / scan pipeline (single-query and batched, sequential and threaded)
must produce exactly the seed per-cell loop's rows, aggregates, and stats
counters on every index variant.
"""

import numpy as np
import pytest

from repro.core.engine import BatchQueryEngine, BatchResult
from repro.core.index import FloodIndex
from repro.core.layout import GridLayout
from repro.errors import BuildError, QueryError
from repro.query.predicate import Query
from repro.storage.scan import scan_filtered, scan_runs
from repro.storage.table import Table
from repro.storage.visitor import CollectVisitor, CountVisitor, SumVisitor

from tests.helpers import brute_force_rows, collected_rows, make_table, random_query

DIMS = ("x", "y", "z", "w")


def _flood(table, columns=(5, 4, 3), **kwargs):
    return FloodIndex(GridLayout(DIMS, columns), **kwargs).build(table)


def _workload(table, n=15, seed=0):
    rng = np.random.default_rng(seed)
    return [random_query(table, rng) for _ in range(n)]


class TestVectorizedQueryIdentity:
    """FloodIndex.query (vectorized) vs FloodIndex.query_percell (seed)."""

    @pytest.mark.parametrize("flatten", ["rmi", "quantile", "none"])
    @pytest.mark.parametrize("refinement", ["plm", "binary", "none"])
    def test_rows_and_stats_match_percell(self, flatten, refinement):
        table = make_table(n=900, dims=DIMS, seed=1, skew=True)
        index = _flood(table, flatten=flatten, refinement=refinement)
        for query in _workload(table, n=10, seed=2):
            fast, slow = CollectVisitor(), CollectVisitor()
            s_fast = index.query(query, fast)
            s_slow = index.query_percell(query, slow)
            assert np.array_equal(np.sort(fast.result), np.sort(slow.result))
            for attr in (
                "points_scanned",
                "points_matched",
                "cells_visited",
                "exact_points",
            ):
                assert getattr(s_fast, attr) == getattr(s_slow, attr), attr

    def test_large_plan_lockstep_refinement(self):
        # Hundreds of intersecting cells refined in one pass.
        table = make_table(n=4000, dims=DIMS, seed=3)
        index = _flood(table, columns=(8, 8, 4))
        query = Query({"x": (0, 999), "w": (200, 600)})
        fast, slow = CollectVisitor(), CollectVisitor()
        index.query(query, fast)
        index.query_percell(query, slow)
        assert np.array_equal(np.sort(fast.result), np.sort(slow.result))

    def test_conditional_flatten_identity(self):
        table = make_table(n=900, dims=("x", "y", "z"), seed=4)
        index = FloodIndex(
            GridLayout(("x", "y", "z"), (6, 5)), flatten="conditional"
        ).build(table)
        for query in _workload(table, n=8, seed=5):
            fast, slow = CollectVisitor(), CollectVisitor()
            index.query(query, fast)
            index.query_percell(query, slow)
            assert np.array_equal(np.sort(fast.result), np.sort(slow.result))

    def test_brute_force_still_holds(self):
        table = make_table(n=700, dims=DIMS, seed=6, skew=True)
        index = _flood(table)
        for query in _workload(table, n=8, seed=7):
            assert np.array_equal(
                collected_rows(index, query), brute_force_rows(index, query)
            )


class TestQueryPlan:
    def test_full_domain_query_coalesces_to_one_run(self):
        table = make_table(n=2000, dims=DIMS, seed=8)
        index = _flood(table, columns=(6, 5, 4))
        plan = index.plan(Query({"x": (-(10**7), 10**7)}))
        runs = plan.coalesced_runs()
        # Every cell is interior (no residual checks) and storage-adjacent:
        # the whole table collapses into a single exact run.
        assert runs == [(0, table.num_rows, 0)]

    def test_checks_decode_in_dim_order(self):
        table = make_table(n=1500, dims=DIMS, seed=9)
        index = _flood(table, columns=(4, 4, 4))
        lo_x, hi_x = table.min_max("x")
        query = Query({"x": (lo_x + 1, hi_x - 1), "y": (0, 400)})
        plan = index.plan(query)
        seen = {plan.checks_for(int(c)) for c in plan.codes}
        for checks in seen:
            assert set(checks) <= {"x", "y"}
            assert list(checks) == [d for d in ("x", "y") if d in checks]

    def test_plan_counts_empty_cells_as_visited(self):
        table = make_table(n=60, dims=DIMS, seed=10)
        index = _flood(table, columns=(8, 8, 2))  # mostly empty cells
        stats = index.query(Query({"x": (-(10**7), 10**7)}), CountVisitor())
        assert stats.cells_visited == 8 * 8 * 2


class TestBatchQueryEngine:
    def test_matches_legacy_loop_counts_and_stats(self):
        table = make_table(n=1200, dims=DIMS, seed=11, skew=True)
        index = _flood(table)
        queries = _workload(table, n=20, seed=12)
        batch = BatchQueryEngine(index).run(queries)
        for query, got_count, got_stats in zip(queries, batch.results, batch.stats):
            visitor = CountVisitor()
            legacy = index.query_percell(query, visitor)
            assert visitor.result == got_count
            assert legacy.points_matched == got_stats.points_matched
            assert legacy.points_scanned == got_stats.points_scanned
            assert legacy.cells_visited == got_stats.cells_visited

    def test_parallel_workers_identical_results(self):
        table = make_table(n=1500, dims=DIMS, seed=13)
        index = _flood(table)
        queries = _workload(table, n=30, seed=14)
        sequential = BatchQueryEngine(index, workers=1).run(queries)
        threaded = BatchQueryEngine(index, workers=4).run(queries)
        assert sequential.results == threaded.results
        assert [s.points_matched for s in sequential.stats] == [
            s.points_matched for s in threaded.stats
        ]

    def test_repeated_queries_keep_results(self):
        table = make_table(n=800, dims=DIMS, seed=15)
        index = _flood(table)
        queries = _workload(table, n=10, seed=16)
        engine = BatchQueryEngine(index)
        first = engine.run(queries + queries)
        second = engine.run(queries + queries)
        assert first.results == second.results
        assert first.results[: len(queries)] == first.results[len(queries) :]
        for query, got in zip(queries, first.results):
            visitor = CountVisitor()
            index.query_percell(query, visitor)
            assert visitor.result == got

    def test_sum_visitors_agree_with_single_query_path(self):
        table = make_table(n=1000, dims=DIMS, seed=17)
        index = _flood(table)
        queries = _workload(table, n=12, seed=18)
        batch = BatchQueryEngine(index).run(
            queries, visitor_factory=lambda: SumVisitor("y")
        )
        for query, got in zip(queries, batch.results):
            visitor = SumVisitor("y")
            index.query(query, visitor)
            assert visitor.result == got

    def test_batch_result_accounting(self):
        table = make_table(n=600, dims=DIMS, seed=19)
        index = _flood(table)
        queries = _workload(table, n=5, seed=20)
        batch = BatchQueryEngine(index).run(queries)
        assert batch.num_queries == 5
        assert batch.wall_seconds > 0
        assert batch.queries_per_second > 0
        assert batch.points_matched == sum(s.points_matched for s in batch.stats)
        workload = batch.workload_result("Flood")
        assert workload.num_queries == 5

    def test_rejects_unbuilt_index(self):
        with pytest.raises(BuildError):
            BatchQueryEngine(FloodIndex(GridLayout(DIMS, (2, 2, 2))))

    def test_rejects_non_flood_index(self):
        from repro.baselines import FullScanIndex

        with pytest.raises(QueryError):
            BatchQueryEngine(FullScanIndex().build(make_table()))


class TestScanRuns:
    def _table(self, n=3000, seed=21):
        rng = np.random.default_rng(seed)
        return Table({"a": rng.integers(0, 100, size=n), "b": rng.integers(0, 100, size=n)})

    def test_gather_path_matches_per_run_path(self):
        table = self._table()
        rng = np.random.default_rng(22)
        starts = np.sort(rng.choice(2900, size=40, replace=False))
        runs = [(int(s), int(s) + int(rng.integers(1, 60))) for s in starts]
        bounds = [("a", 10, 60), ("b", 20, 90)]
        gather, per_run = CollectVisitor(), CollectVisitor()
        scanned_g, matched_g = scan_runs(table, bounds, runs, gather)
        scanned_p = matched_p = 0
        for start, stop in runs:
            s, m = scan_filtered(table, bounds, start, stop, per_run)
            scanned_p += s
            matched_p += m
        assert (scanned_g, matched_g) == (scanned_p, matched_p)
        assert np.array_equal(np.sort(gather.result), np.sort(per_run.result))

    def test_long_runs_take_slice_path(self):
        table = self._table()
        runs = [(0, 1500), (1500, 3000)]
        visitor = CountVisitor()
        scanned, matched = scan_runs(table, [("a", 0, 49)], runs, visitor)
        assert scanned == 3000
        assert matched == visitor.result

    def test_empty_bounds_are_exact(self):
        table = self._table()
        visitor = CountVisitor()
        scanned, matched = scan_runs(table, [], [(5, 10), (20, 25)], visitor)
        assert scanned == matched == 10
        assert visitor.result == 10

    def test_zero_length_runs_are_safe(self):
        table = self._table()
        runs = [(0, 0)] * 10 + [(10, 20)]
        visitor = CountVisitor()
        scanned, matched = scan_runs(table, [("a", 0, 100)], runs, visitor)
        assert scanned == 10
        assert matched == 10


class TestBatchResultDefaults:
    def test_empty_batch(self):
        result = BatchResult()
        assert result.num_queries == 0
        assert result.queries_per_second == 0.0
        assert result.results == []

    def test_zero_elapsed_time_guard(self):
        """Regression: a clock too coarse for a tiny batch must not yield
        inf (or raise) — throughput degrades to 0.0, never nonsense."""
        from repro.query.stats import QueryStats

        fast = BatchResult(
            stats=[QueryStats()], visitors=[CountVisitor()], wall_seconds=0.0
        )
        assert fast.num_queries == 1
        assert fast.queries_per_second == 0.0
        negative = BatchResult(
            stats=[QueryStats()], visitors=[CountVisitor()], wall_seconds=-1e-9
        )
        assert negative.queries_per_second == 0.0
        empty_and_instant = BatchResult(wall_seconds=0.0)
        assert empty_and_instant.queries_per_second == 0.0

    def test_normal_batch_reports_finite_throughput(self):
        from repro.query.stats import QueryStats

        result = BatchResult(
            stats=[QueryStats()] * 4, visitors=[CountVisitor()] * 4,
            wall_seconds=0.5,
        )
        assert result.queries_per_second == pytest.approx(8.0)


class TestEngineExtensions:
    def test_explicit_visitors_list(self):
        """The batcher's path: mixed per-query visitors in one batch."""
        table = make_table(n=900, dims=DIMS, seed=30)
        index = _flood(table)
        queries = _workload(table, n=4, seed=31)
        visitors = [CountVisitor(), SumVisitor("y"), CountVisitor(), SumVisitor("z")]
        batch = BatchQueryEngine(index).run(queries, visitors=visitors)
        assert batch.visitors is visitors
        for query, visitor in zip(queries, visitors):
            twin = type(visitor)(visitor.dim) if hasattr(visitor, "dim") else type(visitor)()
            index.query_percell(query, twin)
            assert visitor.result == twin.result

    def test_visitors_length_mismatch_rejected(self):
        table = make_table(n=300, dims=DIMS, seed=32)
        index = _flood(table)
        queries = _workload(table, n=3, seed=33)
        with pytest.raises(QueryError):
            BatchQueryEngine(index).run(queries, visitors=[CountVisitor()])

    def test_external_executor_reused_not_shut_down(self):
        from concurrent.futures import ThreadPoolExecutor

        table = make_table(n=1000, dims=DIMS, seed=34)
        index = _flood(table)
        queries = _workload(table, n=12, seed=35)
        pool = ThreadPoolExecutor(max_workers=2)
        try:
            engine = BatchQueryEngine(index, workers=2, executor=pool)
            first = engine.run(queries)
            second = engine.run(queries)  # pool must still be usable
            reference = BatchQueryEngine(index).run(queries)
            assert first.results == second.results == reference.results
        finally:
            pool.shutdown()
