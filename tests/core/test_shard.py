"""Tests for the sharded index: boundaries, run splitting, result identity.

The load-bearing property mirrors the engine's: the sharded scan path —
runs split at shard boundaries, scanned on worker processes, merged in
order — must produce exactly the seed per-cell loop's rows, aggregates,
and stats counters, for every shard count and under forced parallelism.
Every index that scans in parallel is shut down, so no worker pool or
shared-memory segment outlives its test.
"""

import numpy as np
import pytest

from repro.core.engine import BatchQueryEngine
from repro.core.index import FloodIndex
from repro.core.layout import GridLayout
from repro.core.shard import ShardedFloodIndex
from repro.errors import BuildError
from repro.query.predicate import Query
from repro.storage.scan import split_runs
from repro.storage.visitor import (
    CollectVisitor,
    CountVisitor,
    RecordingVisitor,
    SumVisitor,
)

from tests.helpers import brute_force_rows, collected_rows, make_table, random_query

DIMS = ("x", "y", "z", "w")


@pytest.fixture
def sharded():
    """Factory for forced-parallel sharded indexes, shut down at teardown."""
    built = []

    def make(table, num_shards=4, columns=(5, 4, 3), **kwargs):
        kwargs.setdefault("min_parallel_points", 0)  # force the parallel path
        index = ShardedFloodIndex(
            GridLayout(DIMS, columns), num_shards=num_shards, **kwargs
        ).build(table)
        built.append(index)
        return index

    yield make
    for index in built:
        index.shutdown()


def _workload(table, n=12, seed=0):
    rng = np.random.default_rng(seed)
    return [random_query(table, rng) for _ in range(n)]


class TestSplitRuns:
    def test_runs_inside_one_shard_pass_through(self):
        runs = [(0, 5, 0), (7, 9, 1)]
        per_shard = split_runs(runs, [0, 10, 20])
        assert per_shard == [[(0, 5, 0), (7, 9, 1)], []]

    def test_run_crossing_boundaries_is_split_with_code_kept(self):
        runs = [(5, 35, 3)]
        per_shard = split_runs(runs, [0, 10, 20, 30, 40])
        assert per_shard == [
            [(5, 10, 3)],
            [(10, 20, 3)],
            [(20, 30, 3)],
            [(30, 35, 3)],
        ]

    def test_concatenation_preserves_coverage_and_order(self):
        rng = np.random.default_rng(3)
        pos = np.sort(rng.choice(1000, size=24, replace=False))
        runs = [
            (int(pos[i]), int(pos[i + 1]), int(rng.integers(0, 4)))
            for i in range(0, 24, 2)
        ]
        boundaries = [0, 130, 400, 777, 1000]
        per_shard = split_runs(runs, boundaries)
        flat = [r for shard in per_shard for r in shard]
        # Same rows covered, same codes, still storage-ordered.
        assert sum(stop - start for start, stop, _ in flat) == sum(
            stop - start for start, stop, _ in runs
        )
        assert all(flat[i][1] <= flat[i + 1][0] for i in range(len(flat) - 1))
        for k, shard in enumerate(per_shard):
            for start, stop, _ in shard:
                assert boundaries[k] <= start < stop <= boundaries[k + 1]

    def test_empty_runs_list(self):
        assert split_runs([], [0, 10, 20]) == [[], []]


class TestShardBounds:
    def test_bounds_snap_to_cell_starts(self, sharded):
        table = make_table(n=3000, dims=DIMS, seed=1, skew=True)
        index = sharded(table, num_shards=4)
        bounds = index.shard_bounds
        assert bounds[0] == 0 and bounds[-1] == table.num_rows
        assert np.all(np.diff(bounds) > 0)
        cell_starts = set(index.cell_starts.tolist())
        for b in bounds:
            assert int(b) in cell_starts

    def test_more_shards_than_cells_collapses(self):
        table = make_table(n=200, dims=("x", "y"), seed=2)
        index = ShardedFloodIndex(
            GridLayout(("x", "y"), (2,)), num_shards=16, min_parallel_points=0
        ).build(table)
        assert index.effective_shards <= 2

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(BuildError):
            ShardedFloodIndex(GridLayout(DIMS, (2, 2, 2)), num_shards=0)

    def test_unbuilt_access_raises(self):
        index = ShardedFloodIndex(GridLayout(DIMS, (2, 2, 2)), num_shards=2)
        with pytest.raises(BuildError):
            index.shard_bounds
        with pytest.raises(BuildError):
            index.cell_starts


class TestShardedIdentity:
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 8])
    def test_rows_and_stats_match_percell(self, sharded, num_shards):
        table = make_table(n=1200, dims=DIMS, seed=4, skew=True)
        index = sharded(table, num_shards=num_shards)
        for query in _workload(table, n=10, seed=5):
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

    @pytest.mark.parametrize("refinement", ["plm", "binary", "none"])
    def test_refinement_variants(self, sharded, refinement):
        table = make_table(n=900, dims=DIMS, seed=6)
        index = sharded(table, num_shards=3, refinement=refinement)
        for query in _workload(table, n=6, seed=7):
            assert np.array_equal(
                collected_rows(index, query), brute_force_rows(index, query)
            )

    def test_wrap_shares_build_and_matches(self):
        table = make_table(n=1500, dims=DIMS, seed=8, skew=True)
        plain = FloodIndex(GridLayout(DIMS, (5, 4, 3))).build(table)
        wrapped = ShardedFloodIndex.wrap(plain, num_shards=4, min_parallel_points=0)
        try:
            assert wrapped.table is plain.table  # shared, not copied
            assert wrapped.size_bytes() == plain.size_bytes()
            for query in _workload(table, n=8, seed=9):
                a, b = CountVisitor(), CountVisitor()
                plain.query(query, a)
                wrapped.query(query, b)
                assert a.result == b.result
        finally:
            wrapped.shutdown()

    def test_wrap_rejects_unbuilt(self):
        with pytest.raises(BuildError):
            ShardedFloodIndex.wrap(FloodIndex(GridLayout(DIMS, (2, 2, 2))))

    def test_sum_visitor_through_shards(self, sharded):
        table = make_table(n=1000, dims=DIMS, seed=10)
        index = sharded(table, num_shards=4)
        for query in _workload(table, n=6, seed=11):
            sharded_sum, plain_sum = SumVisitor("y"), SumVisitor("y")
            index.query(query, sharded_sum)
            index.query_percell(query, plain_sum)
            assert sharded_sum.result == plain_sum.result

    def test_serial_fallback_below_threshold(self):
        table = make_table(n=800, dims=DIMS, seed=12)
        index = ShardedFloodIndex(
            GridLayout(DIMS, (5, 4, 3)),
            num_shards=4,
            min_parallel_points=10**9,  # never parallelize
        ).build(table)
        for query in _workload(table, n=5, seed=13):
            assert np.array_equal(
                collected_rows(index, query), brute_force_rows(index, query)
            )

    def test_through_batch_engine(self, sharded):
        table = make_table(n=1400, dims=DIMS, seed=14)
        index = sharded(table, num_shards=3)
        queries = _workload(table, n=15, seed=15)
        batch = BatchQueryEngine(index, workers=2).run(queries)
        for query, got in zip(queries, batch.results):
            visitor = CountVisitor()
            index.query_percell(query, visitor)
            assert visitor.result == got


class TestRecordingVisitor:
    def test_replay_reproduces_visits(self):
        table = make_table(n=400, dims=DIMS, seed=20)
        index = FloodIndex(GridLayout(DIMS, (4, 3, 2))).build(table)
        query = _workload(table, n=1, seed=21)[0]
        recorder, direct = RecordingVisitor(), CollectVisitor()
        index.query(query, recorder)
        index.query(query, direct)
        replayed = CollectVisitor()
        recorder.replay(index.table, replayed)
        assert np.array_equal(np.sort(replayed.result), np.sort(direct.result))

    def test_reset_clears(self):
        visitor = RecordingVisitor()
        visitor.visit(None, 0, 3, None)
        assert len(visitor.result) == 1
        visitor.reset()
        assert visitor.result == []
