"""Tests for the Section 6/8 extensions: delta-buffered inserts, workload
monitoring, and kNN search."""

import numpy as np
import pytest

from repro.core.delta import DeltaBufferedFlood
from repro.core.index import FloodIndex
from repro.core.knn import KNNSearcher, knn
from repro.core.layout import GridLayout
from repro.core.monitor import WorkloadMonitor
from repro.errors import QueryError, SchemaError
from repro.query.predicate import Query
from repro.storage.table import Table
from repro.storage.visitor import CollectVisitor, CountVisitor, SumVisitor

from tests.helpers import make_table

DIMS = ("x", "y", "z")


def _row(rng):
    return {d: int(rng.integers(0, 1000)) for d in DIMS}


class TestDeltaBufferedFlood:
    def _build(self, n=500, threshold=None, seed=0):
        table = make_table(n=n, dims=DIMS, seed=seed)
        index = DeltaBufferedFlood(
            GridLayout(DIMS, (3, 3)), merge_threshold=threshold
        )
        return index.build(table)

    def test_insert_visible_in_queries(self):
        index = self._build()
        before = CountVisitor()
        query = Query({"x": (0, 1000)})
        index.query(query, before)
        index.insert({"x": 5, "y": 5, "z": 5})
        after = CountVisitor()
        index.query(query, after)
        assert after.result == before.result + 1

    def test_inserted_rows_match_filters_exactly(self):
        index = self._build()
        index.insert({"x": 777, "y": 1, "z": 1})
        index.insert({"x": 3, "y": 1, "z": 1})
        visitor = CountVisitor()
        index.query(Query({"x": (700, 800)}), visitor)
        brute = int(
            ((index.table.values("x") >= 700) & (index.table.values("x") <= 800)).sum()
        )
        assert visitor.result == brute + 1  # only the 777 row from the buffer

    def test_auto_merge_at_threshold(self):
        index = self._build(threshold=10)
        rng = np.random.default_rng(1)
        for _ in range(10):
            index.insert(_row(rng))
        assert index.merges == 1
        assert index.buffered_rows == 0
        assert index.table.num_rows == 510

    def test_manual_merge_preserves_results(self):
        index = self._build()
        rng = np.random.default_rng(2)
        rows = [_row(rng) for _ in range(25)]
        for row in rows:
            index.insert(row)
        query = Query({"y": (100, 900)})
        before = CountVisitor()
        index.query(query, before)
        index.merge()
        assert index.buffered_rows == 0
        after = CountVisitor()
        index.query(query, after)
        assert after.result == before.result

    def test_insert_many(self):
        index = self._build()
        index.insert_many({"x": [1, 2], "y": [3, 4], "z": [5, 6]})
        assert index.buffered_rows == 2

    def test_insert_many_misaligned(self):
        index = self._build()
        with pytest.raises(SchemaError):
            index.insert_many({"x": [1], "y": [2, 3], "z": [4]})

    def test_wrong_schema_rejected(self):
        index = self._build()
        with pytest.raises(SchemaError):
            index.insert({"x": 1, "y": 2})

    def test_merge_noop_when_empty(self):
        index = self._build()
        index.merge()
        assert index.merges == 0

    def test_size_includes_buffer(self):
        index = self._build()
        base = index.size_bytes()
        index.insert({"x": 1, "y": 2, "z": 3})
        assert index.size_bytes() > base


class TestDeltaDtypeAdoption:
    """The buffer must adopt the table's per-column dtype — float
    dimensions used to be silently truncated through ``int(v)``."""

    def _float_delta(self, n=800, seed=6, threshold=None):
        rng = np.random.default_rng(seed)
        data = {
            "x": rng.uniform(0, 1000, n),          # float64
            "y": rng.integers(0, 1000, n),         # int64
            "z": rng.uniform(0, 1000, n),          # float64
        }
        table = Table(data)
        index = DeltaBufferedFlood(
            GridLayout(DIMS, (3, 3)), merge_threshold=threshold
        ).build(table)
        return index, data

    def test_float_insert_not_truncated(self):
        index, data = self._float_delta()
        index.insert({"x": 1.5, "y": 2, "z": 3.25})
        visitor = SumVisitor("x")
        index.query(Query({"x": (0, 1000)}), visitor)
        assert visitor.result == pytest.approx(data["x"].sum() + 1.5)

    def test_float_survives_merge(self):
        index, data = self._float_delta()
        index.insert({"x": 0.75, "y": 1, "z": 0.5})
        index.merge()
        assert index.table.values("x").dtype == np.float64
        visitor = SumVisitor("x")
        index.query(Query({"x": (0, 1000)}), visitor)
        assert visitor.result == pytest.approx(data["x"].sum() + 0.75)

    def test_float_insert_many(self):
        index, data = self._float_delta()
        index.insert_many(
            {"x": [0.25, 0.75], "y": [1, 2], "z": [10.5, 20.25]}
        )
        visitor = SumVisitor("z")
        index.query(Query({"z": (0, 1000)}), visitor)
        assert visitor.result == pytest.approx(data["z"].sum() + 30.75)

    def test_fractional_rows_filter_exactly(self):
        """A 0.5-valued row must match [0, 0] on no dimension and
        [0, 1] on every dimension — int truncation would flip the
        first."""
        index, _ = self._float_delta()
        index.insert({"x": 0.5, "y": 0, "z": 0.5})
        hit = CountVisitor()
        index.query(Query({"x": (0, 1)}), hit)
        miss_exact_zero = CountVisitor()
        index.query(Query({"x": (0, 0), "z": (0, 0)}), miss_exact_zero)
        brute_hit = 1  # inserted row; x uniform over (0, 1000) floats
        assert hit.result >= brute_hit
        assert miss_exact_zero.result == 0

    def test_int_columns_still_coerce(self):
        table = make_table(n=300, dims=DIMS, seed=7)
        index = DeltaBufferedFlood(GridLayout(DIMS, (2, 2))).build(table)
        index.insert({"x": 1.9, "y": 2, "z": 3})  # int64 column truncates
        visitor = CollectVisitor()
        index.query(Query({"x": (1, 1)}), visitor)
        buffered = index._buffer["x"]
        assert buffered[0] == 1 and isinstance(buffered[0], np.int64)


#: Inserts that must be rejected whole: non-numeric, out of the int64
#: column's range, non-scalar in a single-row insert, non-finite, and
#: their batch forms (the bad value last, after good ones).
BAD_INSERTS = [
    ("insert", {"x": 1, "y": "abc", "z": 3}),
    ("insert", {"x": 1e300, "y": 2, "z": 3}),
    ("insert", {"x": [1, 2], "y": 5, "z": 3}),
    ("insert", {"x": 2**63, "y": 2, "z": 3}),
    ("insert", {"x": float("nan"), "y": 2, "z": 3}),
    ("insert", {"x": None, "y": 2, "z": 3}),
    ("insert_many", {"x": [1, 2], "y": [3, 4], "z": [5, "abc"]}),
    ("insert_many", {"x": [1, 2], "y": [3, 4], "z": [5, 1e300]}),
    ("insert_many", {"x": [1, 2], "y": [3, 4], "z": [5, float("inf")]}),
    ("insert_many", {"x": [[1, 2]], "y": [[3, 4]], "z": [[5, 6]]}),
]


class TestDeltaRejectsBadInserts:
    """A bad value anywhere in a row or batch must leave the buffer,
    the generation, queries, and merges exactly as they were."""

    @pytest.mark.parametrize(
        "op, payload",
        BAD_INSERTS,
        ids=[f"{op}-{i}" for i, (op, _) in enumerate(BAD_INSERTS)],
    )
    def test_bad_insert_changes_nothing(self, op, payload):
        table = make_table(n=400, dims=DIMS, seed=17)
        index = DeltaBufferedFlood(
            GridLayout(DIMS, (2, 2)), merge_threshold=None
        ).build(table)
        index.insert({"x": 5, "y": 5, "z": 5})
        generation = index.generation
        with pytest.raises(SchemaError):
            getattr(index, op)(payload)
        assert index.generation == generation
        assert {len(column) for column in index._buffer.values()} == {1}
        query = Query({"x": (0, 1000)})
        visitor = CountVisitor()
        index.query(query, visitor)
        assert visitor.result == 401
        index.merge()
        after = CountVisitor()
        index.query(query, after)
        assert after.result == 401
        assert index.table.values("x").dtype == np.int64

    def test_range_edges_accepted(self):
        table = make_table(n=100, dims=DIMS, seed=18)
        index = DeltaBufferedFlood(GridLayout(DIMS, (2, 2))).build(table)
        top = int(np.iinfo(np.int64).max)
        index.insert({"x": top, "y": -top - 1, "z": 2.0**62})
        assert [index._buffer[d][0] for d in DIMS] == [top, -top - 1, 2**62]


class TestDeltaTimingConsistency:
    def test_buffer_scan_times_agree(self):
        """scan_time and total_time must grow by the *same* measured
        delta (two separate perf_counter() reads used to disagree)."""
        table = make_table(n=400, dims=DIMS, seed=8)
        index = DeltaBufferedFlood(GridLayout(DIMS, (2, 2))).build(table)
        for i in range(50):
            index.insert({"x": i, "y": i, "z": i})
        base = index.index.query(Query({"x": (0, 1000)}), CountVisitor())
        delta_stats = index.query(Query({"x": (0, 1000)}), CountVisitor())
        # The buffer contribution to both counters is identical.
        scan_contrib = delta_stats.scan_time - base.scan_time
        total_contrib = delta_stats.total_time - base.total_time
        assert scan_contrib >= 0
        # Same measurement feeds both, so the difference between the two
        # contributions is exactly the (tiny) drift of base timings, not
        # a systematic extra perf_counter window.
        assert delta_stats.total_time - delta_stats.scan_time == pytest.approx(
            delta_stats.index_time + delta_stats.refine_time, abs=1e-12
        )


class TestDeltaMergeLifecycle:
    """The serving-side split: prepare off-thread, commit atomically."""

    def _build(self, n=600, seed=9, **kwargs):
        table = make_table(n=n, dims=DIMS, seed=seed)
        return DeltaBufferedFlood(
            GridLayout(DIMS, (3, 3)), merge_threshold=None, **kwargs
        ).build(table)

    def test_prepare_commit_equals_blocking_merge(self):
        index = self._build()
        rng = np.random.default_rng(10)
        for _ in range(20):
            index.insert(_row(rng))
        prepared = index.prepare_merge()
        assert prepared.rows_merged == 20
        old = index.commit_merge(prepared)
        assert old is not None  # the superseded inner index
        assert index.buffered_rows == 0
        assert index.merges == 1
        assert index.table.num_rows == 620

    def test_rows_inserted_mid_merge_survive(self):
        """Inserts landing between prepare and commit stay buffered and
        visible — the non-blocking merge's core invariant."""
        index = self._build()
        rng = np.random.default_rng(11)
        for _ in range(10):
            index.insert(_row(rng))
        prepared = index.prepare_merge()
        late = {"x": 7, "y": 7, "z": 7}
        index.insert(late)  # mid-merge insert
        index.commit_merge(prepared)
        assert index.buffered_rows == 1
        assert index.table.num_rows == 610
        visitor = CountVisitor()
        index.query(Query({"x": (7, 7), "y": (7, 7), "z": (7, 7)}), visitor)
        brute = int(
            (
                (index.table.values("x") == 7)
                & (index.table.values("y") == 7)
                & (index.table.values("z") == 7)
            ).sum()
        )
        assert visitor.result == brute + 1

    def test_prepare_on_empty_buffer_is_none(self):
        index = self._build()
        assert index.prepare_merge() is None
        assert index.commit_merge(None) is None

    def test_generation_bumps_on_commit(self):
        index = self._build()
        index.insert({"x": 1, "y": 2, "z": 3})
        generation = index.generation
        index.commit_merge(index.prepare_merge())
        assert index.generation == generation + 1

    def test_relayout_learns_new_layout_and_merges(self):
        from repro.core.cost import AnalyticCostModel

        index = self._build(n=2000, seed=13)
        rng = np.random.default_rng(14)
        for _ in range(5):
            index.insert(_row(rng))
        queries = [
            Query({"y": (i * 50, i * 50 + 40), "z": (0, 500)}) for i in range(10)
        ]
        prepared = index.prepare_relayout(
            queries, cost_model=AnalyticCostModel(), seed=1
        )
        assert prepared.layout is not None
        index.commit_merge(prepared)
        assert index.retrains == 1
        assert index.merges == 0  # relayouts counted separately
        assert index.buffered_rows == 0
        assert index.layout is prepared.layout
        visitor = CountVisitor()
        index.query(queries[0], visitor)
        assert visitor.result == int(queries[0].match_mask(index.table).sum())


class TestEngineEnumCacheOverMutableIndex:
    def test_merge_between_runs_invalidates_enum_cache(self):
        """An auto-merge between ``run()`` calls rebuilds the clustered
        table under the engine; the same query must then count the merged
        rows. The engine keeps no cell enumeration (or any other position
        of the old table) across runs, so nothing stale can be scanned."""
        from repro.core.engine import BatchQueryEngine

        table = make_table(n=2000, dims=DIMS, seed=17)
        index = DeltaBufferedFlood(
            GridLayout(DIMS, (4, 4)), merge_threshold=32
        ).build(table)
        engine = BatchQueryEngine(index)
        query = Query({"x": (100, 600), "y": (0, 800)})
        first = engine.run([query]).results[0]
        assert first == int(query.match_mask(index.table).sum())
        rng = np.random.default_rng(18)
        matching = 0
        for _ in range(40):  # crosses merge_threshold -> table rebuilt
            row = _row(rng)
            matching += int(
                100 <= row["x"] <= 600 and 0 <= row["y"] <= 800
            )
            index.insert(row)
        assert index.merges >= 1
        second = engine.run([query]).results[0]
        assert second == first + matching

    def test_relayout_between_runs_invalidates_enum_cache(self):
        from repro.core.cost import AnalyticCostModel
        from repro.core.engine import BatchQueryEngine

        table = make_table(n=2000, dims=DIMS, seed=19)
        index = DeltaBufferedFlood(
            GridLayout(DIMS, (4, 4)), merge_threshold=None
        ).build(table)
        engine = BatchQueryEngine(index)
        query = Query({"y": (100, 700)})
        first = engine.run([query]).results[0]
        prepared = index.prepare_relayout(
            [Query({"y": (i * 60, i * 60 + 50)}) for i in range(10)],
            cost_model=AnalyticCostModel(),
        )
        index.commit_merge(prepared)
        second = engine.run([query]).results[0]
        assert second == first == int(query.match_mask(index.table).sum())


class TestQueryableProtocol:
    def test_delta_satisfies_protocol(self):
        from repro.core.protocol import require_queryable, supports_insert

        table = make_table(n=200, dims=DIMS, seed=15)
        index = DeltaBufferedFlood(GridLayout(DIMS, (2, 2))).build(table)
        require_queryable(index)  # must not raise
        assert supports_insert(index)

    def test_plain_flood_is_queryable_but_immutable(self):
        from repro.core.protocol import require_queryable, supports_insert

        table = make_table(n=200, dims=DIMS, seed=16)
        index = FloodIndex(GridLayout(DIMS, (2, 2))).build(table)
        require_queryable(index)
        assert not supports_insert(index)

    def test_baseline_rejected(self):
        from repro.baselines import FullScanIndex
        from repro.core.protocol import require_queryable

        with pytest.raises(QueryError):
            require_queryable(FullScanIndex().build(make_table()))

    def test_unbuilt_delta_raises_builderror(self):
        from repro.core.protocol import require_queryable
        from repro.errors import BuildError

        with pytest.raises(BuildError):
            require_queryable(DeltaBufferedFlood(GridLayout(DIMS, (2, 2))))


class TestWorkloadMonitor:
    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            WorkloadMonitor(window=0)
        with pytest.raises(ValueError):
            WorkloadMonitor(threshold=1.0)

    def test_no_signal_before_min_samples(self):
        monitor = WorkloadMonitor(window=10, threshold=2.0, min_samples=5)
        query = Query({"x": (0, 1)})
        for _ in range(3):
            monitor.record(query, 1.0)
        assert not monitor.should_retrain()

    def test_signals_on_sustained_slowdown(self):
        monitor = WorkloadMonitor(window=10, threshold=2.0, min_samples=5)
        query = Query({"x": (0, 1)})
        for _ in range(10):
            monitor.record(query, 1.0)  # baseline ~1.0
        assert not monitor.should_retrain()
        for _ in range(10):
            monitor.record(query, 5.0)  # recent window all slow
        assert monitor.should_retrain()

    def test_no_signal_for_mild_variation(self):
        monitor = WorkloadMonitor(window=10, threshold=2.0, min_samples=5)
        query = Query({"x": (0, 1)})
        for _ in range(10):
            monitor.record(query, 1.0)
        for _ in range(10):
            monitor.record(query, 1.5)
        assert not monitor.should_retrain()

    def test_reset_clears_baseline(self):
        monitor = WorkloadMonitor(window=5, threshold=2.0, min_samples=2)
        query = Query({"x": (0, 1)})
        for _ in range(5):
            monitor.record(query, 1.0)
        monitor.reset()
        assert monitor.baseline_avg == 0.0
        assert not monitor.should_retrain()

    def test_recent_queries_returned(self):
        monitor = WorkloadMonitor(window=3)
        queries = [Query({"x": (i, i + 1)}) for i in range(5)]
        for query in queries:
            monitor.record(query, 0.001)
        assert monitor.recent_queries() == queries[-3:]


class TestKNN:
    def _index(self, n=800, seed=3):
        table = make_table(n=n, dims=DIMS, seed=seed)
        return FloodIndex(GridLayout(DIMS, (4, 4))).build(table)

    def _brute(self, index, point, k, dims=DIMS):
        table = index.table
        weights = {}
        for d in dims:
            lo, hi = table.min_max(d)
            weights[d] = 1.0 / max(hi - lo + 1, 1)
        matrix = table.column_matrix(list(dims)).astype(np.float64)
        target = np.array([point[d] for d in dims])
        wvec = np.array([weights[d] for d in dims])
        dists = np.sqrt(np.square((matrix - target) * wvec).sum(axis=1))
        order = np.argsort(dists, kind="stable")[:k]
        return [(float(dists[i]), int(i)) for i in order]

    def test_matches_brute_force_distances(self):
        index = self._index()
        rng = np.random.default_rng(4)
        for _ in range(10):
            point = {d: int(rng.integers(0, 1000)) for d in DIMS}
            got = knn(index, point, k=5)
            expected = self._brute(index, point, 5)
            assert np.allclose(
                [d for d, _ in got], [d for d, _ in expected], atol=1e-9
            ), f"point {point}"

    def test_k_one_is_nearest(self):
        index = self._index()
        row = {d: int(index.table.values(d)[42]) for d in DIMS}
        (dist, found), = knn(index, row, k=1)
        assert dist == pytest.approx(0.0)

    def test_k_larger_than_table(self):
        index = self._index(n=20)
        got = knn(index, {d: 500 for d in DIMS}, k=50)
        assert len(got) == 20

    def test_searcher_reuse(self):
        index = self._index()
        searcher = KNNSearcher(index)
        a = searcher.search({d: 10 for d in DIMS}, 3)
        b = searcher.search({d: 990 for d in DIMS}, 3)
        assert len(a) == len(b) == 3
        assert a != b

    def test_missing_dim_raises(self):
        searcher = KNNSearcher(self._index())
        with pytest.raises(QueryError):
            searcher.search({"x": 1}, 2)

    def test_invalid_k(self):
        searcher = KNNSearcher(self._index())
        with pytest.raises(QueryError):
            searcher.search({d: 0 for d in DIMS}, 0)

    def test_subset_dims(self):
        index = self._index()
        got = knn(index, {"x": 500, "y": 500}, k=4, dims=("x", "y"))
        expected = self._brute(index, {"x": 500, "y": 500}, 4, dims=("x", "y"))
        assert np.allclose([d for d, _ in got], [d for d, _ in expected])

    def test_results_sorted_by_distance(self):
        index = self._index()
        got = knn(index, {d: 250 for d in DIMS}, k=8)
        dists = [d for d, _ in got]
        assert dists == sorted(dists)
