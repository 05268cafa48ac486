"""Edge-case tests for the serving micro-batcher.

Covered per the serving layer's contract: an idle (empty-queue) batcher
starts and stops cleanly, a lone query is flushed by the latency
deadline, a full batch dispatches immediately at the size boundary, and
a client cancelling mid-batch neither hangs nor disturbs its batchmates.
No pytest-asyncio in the toolchain, so each test drives its own loop
with ``asyncio.run``.
"""

import asyncio
import time

import numpy as np
import pytest

from repro.core.engine import BatchQueryEngine
from repro.core.index import FloodIndex
from repro.core.layout import GridLayout
from repro.errors import OverloadedError, QueryError
from repro.query.predicate import Query
from repro.serve.batcher import _SHUTDOWN, MicroBatcher
from repro.serve.cache import ResultCache
from repro.storage.visitor import CountVisitor, SumVisitor

from tests.helpers import make_table, random_query

DIMS = ("x", "y", "z")


class _WrappedEngine:
    """Duck-typed engine delegating to a real one; base for test doubles."""

    def __init__(self, engine):
        self.engine = engine
        self.index = engine.index
        self.runs = 0

    def run(self, queries, visitors=None):
        self.runs += 1
        return self.engine.run(queries, visitors=visitors)


class _SlowEngine(_WrappedEngine):
    """Holds every batch in the executor thread for ``delay`` seconds."""

    def __init__(self, engine, delay=0.2):
        super().__init__(engine)
        self.delay = delay

    def run(self, queries, visitors=None):
        self.runs += 1  # counted at entry: tests probe mid-execution
        time.sleep(self.delay)
        return self.engine.run(queries, visitors=visitors)


class _FlakyEngine(_WrappedEngine):
    """Raises on the first ``failures`` batches, then recovers."""

    def __init__(self, engine, failures=1):
        super().__init__(engine)
        self.failures = failures

    def run(self, queries, visitors=None):
        self.runs += 1
        if self.runs <= self.failures:
            raise RuntimeError("engine exploded")
        return self.engine.run(queries, visitors=visitors)


@pytest.fixture(scope="module")
def engine():
    table = make_table(n=2000, dims=DIMS, seed=1)
    index = FloodIndex(GridLayout(DIMS, (5, 4))).build(table)
    return BatchQueryEngine(index)


def _queries(engine, n, seed=2):
    rng = np.random.default_rng(seed)
    return [random_query(engine.index.table, rng) for _ in range(n)]


def _expected_count(engine, query) -> int:
    visitor = CountVisitor()
    engine.index.query_percell(query, visitor)
    return visitor.result


class TestLifecycle:
    def test_empty_queue_start_stop(self, engine):
        """An idle batcher (no requests ever) stops cleanly, not hanging."""

        async def scenario():
            batcher = MicroBatcher(engine, max_batch=4, max_delay=0.001)
            await batcher.start()
            assert batcher.running
            await asyncio.sleep(0.01)  # collector idles on an empty queue
            await asyncio.wait_for(batcher.stop(), timeout=2)
            assert not batcher.running
            assert batcher.stats.batches_dispatched == 0

        asyncio.run(scenario())

    def test_start_is_idempotent(self, engine):
        async def scenario():
            batcher = MicroBatcher(engine)
            await batcher.start()
            task = batcher._task
            await batcher.start()
            assert batcher._task is task
            await batcher.stop()
            await batcher.stop()  # stop is too

        asyncio.run(scenario())

    def test_submit_before_start_raises(self, engine):
        async def scenario():
            batcher = MicroBatcher(engine)
            with pytest.raises(QueryError):
                await batcher.submit(Query({"x": (0, 10)}))

        asyncio.run(scenario())

    def test_invalid_bounds_rejected(self, engine):
        with pytest.raises(QueryError):
            MicroBatcher(engine, max_batch=0)
        with pytest.raises(QueryError):
            MicroBatcher(engine, max_delay=-1)


class TestBatching:
    def test_single_query_flushed_by_deadline(self, engine):
        """A lone request doesn't wait for company forever."""

        async def scenario():
            batcher = MicroBatcher(engine, max_batch=64, max_delay=0.01)
            await batcher.start()
            query = _queries(engine, 1)[0]
            result, stats = await asyncio.wait_for(
                batcher.submit(query), timeout=5
            )
            await batcher.stop()
            assert result == _expected_count(engine, query)
            assert stats.points_matched == result
            assert batcher.stats.batches_dispatched == 1
            assert batcher.stats.largest_batch == 1

        asyncio.run(scenario())

    def test_batch_size_boundary_dispatches_immediately(self, engine):
        """Exactly max_batch concurrent requests form one full batch."""

        async def scenario():
            # Generous delay: if the size bound didn't trigger, the test
            # would still pass but dispatch would take ~1s and show up as
            # multiple batches; the assertions below pin one full batch.
            batcher = MicroBatcher(engine, max_batch=6, max_delay=1.0)
            await batcher.start()
            queries = _queries(engine, 6, seed=3)
            results = await asyncio.wait_for(
                asyncio.gather(*[batcher.submit(q) for q in queries]), timeout=5
            )
            await batcher.stop()
            assert [r for r, _ in results] == [
                _expected_count(engine, q) for q in queries
            ]
            assert batcher.stats.batches_dispatched == 1
            assert batcher.stats.largest_batch == 6

        asyncio.run(scenario())

    def test_overflow_splits_into_bounded_batches(self, engine):
        async def scenario():
            batcher = MicroBatcher(engine, max_batch=4, max_delay=0.05)
            await batcher.start()
            queries = _queries(engine, 10, seed=4)
            results = await asyncio.gather(
                *[batcher.submit(q) for q in queries]
            )
            await batcher.stop()
            assert [r for r, _ in results] == [
                _expected_count(engine, q) for q in queries
            ]
            assert batcher.stats.queries_served == 10
            assert batcher.stats.largest_batch <= 4
            assert batcher.stats.batches_dispatched >= 3

        asyncio.run(scenario())

    def test_latency_deadline_flushes_partial_batch(self, engine):
        """Requests stop accumulating once the first has waited max_delay."""

        async def scenario():
            batcher = MicroBatcher(engine, max_batch=1000, max_delay=0.02)
            await batcher.start()
            queries = _queries(engine, 3, seed=5)
            started = asyncio.get_running_loop().time()
            results = await asyncio.wait_for(
                asyncio.gather(*[batcher.submit(q) for q in queries]), timeout=5
            )
            elapsed = asyncio.get_running_loop().time() - started
            await batcher.stop()
            assert [r for r, _ in results] == [
                _expected_count(engine, q) for q in queries
            ]
            # Far below the size bound, so only the deadline can have
            # flushed; allow generous slack for slow CI.
            assert elapsed < 2.0
            assert batcher.stats.batches_dispatched >= 1

        asyncio.run(scenario())

    def test_mixed_aggregates_in_one_batch(self, engine):
        async def scenario():
            batcher = MicroBatcher(engine, max_batch=8, max_delay=0.05)
            await batcher.start()
            query = _queries(engine, 1, seed=6)[0]
            (count, _), (total, _) = await asyncio.gather(
                batcher.submit(query, CountVisitor),
                batcher.submit(query, lambda: SumVisitor("y")),
            )
            await batcher.stop()
            expected_sum = SumVisitor("y")
            engine.index.query_percell(query, expected_sum)
            assert count == _expected_count(engine, query)
            assert total == expected_sum.result

        asyncio.run(scenario())


class TestFactoryFailure:
    def test_raising_factory_fails_only_its_request(self, engine):
        """Regression: a broken visitor factory must not kill the collector
        (which would hang every later submit) nor fail its batchmates."""

        def broken_factory():
            raise RuntimeError("bad factory")

        async def scenario():
            batcher = MicroBatcher(engine, max_batch=8, max_delay=0.05)
            await batcher.start()
            good_query, later_query = _queries(engine, 2, seed=10)
            good, bad = await asyncio.gather(
                batcher.submit(good_query),
                batcher.submit(good_query, broken_factory),
                return_exceptions=True,
            )
            assert isinstance(bad, RuntimeError)
            result, _ = good
            assert result == _expected_count(engine, good_query)
            # The collector must still be alive for new work.
            result, _ = await asyncio.wait_for(
                batcher.submit(later_query), timeout=5
            )
            assert result == _expected_count(engine, later_query)
            await batcher.stop()

        asyncio.run(scenario())


class TestOutOfRangeBounds:
    def test_bound_beyond_float_range_leaves_batchmates_answered(self, engine):
        """Regression: a grid-dim bound past the float range (a JSON
        integer such as 10**400) raised OverflowError while projecting,
        failing every request of its micro-batch."""

        async def scenario():
            batcher = MicroBatcher(engine, max_batch=4, max_delay=1.0)
            await batcher.start()
            queries = _queries(engine, 3, seed=12) + [Query({"x": (0, 10**400)})]
            results = await asyncio.wait_for(
                asyncio.gather(*[batcher.submit(q) for q in queries]), timeout=5
            )
            await batcher.stop()
            assert [r for r, _ in results[:3]] == [
                _expected_count(engine, q) for q in queries[:3]
            ]
            assert results[3][0] == int(queries[3].match_mask(engine.index.table).sum())
            assert batcher.stats.batches_dispatched == 1

        asyncio.run(scenario())


class TestCancellation:
    def test_client_cancellation_mid_batch(self, engine):
        """A cancelled request disappears; its batchmates are unaffected."""

        async def scenario():
            batcher = MicroBatcher(engine, max_batch=8, max_delay=0.05)
            await batcher.start()
            queries = _queries(engine, 4, seed=7)
            tasks = [
                asyncio.get_running_loop().create_task(batcher.submit(q))
                for q in queries
            ]
            # Schedule-robust enqueue wait (a bare sleep(0) is not enough
            # under ChaosEventLoop, which may run the cancel before the
            # submit coroutines ever stepped).
            while batcher.in_flight < len(queries):
                await asyncio.sleep(0)
            tasks[1].cancel()
            results = await asyncio.wait_for(
                asyncio.gather(*tasks, return_exceptions=True), timeout=5
            )
            await batcher.stop()
            assert isinstance(results[1], asyncio.CancelledError)
            for i in (0, 2, 3):
                result, _ = results[i]
                assert result == _expected_count(engine, queries[i])
            assert batcher.stats.queries_cancelled >= 1
            assert batcher.stats.queries_served == 3

        asyncio.run(scenario())

    def test_all_cancelled_batch_dispatches_nothing(self, engine):
        async def scenario():
            batcher = MicroBatcher(engine, max_batch=8, max_delay=0.05)
            await batcher.start()
            queries = _queries(engine, 3, seed=8)
            tasks = [
                asyncio.get_running_loop().create_task(batcher.submit(q))
                for q in queries
            ]
            while batcher.in_flight < len(queries):
                await asyncio.sleep(0)
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            await asyncio.sleep(0.1)  # collector hits the deadline
            await batcher.stop()
            assert batcher.stats.batches_dispatched == 0
            assert batcher.stats.queries_served == 0

        asyncio.run(scenario())

    def test_queued_requests_fail_cleanly_after_stop(self, engine):
        """Requests enqueued but never collected get an error, not a hang."""

        async def scenario():
            batcher = MicroBatcher(engine, max_batch=4, max_delay=0.01)
            await batcher.start()
            query = _queries(engine, 1, seed=9)[0]
            result, _ = await batcher.submit(query)
            await batcher.stop()
            with pytest.raises(QueryError):
                await batcher.submit(query)
            assert result == _expected_count(engine, query)

        asyncio.run(scenario())

    def test_cancelled_while_batch_runs_counted_exactly_once(self, engine):
        """Regression: a request cancelled *during* engine execution is
        tallied as cancelled once — not double-counted against the
        pre-dispatch cancellation path, and never as served."""

        async def scenario():
            slow = _SlowEngine(engine, delay=0.15)
            batcher = MicroBatcher(slow, max_batch=2, max_delay=1.0)
            await batcher.start()
            queries = _queries(engine, 2, seed=11)
            tasks = [
                asyncio.get_running_loop().create_task(batcher.submit(q))
                for q in queries
            ]
            await asyncio.sleep(0.05)  # size bound hit: the batch is running
            assert slow.runs == 1
            tasks[0].cancel()
            results = await asyncio.wait_for(
                asyncio.gather(*tasks, return_exceptions=True), timeout=5
            )
            await batcher.stop()
            assert isinstance(results[0], asyncio.CancelledError)
            result, _ = results[1]
            assert result == _expected_count(engine, queries[1])
            assert batcher.stats.queries_cancelled == 1
            assert batcher.stats.queries_served == 1
            assert batcher.stats.batched_queries_total == 2

        asyncio.run(scenario())


class TestDrainPaths:
    def test_request_enqueued_behind_shutdown_sentinel_fails_not_leaks(self, engine):
        """Regression: a submit racing stop() must always *resolve* — a
        leaked future would hang the client forever. Depending on which
        side wins the race (scheduling order varies under
        ChaosEventLoop), the request is either served, failed by stop()'s
        drain, or rejected because stop() already claimed the batcher;
        every outcome is legal, hanging is not. The losing interleaving
        is pinned deterministically in the next test."""

        async def scenario():
            batcher = MicroBatcher(engine, max_batch=4, max_delay=0.01)
            await batcher.start()
            query = _queries(engine, 1, seed=12)[0]
            loop = asyncio.get_running_loop()
            stop_task = loop.create_task(batcher.stop())
            await asyncio.sleep(0)  # sentinel enqueued; collector not yet done
            late = loop.create_task(batcher.submit(query))
            await asyncio.sleep(0)  # late request lands behind the sentinel
            await asyncio.wait_for(stop_task, timeout=5)
            try:
                result, _ = await asyncio.wait_for(late, timeout=5)
            except QueryError:
                pass  # failed fast — the drain (or the claim guard) won
            else:
                assert result == _expected_count(engine, query)
            assert not batcher.running

        asyncio.run(scenario())

    def test_sentinel_directly_followed_by_request_is_drained(self, engine):
        """The same leak pinned deterministically: plant a request behind
        the sentinel in the queue itself, then stop."""

        async def scenario():
            batcher = MicroBatcher(engine, max_batch=4, max_delay=0.01)
            await batcher.start()
            query = _queries(engine, 1, seed=13)[0]
            loop = asyncio.get_running_loop()
            # Freeze the collector's view by enqueueing sentinel + request
            # back-to-back before it wakes.
            await batcher._queue.put(_SHUTDOWN)
            late = loop.create_task(batcher.submit(query))
            await asyncio.sleep(0)
            await asyncio.wait_for(batcher.stop(), timeout=5)
            with pytest.raises(QueryError):
                await asyncio.wait_for(late, timeout=5)
            assert batcher.in_flight == 0

        asyncio.run(scenario())


class TestAdmissionControl:
    def test_invalid_depth_rejected(self, engine):
        with pytest.raises(QueryError):
            MicroBatcher(engine, max_queue_depth=-1)

    def test_saturated_submit_rejects_immediately(self, engine):
        async def scenario():
            slow = _SlowEngine(engine, delay=0.3)
            batcher = MicroBatcher(
                slow, max_batch=1, max_delay=0.0, max_queue_depth=2
            )
            await batcher.start()
            queries = _queries(engine, 3, seed=14)
            loop = asyncio.get_running_loop()
            admitted = [
                loop.create_task(batcher.submit(q)) for q in queries[:2]
            ]
            while batcher.in_flight < 2:  # schedule-robust admission wait
                await asyncio.sleep(0)
            started = loop.time()
            with pytest.raises(OverloadedError):
                await batcher.submit(queries[2])
            # Shed-load means *immediate*: no queue wait, no engine wait.
            assert loop.time() - started < 0.2
            assert batcher.stats.queries_rejected == 1
            results = await asyncio.wait_for(asyncio.gather(*admitted), timeout=10)
            for query, (result, _) in zip(queries[:2], results):
                assert result == _expected_count(engine, query)
            # Slots freed: the same query is admitted now.
            assert batcher.in_flight == 0
            result, _ = await asyncio.wait_for(
                batcher.submit(queries[2]), timeout=10
            )
            assert result == _expected_count(engine, queries[2])
            await batcher.stop()

        asyncio.run(scenario())

    def test_zero_depth_is_unbounded(self, engine):
        async def scenario():
            batcher = MicroBatcher(engine, max_batch=4, max_delay=0.01)
            await batcher.start()
            queries = _queries(engine, 20, seed=15)
            results = await asyncio.gather(*[batcher.submit(q) for q in queries])
            await batcher.stop()
            assert batcher.stats.queries_rejected == 0
            assert [r for r, _ in results] == [
                _expected_count(engine, q) for q in queries
            ]

        asyncio.run(scenario())


class TestFailureCounters:
    def test_engine_failure_counted_and_batcher_survives(self, engine):
        """Regression: an engine exception used to increment nothing — the
        stats op showed a healthy server while every query errored."""

        async def scenario():
            flaky = _FlakyEngine(engine, failures=1)
            batcher = MicroBatcher(flaky, max_batch=3, max_delay=0.02)
            await batcher.start()
            queries = _queries(engine, 3, seed=16)
            results = await asyncio.wait_for(
                asyncio.gather(
                    *[batcher.submit(q) for q in queries], return_exceptions=True
                ),
                timeout=5,
            )
            assert all(isinstance(r, RuntimeError) for r in results)
            assert batcher.stats.batches_failed == 1
            assert batcher.stats.queries_failed == 3
            assert batcher.stats.queries_served == 0
            assert batcher.stats.batches_dispatched == 0
            # The collector survived; the engine recovered; counters now move.
            result, _ = await asyncio.wait_for(
                batcher.submit(queries[0]), timeout=5
            )
            assert result == _expected_count(engine, queries[0])
            assert batcher.stats.queries_served == 1
            await batcher.stop()

        asyncio.run(scenario())

    def test_raising_factory_counts_as_failed(self, engine):
        async def scenario():
            batcher = MicroBatcher(engine, max_batch=4, max_delay=0.02)
            await batcher.start()
            query = _queries(engine, 1, seed=17)[0]
            with pytest.raises(RuntimeError):
                await batcher.submit(
                    query, lambda: (_ for _ in ()).throw(RuntimeError("boom"))
                )
            assert batcher.stats.queries_failed == 1
            assert batcher.stats.batches_failed == 0  # batchmates unaffected
            await batcher.stop()

        asyncio.run(scenario())


class TestResultCacheIntegration:
    def test_repeat_submit_served_from_cache(self, engine):
        async def scenario():
            counting = _WrappedEngine(engine)
            cache = ResultCache(8)
            batcher = MicroBatcher(counting, max_batch=4, max_delay=0.0, cache=cache)
            await batcher.start()
            query = _queries(engine, 1, seed=18)[0]
            key = ResultCache.make_key(query, generation=0)
            first, first_stats = await batcher.submit(query, CountVisitor, key)
            runs_after_first = counting.runs
            second, second_stats = await batcher.submit(query, CountVisitor, key)
            await batcher.stop()
            assert first == second == _expected_count(engine, query)
            assert counting.runs == runs_after_first  # hit: engine untouched
            assert cache.stats.hits == 1 and cache.stats.misses == 1
            # Per-query stats semantics: same counters, distinct objects.
            assert second_stats is not first_stats
            assert second_stats.points_matched == first_stats.points_matched
            assert second_stats.points_scanned == first_stats.points_scanned

        asyncio.run(scenario())

    def test_cached_stats_are_isolated_copies(self, engine):
        """Mutating the stats a hit returned must not corrupt the cache."""

        async def scenario():
            cache = ResultCache(8)
            batcher = MicroBatcher(engine, max_batch=4, max_delay=0.0, cache=cache)
            await batcher.start()
            query = _queries(engine, 1, seed=19)[0]
            key = ResultCache.make_key(query, generation=0)
            _, miss_stats = await batcher.submit(query, CountVisitor, key)
            miss_stats.points_matched = -999  # hostile caller
            _, hit_stats = await batcher.submit(query, CountVisitor, key)
            hit_stats.points_scanned = -999
            _, hit2_stats = await batcher.submit(query, CountVisitor, key)
            await batcher.stop()
            assert hit_stats.points_matched != -999
            assert hit2_stats.points_scanned != -999
            assert hit2_stats.points_matched == hit_stats.points_matched

        asyncio.run(scenario())

    def test_submit_without_key_bypasses_cache(self, engine):
        async def scenario():
            counting = _WrappedEngine(engine)
            cache = ResultCache(8)
            batcher = MicroBatcher(counting, max_batch=4, max_delay=0.0, cache=cache)
            await batcher.start()
            query = _queries(engine, 1, seed=20)[0]
            await batcher.submit(query)
            await batcher.submit(query)
            await batcher.stop()
            assert counting.runs == 2
            assert len(cache) == 0
            assert cache.stats.lookups == 0

        asyncio.run(scenario())

    def test_distinct_aggregates_do_not_collide(self, engine):
        async def scenario():
            cache = ResultCache(8)
            batcher = MicroBatcher(engine, max_batch=4, max_delay=0.0, cache=cache)
            await batcher.start()
            query = _queries(engine, 1, seed=21)[0]
            count, _ = await batcher.submit(
                query, CountVisitor, ResultCache.make_key(query, generation=0)
            )
            total, _ = await batcher.submit(
                query,
                lambda: SumVisitor("y"),
                ResultCache.make_key(query, "sum", "y", generation=0),
            )
            await batcher.stop()
            expected = SumVisitor("y")
            engine.index.query_percell(query, expected)
            assert total == expected.result
            assert count == _expected_count(engine, query)
            assert cache.stats.misses == 2 and len(cache) == 2

        asyncio.run(scenario())
