"""Mutable serving end-to-end: wire inserts, write serialization,
non-blocking merges, generation-keyed cache freshness, adaptation.

The acceptance scenarios for serving a ``DeltaBufferedFlood`` over TCP:

- an acked ``insert`` is visible to the *next* query on any connection,
  with no stale cache hit (generation-keyed invalidation over real TCP);
- pipelined concurrent inserts + queries — including automatic off-loop
  merges mid-stream — always end at results identical to a
  rebuilt-from-scratch oracle;
- a server mid-merge still answers ``ping`` / ``stats`` inline and keeps
  serving queries from the old index + buffer;
- the batcher's write barrier never lets a mutation interleave with an
  executing engine batch.
"""

import asyncio
import time

import numpy as np
import pytest

from repro.core.cost import AnalyticCostModel
from repro.core.delta import DeltaBufferedFlood
from repro.core.engine import BatchQueryEngine
from repro.core.index import FloodIndex
from repro.core.layout import GridLayout
from repro.core.monitor import WorkloadMonitor
from repro.errors import QueryError
from repro.serve.batcher import MicroBatcher
from repro.serve.client import AsyncFloodClient, FloodClient, ServerError
from repro.serve.server import FloodServer
from repro.storage.table import Table

DIMS = ("x", "y", "z")


def _make_data(n, seed):
    rng = np.random.default_rng(seed)
    return {dim: rng.integers(0, 1000, n) for dim in DIMS}


def _build_delta(data):
    return DeltaBufferedFlood(
        GridLayout(DIMS, (4, 3)), merge_threshold=None
    ).build(Table(data))


def _run_with_server(delta, scenario, **server_kwargs):
    async def main():
        server = FloodServer(BatchQueryEngine(delta), **server_kwargs)
        host, port = await server.start()
        try:
            return await asyncio.wait_for(scenario(server, host, port), timeout=60)
        finally:
            await server.stop()

    return asyncio.run(main())


def _in_thread(fn):
    return asyncio.get_running_loop().run_in_executor(None, fn)


def _oracle_count(data, extra_rows, query_ranges) -> int:
    """Rebuilt-from-scratch reference: initial columns + inserted rows."""
    columns = {
        dim: np.concatenate(
            [np.asarray(data[dim]), np.array([r[dim] for r in extra_rows])]
        )
        if extra_rows
        else np.asarray(data[dim])
        for dim in DIMS
    }
    mask = np.ones(len(columns["x"]), dtype=bool)
    for dim, (low, high) in query_ranges.items():
        mask &= (columns[dim] >= low) & (columns[dim] <= high)
    return int(mask.sum())


class TestWireInserts:
    def test_insert_visible_across_connections_no_stale_cache(self):
        data = _make_data(2000, seed=20)
        delta = _build_delta(data)
        ranges = {"x": [0, 1000]}

        async def scenario(server, host, port):
            writer = await AsyncFloodClient().connect(host, port)
            reader = await AsyncFloodClient().connect(host, port)
            before, _ = await reader.query(ranges)
            again, _ = await reader.query(ranges)  # now cached
            ack = await writer.insert({"x": 1, "y": 2, "z": 3})
            after_same, _ = await writer.query(ranges)
            after_other, _ = await reader.query(ranges)
            stats = await _in_thread(lambda: _stats_once(host, port))
            await writer.close()
            await reader.close()
            return before, again, ack, after_same, after_other, stats

        before, again, ack, after_same, after_other, stats = _run_with_server(
            delta, scenario, cache_entries=32
        )
        assert before == again == 2000
        assert ack["ok"] and ack["inserted"] == 1 and ack["buffered_rows"] == 1
        assert ack["generation"] == 1
        # The acked insert is visible immediately, on both connections —
        # a stale cache hit would return 2000 again.
        assert after_same == 2001
        assert after_other == 2001
        assert stats["cache"]["hits"] >= 1  # the pre-insert repeat did hit
        assert stats["mutable"]["buffered_rows"] == 1

    def test_insert_many_and_explicit_merge(self):
        data = _make_data(1500, seed=21)
        delta = _build_delta(data)

        def client_part(host, port):
            with FloodClient(host, port) as client:
                ack = client.insert_many(
                    {"x": [1, 2, 3], "y": [4, 5, 6], "z": [7, 8, 9]}
                )
                merged = client.merge()
                count, _ = client.query({"x": (0, 1000)})
            return ack, merged, count

        async def scenario(server, host, port):
            return await _in_thread(lambda: client_part(host, port))

        ack, merged, count = _run_with_server(delta, scenario)
        assert ack["inserted"] == 3 and ack["buffered_rows"] == 3
        assert merged["merges"] == 1 and merged["buffered_rows"] == 0
        assert merged["last_merge_seconds"] > 0
        assert count == 1503
        assert delta.table.num_rows == 1503

    def test_read_only_server_rejects_writes(self):
        data = _make_data(800, seed=22)
        flood = FloodIndex(GridLayout(DIMS, (3, 3))).build(Table(data))

        async def scenario(server, host, port):
            def client_part():
                with FloodClient(host, port) as client:
                    errors = []
                    for op in (
                        lambda: client.insert({"x": 1, "y": 2, "z": 3}),
                        lambda: client.insert_many({"x": [1], "y": [2], "z": [3]}),
                        lambda: client.merge(),
                    ):
                        try:
                            op()
                        except ServerError as exc:
                            errors.append(str(exc))
                    count, _ = client.query({"x": [0, 1000]})  # still alive
                return errors, count

            return await _in_thread(client_part)

        async def main():
            server = FloodServer(BatchQueryEngine(flood))
            host, port = await server.start()
            try:
                return await scenario(server, host, port)
            finally:
                await server.stop()

        errors, count = asyncio.run(main())
        assert len(errors) == 3
        assert all("mutable" in message for message in errors)
        assert count == 800

    def test_malformed_insert_gets_error_reply(self):
        data = _make_data(500, seed=23)
        delta = _build_delta(data)

        def client_part(host, port):
            with FloodClient(host, port) as client:
                errors = []
                for payload in (
                    {"op": "insert"},  # no row
                    {"op": "insert", "row": {}},  # empty row
                    {"op": "insert", "row": {"x": 1}},  # missing dims
                    {"op": "insert_many", "rows": {"x": [1], "y": [2, 3], "z": [4]}},
                ):
                    try:
                        client._roundtrip({"id": 1, **payload})
                    except ServerError as exc:
                        errors.append(str(exc))
                count, _ = client.query({"x": (0, 1000)})
            return errors, count

        async def scenario(server, host, port):
            return await _in_thread(lambda: client_part(host, port))

        errors, count = _run_with_server(delta, scenario)
        assert len(errors) == 4
        assert count == 500  # nothing was inserted, connection survived

    def test_merge_threshold_zero_never_automerges(self):
        data = _make_data(600, seed=24)
        delta = _build_delta(data)

        async def scenario(server, host, port):
            client = await AsyncFloodClient().connect(host, port)
            for i in range(30):
                await client.insert({"x": i, "y": i, "z": i})
            stats = await _in_thread(lambda: _stats_once(host, port))
            await client.close()
            return stats

        stats = _run_with_server(delta, scenario, merge_threshold=0)
        mutable = stats["mutable"]
        assert mutable["buffered_rows"] == 30
        assert mutable["merges"] == 0
        assert mutable["merge_threshold"] == 0
        assert mutable["last_merge_seconds"] == 0.0
        assert mutable["retrains"] == 0
        assert stats["writes_applied"] == 30


class TestConcurrentMutateQuery:
    """The acceptance criterion: pipelined inserts from one client while
    another queries, across an automatic off-loop merge, end-to-end equal
    to a rebuilt-from-scratch oracle."""

    def test_concurrent_inserts_and_queries_match_oracle(self):
        data = _make_data(3000, seed=30)
        delta = _build_delta(data)
        rng = np.random.default_rng(31)
        rows = [
            {dim: int(rng.integers(0, 1000)) for dim in DIMS} for _ in range(45)
        ]
        probes = [
            {"x": [0, 1000]},
            {"x": [100, 700], "y": [0, 500]},
            {"y": [200, 900], "z": [100, 800]},
        ]

        async def scenario(server, host, port):
            writer = await AsyncFloodClient().connect(host, port)
            reader = await AsyncFloodClient().connect(host, port)
            mid_flight_ok = True

            async def insert_all():
                for row in rows:
                    ack = await writer.insert(row)
                    assert ack["ok"]
                    await asyncio.sleep(0)

            async def query_loop():
                nonlocal mid_flight_ok
                # Mid-flight sanity: counts are monotone in inserted rows
                # for the full-range probe (never below the initial count,
                # never above initial + total inserts).
                for _ in range(30):
                    count, _ = await reader.query(probes[0])
                    if not 3000 <= count <= 3000 + len(rows):
                        mid_flight_ok = False
                    await asyncio.sleep(0.002)

            await asyncio.gather(insert_all(), query_loop())
            # Quiesce: wait out any in-flight merge, then compare every
            # probe against the from-scratch oracle.
            await server.mutable.drain()
            final = [tuple((await reader.query(p))) for p in probes]
            stats = await _in_thread(lambda: _stats_once(host, port))
            await writer.close()
            await reader.close()
            return mid_flight_ok, [count for count, _ in final], stats

        mid_flight_ok, final, stats = _run_with_server(
            delta, scenario, cache_entries=64, merge_threshold=20
        )
        assert mid_flight_ok
        for probe, got in zip(probes, final):
            ranges = {dim: tuple(bounds) for dim, bounds in probe.items()}
            assert got == _oracle_count(data, rows, ranges), probe
        assert stats["mutable"]["merges"] >= 1  # auto-merge really ran
        assert stats["mutable"]["maintenance_failures"] == 0
        # Everything merged or still buffered, nothing lost.
        assert (
            delta.table.num_rows + delta.buffered_rows == 3000 + len(rows)
        )

    def test_post_commit_failure_counted_once_swap_stays_visible(self):
        """A maintenance job that fails *after* its swap committed counts
        one failure, and the committed index keeps serving the merged
        rows."""
        data = _make_data(2000, seed=33)
        delta = _build_delta(data)

        async def scenario(server, host, port):
            client = await AsyncFloodClient().connect(host, port)
            for i in range(10):
                await client.insert({"x": i, "y": i, "z": i})
            batcher = server.mutable.batcher
            real_submit_write = batcher.submit_write

            async def poisoned(fn):
                # The commit itself lands; the failure hits the
                # maintenance task on its way out.
                await real_submit_write(fn)
                raise RuntimeError("post-commit failure")

            batcher.submit_write = poisoned
            try:
                await client.merge()
                await server.mutable.drain()
            finally:
                batcher.submit_write = real_submit_write
            count, _ = await client.query({"x": [0, 1000]})
            failures = server.mutable.maintenance_failures
            await client.close()
            return failures, count

        failures, count = _run_with_server(delta, scenario, merge_threshold=0)
        assert failures == 1
        assert count == 2010  # the swap committed before the failure
        assert delta.merges == 1 and delta.buffered_rows == 0


class TestMidMergeResponsiveness:
    def test_ping_stats_and_queries_inline_while_merging(self, monkeypatch):
        data = _make_data(2000, seed=40)
        delta = _build_delta(data)
        real_prepare = delta.prepare_merge

        def slow_prepare():
            time.sleep(0.6)
            return real_prepare()

        monkeypatch.setattr(delta, "prepare_merge", slow_prepare)

        async def scenario(server, host, port):
            client = await AsyncFloodClient().connect(host, port)
            for i in range(10):
                await client.insert({"x": i, "y": i, "z": i})
            merge_task = asyncio.get_running_loop().create_task(client.merge())
            await asyncio.sleep(0.1)
            assert server.mutable.merge_running
            # Liveness while the merge builds off-loop: ping, stats, and a
            # real query must all answer well before the merge finishes.
            started = asyncio.get_running_loop().time()
            pong = await asyncio.wait_for(
                _in_thread(lambda: _ping_once(host, port)), timeout=5
            )
            stats = await asyncio.wait_for(
                _in_thread(lambda: _stats_once(host, port)), timeout=5
            )
            count, _ = await asyncio.wait_for(client.query({"x": [0, 1000]}), 5)
            inline_seconds = asyncio.get_running_loop().time() - started
            merged = await merge_task
            await client.close()
            return pong, stats, count, inline_seconds, merged

        pong, stats, count, inline_seconds, merged = _run_with_server(
            delta, scenario
        )
        assert pong is True
        assert stats["mutable"]["merge_running"] is True
        assert count == 2010  # old index + buffer kept serving
        assert inline_seconds < 0.5  # never waited for the 0.6s prepare
        assert merged["merges"] == 1 and merged["buffered_rows"] == 0


class TestWriteBarrier:
    """Batcher-level: a mutation never interleaves with a running batch."""

    class _TracingEngine:
        def __init__(self, engine, delay=0.05):
            self.engine = engine
            self.index = engine.index
            self.delay = delay
            self.active = 0
            self.overlaps = 0

        def run(self, queries, visitors=None):
            self.active += 1
            time.sleep(self.delay)
            result = self.engine.run(queries, visitors=visitors)
            self.active -= 1
            return result

    def test_write_waits_for_inflight_batches(self):
        data = _make_data(1000, seed=50)
        delta = _build_delta(data)
        engine = self._TracingEngine(BatchQueryEngine(delta))

        async def main():
            from repro.query.predicate import Query

            batcher = MicroBatcher(engine, max_batch=4, max_delay=0.0)
            await batcher.start()
            queries = [
                asyncio.ensure_future(batcher.submit(Query({"x": (0, 900)})))
                for _ in range(6)
            ]
            await asyncio.sleep(0.01)  # batches now executing in a thread

            def write():
                if engine.active:
                    engine.overlaps += 1
                delta.insert({"x": 1, "y": 2, "z": 3})
                return delta.buffered_rows

            buffered = await batcher.submit_write(write)
            results = await asyncio.gather(*queries)
            await batcher.stop()
            return buffered, results

        buffered, results = asyncio.run(main())
        assert buffered == 1
        assert engine.overlaps == 0  # the barrier held
        assert all(count == r for count, _ in results for r in [results[0][0]])

    def test_submit_write_before_start_raises(self):
        data = _make_data(300, seed=51)
        delta = _build_delta(data)
        batcher = MicroBatcher(BatchQueryEngine(delta))

        async def main():
            with pytest.raises(QueryError):
                await batcher.submit_write(lambda: None)

        asyncio.run(main())

    def test_failing_write_fails_alone(self):
        data = _make_data(300, seed=52)
        delta = _build_delta(data)

        async def main():
            from repro.query.predicate import Query

            batcher = MicroBatcher(BatchQueryEngine(delta))
            await batcher.start()
            with pytest.raises(RuntimeError):
                await batcher.submit_write(lambda: (_ for _ in ()).throw(
                    RuntimeError("boom")
                ))
            # The collector survived: queries still serve.
            count, _ = await batcher.submit(Query({"x": (0, 1000)}))
            await batcher.stop()
            return count

        assert asyncio.run(main()) == 300


class TestAdaptiveServing:
    def test_workload_shift_triggers_offloop_relayout(self):
        rng = np.random.default_rng(60)
        n = 15000
        data = {dim: rng.integers(0, 1000, n) for dim in DIMS}
        delta = DeltaBufferedFlood(
            # Deliberately x-heavy initial layout so a y workload is
            # measurably slow (it scans half the table) until the monitor
            # reacts.
            GridLayout(("x", "y", "z"), (16, 2)),
            merge_threshold=None,
        ).build(Table(data))
        monitor = WorkloadMonitor(window=20, threshold=1.3, min_samples=8)

        async def scenario(server, host, port):
            client = await AsyncFloodClient().connect(host, port)
            # Warm-up queries pay one-off costs; keep them out of the
            # monitor's baseline.
            for i in range(5):
                await client.query({"x": [i, i + 4]})
            monitor.reset()
            # Baseline: x-selective and cheap, filling the monitor's whole
            # 20-query baseline window.
            for i in range(20):
                await client.query({"x": [i, i + 4]})
            checks = []
            for _ in range(60):  # shifted: y-heavy
                lo = int(rng.integers(0, 900))
                count, _ = await client.query({"y": [lo, lo + 30]})
                checks.append(
                    (count, _oracle_count(data, [], {"y": (lo, lo + 30)}))
                )
            await server.mutable.drain()
            post, _ = await client.query({"y": [0, 100]})
            stats = await _in_thread(lambda: _stats_once(host, port))
            await client.close()
            return checks, post, stats

        checks, post, stats = _run_with_server(
            delta,
            scenario,
            adaptive=monitor,
            cost_model=AnalyticCostModel(),
            seed=4,
        )
        for got, expected in checks:
            assert got == expected  # identity across the live swap
        assert stats["mutable"]["retrains"] >= 1
        assert stats["mutable"]["adaptive"] is True
        assert stats["mutable"]["maintenance_failures"] == 0
        assert post == _oracle_count(data, [], {"y": (0, 100)})


def _ping_once(host, port) -> bool:
    with FloodClient(host, port) as client:
        return client.ping()


def _stats_once(host, port) -> dict:
    with FloodClient(host, port) as client:
        return client.server_stats()
