"""Tests for the TCP serving front-end and its clients.

Includes the acceptance checks: served results identical to the seed's
per-cell loop, and the ``repro serve`` CLI smoke test (start the server
as a subprocess, issue 3 queries, clean shutdown).
"""

import asyncio
import json
import os
import re
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.engine import BatchQueryEngine
from repro.core.index import FloodIndex
from repro.core.layout import GridLayout
from repro.core.shard import ShardedFloodIndex
from repro.errors import QueryError
from repro.serve.client import (
    AsyncFloodClient,
    FloodClient,
    RetryableError,
    ServerError,
)
from repro.query.predicate import Query
from repro.serve.server import FloodServer, _encode, visitor_factory_for
from repro.storage.visitor import CountVisitor, SumVisitor

from tests.helpers import make_table, random_query

DIMS = ("x", "y", "z")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
#: Hard ceiling for the `repro serve` subprocess smoke test: a hung server
#: must fail the test, not stall the CI job until the runner-level kill.
SMOKE_TIMEOUT = 120


@pytest.fixture(scope="module")
def index():
    table = make_table(n=2500, dims=DIMS, seed=1)
    return FloodIndex(GridLayout(DIMS, (5, 4))).build(table)


class _SlowEngine:
    """Duck-typed engine holding every batch for ``delay`` seconds, so
    tests can saturate admission control deterministically."""

    def __init__(self, engine, delay=0.3):
        self.engine = engine
        self.index = engine.index
        self.delay = delay

    def run(self, queries, visitors=None):
        time.sleep(self.delay)
        return self.engine.run(queries, visitors=visitors)


def _run_with_server(index, scenario, engine=None, **server_kwargs):
    """Start a server, run ``await scenario(server, host, port)``, stop it.

    ``engine`` overrides the default ``BatchQueryEngine(index)`` (tests
    wrap it to slow dispatch down).
    """

    async def main():
        server = FloodServer(engine or BatchQueryEngine(index), **server_kwargs)
        host, port = await server.start()
        try:
            return await asyncio.wait_for(scenario(server, host, port), timeout=30)
        finally:
            await server.stop()

    return asyncio.run(main())


def _in_thread(fn):
    """Run blocking client code off the event-loop thread."""
    return asyncio.get_running_loop().run_in_executor(None, fn)


class TestVisitorFactory:
    def test_count_needs_no_dim(self):
        assert isinstance(visitor_factory_for("count")(), CountVisitor)

    def test_dim_aggregates(self):
        visitor = visitor_factory_for("sum", "y")()
        assert isinstance(visitor, SumVisitor) and visitor.dim == "y"

    def test_unknown_aggregate(self):
        with pytest.raises(QueryError):
            visitor_factory_for("median", "y")

    def test_missing_dim(self):
        with pytest.raises(QueryError):
            visitor_factory_for("sum")


class TestServerRoundtrip:
    def test_results_identical_to_percell(self, index):
        rng = np.random.default_rng(2)
        queries = [random_query(index.table, rng) for _ in range(10)]

        async def scenario(server, host, port):
            def client_part():
                results = []
                with FloodClient(host, port) as client:
                    assert client.ping()
                    for query in queries:
                        ranges = {d: list(b) for d, b in query.ranges.items()}
                        results.append(client.query(ranges))
                return results

            return await _in_thread(client_part)

        results = _run_with_server(index, scenario)
        for query, (got, stats) in zip(queries, results):
            visitor = CountVisitor()
            expected = index.query_percell(query, visitor)
            assert got == visitor.result
            assert stats["points_matched"] == expected.points_matched
            assert stats["points_scanned"] == expected.points_scanned

    def test_aggregates_and_server_stats(self, index):
        async def scenario(server, host, port):
            def client_part():
                with FloodClient(host, port) as client:
                    total, _ = client.query({"x": [0, 600]}, agg="sum", dim="y")
                    average, _ = client.query({"x": [0, 600]}, agg="avg", dim="y")
                    stats = client.server_stats()
                return total, average, stats

            return await _in_thread(client_part)

        total, average, stats = _run_with_server(index, scenario)
        expected = SumVisitor("y")
        index.query_percell(Query({"x": (0, 600)}), expected)
        assert total == expected.result
        assert stats["queries_served"] == 2
        assert stats["connections_served"] == 1
        assert set(stats["kernel"]) == {
            "tier", "numba_available", "warmup_seconds",
            "fused_groups", "fused_rows",
        }
        assert average == pytest.approx(
            total / _count(index, Query({"x": (0, 600)}))
        )

    def test_error_replies_keep_connection_open(self, index):
        async def scenario(server, host, port):
            def client_part():
                with FloodClient(host, port) as client:
                    for bad in (
                        {"ranges": {}},                    # empty ranges
                        {"ranges": {"x": [5, 1]}},         # inverted
                        {"ranges": {"x": [0, 5]}, "agg": "median"},
                    ):
                        with pytest.raises(ServerError):
                            client._roundtrip({"id": 1, **bad})
                    count, _ = client.query({"x": [0, 100]})  # still alive
                return count

            return await _in_thread(client_part)

        count = _run_with_server(index, scenario)
        assert count == _count(index, Query({"x": (0, 100)}))

    def test_malformed_json_gets_error_reply(self, index):
        async def scenario(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"this is not json\n")
            await writer.drain()
            reply = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            return reply

        reply = _run_with_server(index, scenario)
        assert reply["ok"] is False and "bad JSON" in reply["error"]

    def test_bad_aggregate_dim_does_not_poison_batch(self, index):
        """Regression: an unknown aggregate dim fails only its own request,
        never the batchmates sharing its micro-batch."""

        async def scenario(server, host, port):
            client = await AsyncFloodClient().connect(host, port)
            good = client.query({"x": [0, 400]})
            bad = client.query({"x": [0, 400]}, agg="sum", dim="not_a_column")
            results = await asyncio.gather(good, bad, return_exceptions=True)
            await client.close()
            return results

        good_result, bad_result = _run_with_server(
            index, scenario, max_batch=8, max_delay=0.05
        )
        assert isinstance(bad_result, ServerError)
        assert "not_a_column" in str(bad_result)
        count, _ = good_result
        assert count == _count(index, Query({"x": (0, 400)}))

    def test_concurrent_async_clients_microbatch(self, index):
        rng = np.random.default_rng(3)
        queries = [random_query(index.table, rng) for _ in range(16)]

        async def scenario(server, host, port):
            client = await AsyncFloodClient().connect(host, port)
            results = await asyncio.gather(
                *[
                    client.query({d: list(b) for d, b in q.ranges.items()})
                    for q in queries
                ]
            )
            await client.close()
            return results, server.batcher.stats.largest_batch

        results, largest = _run_with_server(
            index, scenario, max_batch=8, max_delay=0.02
        )
        for query, (got, _) in zip(queries, results):
            assert got == _count(index, query)
        assert largest > 1  # concurrency actually coalesced

    def test_sharded_index_behind_server(self):
        table = make_table(n=3000, dims=DIMS, seed=4, skew=True)
        plain = FloodIndex(GridLayout(DIMS, (6, 5))).build(table)
        sharded = ShardedFloodIndex.wrap(plain, num_shards=3, min_parallel_points=0)
        rng = np.random.default_rng(5)
        queries = [random_query(table, rng) for _ in range(8)]

        async def scenario(server, host, port):
            client = await AsyncFloodClient().connect(host, port)
            results = await asyncio.gather(
                *[
                    client.query({d: list(b) for d, b in q.ranges.items()})
                    for q in queries
                ]
            )
            await client.close()
            return results

        try:
            results = _run_with_server(sharded, scenario)
        finally:
            sharded.shutdown()
        for query, (got, _) in zip(queries, results):
            assert got == _count(plain, query)

    def test_shutdown_op_stops_server(self, index):
        async def scenario(server, host, port):
            await _in_thread(lambda: _shutdown_via_client(host, port))
            await asyncio.wait_for(server.serve_until_shutdown(), timeout=5)
            return True

        assert _run_with_server(index, scenario)


def _shutdown_via_client(host, port):
    with FloodClient(host, port) as client:
        client.shutdown()


def _count(index, query) -> int:
    visitor = CountVisitor()
    index.query_percell(query, visitor)
    return visitor.result


def _loads_strict(line):
    """Parse a reply refusing Infinity/NaN — what a non-Python client does."""

    def boom(name):
        raise AssertionError(f"non-RFC JSON constant {name} on the wire")

    return json.loads(line, parse_constant=boom)


async def _raw_roundtrip(host, port, payload: bytes) -> dict:
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(payload)
    await writer.drain()
    reply = _loads_strict(await reader.readline())
    writer.close()
    await writer.wait_closed()
    return reply


class TestWireProtocolStrictJSON:
    def test_encode_maps_nonfinite_to_null(self):
        reply = _loads_strict(
            _encode(
                {
                    "result": float("inf"),
                    "stats": {"so": float("nan"), "nested": [float("-inf"), 1.5]},
                }
            )
        )
        assert reply["result"] is None
        assert reply["stats"]["so"] is None
        assert reply["stats"]["nested"] == [None, 1.5]

    def test_infinity_literal_in_request_is_bad_json(self, index):
        async def scenario(server, host, port):
            return await _raw_roundtrip(
                host, port, b'{"id": 1, "ranges": {"x": [0, Infinity]}}\n'
            )

        reply = _run_with_server(index, scenario)
        assert reply["ok"] is False and "bad JSON" in reply["error"]

    def test_overflowing_float_bound_gets_error_reply_not_hang(self, index):
        """1e999 parses to float inf without an Infinity literal; it must
        fail this request cleanly (the OverflowError used to escape the
        reply path and silently kill the query task)."""

        async def scenario(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b'{"id": 7, "ranges": {"x": [0, 1e999]}}\n')
            await writer.drain()
            reply = _loads_strict(
                await asyncio.wait_for(reader.readline(), timeout=5)
            )
            # The connection survives for well-formed follow-ups.
            writer.write(b'{"id": 8, "ranges": {"x": [0, 100]}}\n')
            await writer.drain()
            follow_up = _loads_strict(
                await asyncio.wait_for(reader.readline(), timeout=5)
            )
            writer.close()
            await writer.wait_closed()
            return reply, follow_up

        reply, follow_up = _run_with_server(index, scenario)
        assert reply["ok"] is False and reply["id"] == 7
        assert follow_up["ok"] is True
        assert follow_up["result"] == _count(index, Query({"x": (0, 100)}))

    @pytest.mark.parametrize("refinement", ["binary", "plm"])
    def test_sort_range_outside_data_counts_zero(self, refinement):
        """A sort-dimension range far outside the data (wire bounds up to
        1e300) is an empty answer, not an ``internal error`` from the
        refinement stage."""
        table = make_table(n=3000, dims=DIMS, seed=6)
        index = FloodIndex(GridLayout(DIMS, (8, 8)), refinement=refinement).build(
            table
        )

        async def scenario(server, host, port):
            return [
                await _raw_roundtrip(
                    host, port, b'{"id": 1, "ranges": {"z": %s}}\n' % bounds
                )
                for bounds in (b"[-1e12, -1e11]", b"[1e299, 1e300]")
            ]

        for reply in _run_with_server(index, scenario):
            assert reply["ok"] is True, reply
            assert reply["result"] == 0

    def test_empty_match_min_max_avg_round_trip_as_null(self, index):
        """MIN/MAX/AVG over zero matched rows must reach the client as
        null, parseable by a strict JSON parser."""

        async def scenario(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            replies = []
            for i, agg in enumerate(("min", "max", "avg")):
                writer.write(
                    json.dumps(
                        {
                            "id": i,
                            "ranges": {"x": [5000, 6000]},  # matches nothing
                            "agg": agg,
                            "dim": "y",
                        }
                    ).encode()
                    + b"\n"
                )
                await writer.drain()
                replies.append(_loads_strict(await reader.readline()))
            writer.close()
            await writer.wait_closed()
            return replies

        for reply in _run_with_server(index, scenario):
            assert reply["ok"] is True
            assert reply["result"] is None


class TestResultCacheServing:
    def test_cached_replies_identical_to_uncached(self, index):
        rng = np.random.default_rng(11)
        queries = [random_query(index.table, rng) for _ in range(6)]

        def client_part(host, port):
            results = []
            with FloodClient(host, port) as client:
                for _ in range(3):  # repeats: rounds 2 and 3 hit the cache
                    for query in queries:
                        ranges = {d: list(b) for d, b in query.ranges.items()}
                        results.append(client.query(ranges))
                stats = client.server_stats()
            return results, stats

        async def scenario(server, host, port):
            return await _in_thread(lambda: client_part(host, port))

        results, stats = _run_with_server(index, scenario, cache_entries=32)
        for i, (got, got_stats) in enumerate(results):
            query = queries[i % len(queries)]
            assert got == _count(index, query)
            expected = CountVisitor()
            percell = index.query_percell(query, expected)
            assert got_stats["points_matched"] == percell.points_matched
            assert got_stats["points_scanned"] == percell.points_scanned
        assert stats["cache"]["hits"] == 2 * len(queries)
        assert stats["cache"]["misses"] == len(queries)
        assert stats["cache"]["entries"] == len(queries)
        # Hits never re-dispatch: only the first round's queries batched.
        assert stats["queries_served"] + stats["cache"]["hits"] == 3 * len(queries)

    def test_mixed_aggregates_cached_separately(self, index):
        def client_part(host, port):
            with FloodClient(host, port) as client:
                first = [
                    client.query({"x": [0, 600]}),
                    client.query({"x": [0, 600]}, agg="sum", dim="y"),
                    client.query({"x": [0, 600]}, agg="avg", dim="y"),
                ]
                second = [
                    client.query({"x": [0, 600]}),
                    client.query({"x": [0, 600]}, agg="sum", dim="y"),
                    client.query({"x": [0, 600]}, agg="avg", dim="y"),
                ]
                stats = client.server_stats()
            return first, second, stats

        async def scenario(server, host, port):
            return await _in_thread(lambda: client_part(host, port))

        first, second, stats = _run_with_server(index, scenario, cache_entries=8)
        assert [r for r, _ in first] == [r for r, _ in second]
        assert stats["cache"]["hits"] == 3 and stats["cache"]["misses"] == 3
        expected = SumVisitor("y")
        index.query_percell(Query({"x": (0, 600)}), expected)
        assert first[1][0] == expected.result

    def test_cache_disabled_keeps_stats_payload_shape(self, index):
        async def scenario(server, host, port):
            def client_part():
                with FloodClient(host, port) as client:
                    client.query({"x": [0, 100]})
                    return client.server_stats()

            return await _in_thread(client_part)

        stats = _run_with_server(index, scenario)  # default: cache_entries=0
        assert "cache" not in stats
        assert stats["queries_rejected"] == 0
        assert stats["batches_failed"] == 0
        assert stats["queries_failed"] == 0


class TestAdmissionControlServing:
    def test_overloaded_reply_is_structured_and_ping_survives(self, index):
        async def scenario(server, host, port):
            client = await AsyncFloodClient().connect(host, port)
            tasks = [
                asyncio.get_running_loop().create_task(
                    client.query({"x": [0, 900]})
                )
                for _ in range(8)
            ]
            await asyncio.sleep(0.05)  # the admitted two are mid-execution
            # Raw request while saturated: pin the exact wire contract.
            raw = await asyncio.wait_for(
                _raw_roundtrip(
                    host, port, b'{"id": 99, "ranges": {"x": [0, 900]}}\n'
                ),
                timeout=5,
            )
            # Liveness while saturated, on its own connection.
            started = asyncio.get_running_loop().time()
            pong = await asyncio.wait_for(
                _in_thread(lambda: _ping_once(host, port)), timeout=5
            )
            ping_seconds = asyncio.get_running_loop().time() - started
            results = await asyncio.gather(*tasks, return_exceptions=True)
            await client.close()
            return raw, pong, ping_seconds, results

        raw, pong, ping_seconds, results = _run_with_server(
            index,
            scenario,
            engine=_SlowEngine(BatchQueryEngine(index), delay=0.4),
            max_batch=1,
            max_delay=0.0,
            max_queue_depth=2,
        )
        assert raw == {"id": 99, "ok": False, "error": "overloaded", "retry": True}
        assert pong is True
        assert ping_seconds < 2.0  # answered inline, not behind the queue
        served = [r for r in results if not isinstance(r, Exception)]
        shed = [r for r in results if isinstance(r, RetryableError)]
        assert len(served) == 2 and len(shed) == 6
        expected = _count(index, Query({"x": (0, 900)}))
        assert all(result == expected for result, _ in served)

    def test_retrying_clients_eventually_succeed(self, index):
        async def scenario(server, host, port):
            client = await AsyncFloodClient(retries=10, backoff=0.05).connect(
                host, port
            )
            results = await asyncio.wait_for(
                asyncio.gather(*[client.query({"x": [0, 400]}) for _ in range(6)]),
                timeout=25,
            )
            stats_reply = await _in_thread(lambda: _stats_once(host, port))
            await client.close()
            return results, stats_reply

        results, stats = _run_with_server(
            index,
            scenario,
            engine=_SlowEngine(BatchQueryEngine(index), delay=0.1),
            max_batch=1,
            max_delay=0.0,
            max_queue_depth=2,
        )
        expected = _count(index, Query({"x": (0, 400)}))
        assert [r for r, _ in results] == [expected] * 6
        assert stats["queries_rejected"] > 0  # shedding really happened
        assert stats["queries_served"] == 6


def _ping_once(host, port) -> bool:
    with FloodClient(host, port) as client:
        return client.ping()


def _stats_once(host, port) -> dict:
    with FloodClient(host, port) as client:
        return client.server_stats()


class TestServeCLI:
    def test_serve_smoke(self):
        """`repro serve` end-to-end: start, 3 queries (served twice — the
        second pass exercises the result cache), clean shutdown.

        A watchdog enforces a hard wall-clock ceiling: if the subprocess
        hangs at any stage (startup, serving, shutdown) it is killed,
        unblocking the ``readline`` below and failing the test — instead
        of stalling the CI job until the runner-level timeout.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--rows", "20000", "--max-delay-ms", "1", "--shards", "1",
                "--cache-entries", "32", "--max-queue-depth", "256",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        watchdog = threading.Timer(SMOKE_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            address = None
            for _ in range(200):
                line = proc.stdout.readline()
                if not line:
                    break
                match = re.search(r"listening on ([\d.]+):(\d+)", line)
                if match:
                    address = (match.group(1), int(match.group(2)))
                    break
            assert address, (
                "server never announced its address (or was killed by the "
                f"{SMOKE_TIMEOUT}s watchdog)"
            )
            with FloodClient(*address, timeout=60) as client:
                assert client.ping()
                ranges = [{"quantity": (1, 10 + 10 * i)} for i in range(3)]
                counts = [client.query(r)[0] for r in ranges]
                assert all(isinstance(c, int) for c in counts)
                assert counts == sorted(counts)  # widening ranges: monotone
                cached = [client.query(r)[0] for r in ranges]
                assert cached == counts  # cache hits: identical answers
                stats = client.server_stats()
                assert stats["cache"]["hits"] >= 3
                client.shutdown()
            assert proc.wait(timeout=60) == 0
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
