"""Chaos regression tests for the await-atomicity fixes.

Each scenario here pins a bug the ``await-atomicity`` rule flagged in
the serving tier: lifecycle methods that read ``self`` state, awaited,
then acted on the stale read — so a concurrent second call re-entered
teardown that was already underway (pre-fix, two racing
``MicroBatcher.stop()`` calls crashed with ``AttributeError`` on the
queue the first call had already torn down; ``FloodServer.stop`` and
``AsyncFloodClient.close`` had the same shape). The fixes claim the
state into locals before the first await; these tests race the claim
windows under :class:`ChaosEventLoop` across several seeds so the
adversarial interleavings are actually exercised, not just possible.

The tests install the chaos policy themselves — they are adversarial
with or without ``REPRO_CHAOS_SEED`` in the environment.
"""

import asyncio
import contextlib

import numpy as np
import pytest

from repro.analysis.sanitizers import ChaosEventLoopPolicy
from repro.core.delta import DeltaBufferedFlood
from repro.core.engine import BatchQueryEngine
from repro.core.index import FloodIndex
from repro.core.layout import GridLayout
from repro.errors import QueryError
from repro.serve.batcher import MicroBatcher
from repro.serve.client import AsyncFloodClient
from repro.serve.server import FloodServer
from repro.storage.table import Table

from tests.helpers import make_table, random_query

DIMS = ("x", "y")
SEEDS = (0, 1, 2, 3)


@contextlib.contextmanager
def _chaos(seed: int):
    previous = asyncio.get_event_loop_policy()
    asyncio.set_event_loop_policy(ChaosEventLoopPolicy(seed=seed))
    try:
        yield
    finally:
        asyncio.set_event_loop_policy(previous)


@pytest.fixture(scope="module")
def engine():
    table = make_table(n=500, dims=DIMS, seed=90)
    index = FloodIndex(GridLayout(DIMS, (4,))).build(table)
    return BatchQueryEngine(index)


class TestBatcherStopRace:
    def test_concurrent_stops_are_idempotent(self, engine):
        """Pre-fix: both stops passed the ``self._task is None`` guard,
        and the loser resumed into ``self._queue.empty()`` after the
        winner had already set the queue to ``None`` — AttributeError."""

        async def scenario():
            batcher = MicroBatcher(engine, max_batch=4, max_delay=0.001)
            await batcher.start()
            await asyncio.gather(*[batcher.stop() for _ in range(3)])
            assert not batcher.running

        for seed in SEEDS:
            with _chaos(seed):
                asyncio.run(scenario())

    def test_stop_racing_live_submissions(self, engine):
        """Submissions racing a stop must resolve (served or failed
        fast), never hang, and repeated stop must stay clean while
        dispatches from the racing submissions drain."""

        async def scenario():
            batcher = MicroBatcher(engine, max_batch=2, max_delay=0.001)
            await batcher.start()
            query = random_query(
                make_table(n=500, dims=DIMS, seed=90),
                np.random.default_rng(1),
                num_dims=len(DIMS),
            )
            loop = asyncio.get_running_loop()
            submits = [
                loop.create_task(batcher.submit(query)) for _ in range(6)
            ]
            stops = [loop.create_task(batcher.stop()) for _ in range(2)]
            results = await asyncio.wait_for(
                asyncio.gather(*submits, return_exceptions=True), timeout=10
            )
            await asyncio.wait_for(asyncio.gather(*stops), timeout=10)
            for outcome in results:
                assert isinstance(outcome, (tuple, QueryError))
            assert not batcher.running

        for seed in SEEDS:
            with _chaos(seed):
                asyncio.run(scenario())


class TestServerStopRace:
    def test_concurrent_server_stops(self):
        """Pre-fix: racing stops both saw ``self._server`` set and both
        descended into the batcher teardown, which crashed as above."""
        table = make_table(n=300, dims=DIMS, seed=91)
        index = FloodIndex(GridLayout(DIMS, (4,))).build(table)

        async def scenario():
            server = FloodServer(BatchQueryEngine(index))
            await server.start()
            await asyncio.gather(*[server.stop() for _ in range(3)])

        for seed in SEEDS:
            with _chaos(seed):
                asyncio.run(scenario())

    def test_shutdown_op_racing_external_stop(self):
        """The wire ``shutdown`` op stops the server from inside a
        connection handler while the owner also calls ``stop()`` — the
        realistic double-stop."""
        data = {dim: np.arange(200) for dim in DIMS}
        delta = DeltaBufferedFlood(
            GridLayout(DIMS, (4,)), merge_threshold=None
        ).build(Table(data))

        async def scenario():
            server = FloodServer(BatchQueryEngine(delta))
            host, port = await server.start()
            client = await AsyncFloodClient().connect(host, port)
            count, _ = await client.query({"x": [0, 50]})
            assert count == 51
            _, writer = await asyncio.open_connection(host, port)
            writer.write(b'{"op": "shutdown"}\n')
            await writer.drain()
            await asyncio.wait_for(
                asyncio.gather(server.serve_until_shutdown(), server.stop()),
                timeout=10,
            )
            writer.close()
            with contextlib.suppress(OSError):
                await writer.wait_closed()
            await client.close()

        for seed in SEEDS:
            with _chaos(seed):
                asyncio.run(scenario())


class TestClientCloseRace:
    def test_concurrent_closes_are_idempotent(self):
        table = make_table(n=300, dims=DIMS, seed=92)
        index = FloodIndex(GridLayout(DIMS, (4,))).build(table)

        async def scenario():
            server = FloodServer(BatchQueryEngine(index))
            host, port = await server.start()
            try:
                client = await AsyncFloodClient().connect(host, port)
                count, _ = await client.query({"x": [0, 1000]})
                assert count == 300
                await asyncio.wait_for(
                    asyncio.gather(*[client.close() for _ in range(3)]),
                    timeout=10,
                )
            finally:
                await server.stop()

        for seed in SEEDS:
            with _chaos(seed):
                asyncio.run(scenario())
