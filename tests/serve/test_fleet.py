"""Serving-fleet tests: control-channel codec, swap protocol, degraded
mode, and the multi-process ``SO_REUSEPORT`` smoke test.

Three tiers, cheapest first:

- codec + handle units (pure functions, no processes);
- in-process integration: a real reader :class:`FloodServer` + its
  :class:`ReaderRuntime` wired over a real unix-socket control channel
  to a :class:`WriterRuntime` fronting a *fake* writer server — swap
  propagation mid-query, double-swap idempotence, proxied writes, and
  writer-crash degraded mode, all on one event loop;
- subprocess smoke (the ISSUE's acceptance scenario): a real
  ``repro serve --readers 2`` fleet, ``kill -9`` one reader mid-load,
  and the survivor keeps serving without dropping its connections.
"""

import asyncio
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.engine import BatchQueryEngine
from repro.core.index import FloodIndex
from repro.core.layout import GridLayout
from repro.errors import QueryError
from repro.serve.client import AsyncFloodClient, FloodClient
from repro.serve.fleet import (
    ReaderRuntime,
    WriterRuntime,
    decode_handle,
    encode_handle,
    make_reuseport_socket,
    read_frame,
    send_frame,
)
from repro.serve.server import FloodServer
from repro.storage.shm import SharedMemoryTable
from repro.storage.table import Table

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
SMOKE_TIMEOUT = 180
_LAYOUT = GridLayout(("x", "y"), (4,))

needs_reuseport = pytest.mark.skipif(
    not hasattr(socket, "SO_REUSEPORT"), reason="platform lacks SO_REUSEPORT"
)


def _table(n=400, lo=0, hi=100, seed=0):
    rng = np.random.default_rng(seed)
    return Table(
        {"x": rng.integers(lo, hi, n), "y": rng.integers(lo, hi, n)},
        compress=False,
    )


async def _pipe():
    """A connected (StreamReader, StreamWriter) pair over a socketpair."""
    left, right = socket.socketpair()
    reader, writer = await asyncio.open_connection(sock=left)
    peer_reader, peer_writer = await asyncio.open_connection(sock=right)
    return reader, writer, peer_reader, peer_writer


class TestFrameCodec:
    def test_round_trip(self):
        async def run():
            reader, writer, peer_reader, peer_writer = await _pipe()
            try:
                frame = {"type": "swap", "generation": 3, "nested": [1, 2]}
                await send_frame(writer, frame)
                assert await read_frame(peer_reader) == frame
            finally:
                writer.close()
                peer_writer.close()

        asyncio.run(run())

    def test_eof_returns_none(self):
        async def run():
            reader, writer, peer_reader, peer_writer = await _pipe()
            writer.close()
            try:
                assert await read_frame(peer_reader) is None
            finally:
                peer_writer.close()

        asyncio.run(run())

    def test_oversized_frame_is_rejected(self):
        async def run():
            reader, writer, peer_reader, peer_writer = await _pipe()
            try:
                writer.write(struct.pack("<I", 1 << 30))
                await writer.drain()
                with pytest.raises(QueryError, match="desynced"):
                    await read_frame(peer_reader)
            finally:
                writer.close()
                peer_writer.close()

        asyncio.run(run())

    def test_non_object_frame_is_rejected(self):
        async def run():
            reader, writer, peer_reader, peer_writer = await _pipe()
            try:
                body = b"[1, 2, 3]"
                writer.write(struct.pack("<I", len(body)) + body)
                await writer.drain()
                with pytest.raises(QueryError, match="object"):
                    await read_frame(peer_reader)
            finally:
                writer.close()
                peer_writer.close()

        asyncio.run(run())


class TestHandleCodec:
    def test_round_trip_through_json_types(self):
        table = _table(n=120)
        table.add_cumulative("y")
        shared = SharedMemoryTable.from_table(table)
        try:
            spec = encode_handle(shared.handle)
            # Simulate the wire: lists of lists, no tuples survive JSON.
            assert decode_handle(spec) == shared.handle
            attached = SharedMemoryTable.attach(decode_handle(spec))
            np.testing.assert_array_equal(
                attached.values("x"), table.values("x")
            )
            attached.close()
        finally:
            shared.unlink()


@needs_reuseport
class TestReuseportSocket:
    def test_two_sockets_share_a_port(self):
        first = make_reuseport_socket("127.0.0.1", 0)
        port = first.getsockname()[1]
        second = make_reuseport_socket("127.0.0.1", port)
        first.close()
        second.close()


# --------------------------------------------------------- fakes + fixtures
class _FakeStats:
    queries_served = 7


class _FakeBatcher:
    stats = _FakeStats()

    async def submit_write(self, fn):
        return fn()


class _FakeWriterServer:
    """Just enough server for WriterRuntime: write handling + shutdown."""

    def __init__(self):
        self.batcher = _FakeBatcher()
        self.connections_served = 3
        self.shutdown_requested = False
        self.writes = []

    async def handle_write_message(self, message):
        self.writes.append(message)
        return {"ok": True, "echo": message.get("op")}

    def request_shutdown(self):
        self.shutdown_requested = True


class _FakeFlood:
    """Just enough durable index for WriterRuntime.publish."""

    def __init__(self, table, generation=0):
        self.table = table
        self.generation = generation
        self.layout = _LAYOUT


class _Fleet:
    """One writer runtime + one in-process reader, over a real unix
    control socket, with a real reader FloodServer on a TCP port."""

    def __init__(self, tmp_path):
        self.control_path = str(tmp_path / "control.sock")
        self.table = _table(n=400, seed=1)
        self.flood = _FakeFlood(self.table)
        self.writer_server = _FakeWriterServer()
        self.writer = WriterRuntime(
            self.writer_server, self.flood, self.control_path,
            expected_readers=1,
        )

    async def __aenter__(self):
        generation, handle = self.writer.create_initial_publication()
        await self.writer.start()
        attachment = SharedMemoryTable.attach(handle)
        index = FloodIndex(_LAYOUT).build_clustered(attachment)
        index.generation = generation
        config = {
            "reader_id": 0,
            "control_path": self.control_path,
            "generation": generation,
        }
        self.reader = ReaderRuntime(config, index, attachment)
        engine = BatchQueryEngine(index, workers=1)
        self.server = FloodServer(
            engine,
            host="127.0.0.1",
            port=0,
            max_delay=0.001,
            write_proxy=self.reader.proxy_write,
        )
        self.server.fleet_stats = self.reader.fleet_stats
        self.reader.server = self.server
        self.address = await self.server.start()
        await self.reader.connect()
        assert await self.writer.wait_ready(timeout=30)
        return self

    async def __aexit__(self, *exc):
        await self.writer.stop()
        # Give the reader's control loop a beat to see the stop frame.
        for _ in range(50):
            if self.reader.stopping:
                break
            await asyncio.sleep(0.01)
        await self.server.stop()
        await self.reader.close()

    async def publish(self, table, generation):
        self.flood.table = table
        self.flood.generation = generation
        await self.writer.publish()

    async def wait_generation(self, generation, timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.reader.generation >= generation:
                return
            await asyncio.sleep(0.01)
        raise AssertionError(
            f"reader never reached generation {generation} "
            f"(at {self.reader.generation})"
        )

    def crash_writer(self):
        """Simulate the writer dying: sockets vanish, no stop frame."""
        server, self.writer._control_server = (
            self.writer._control_server, None,
        )
        if server is not None:
            server.close()
        for stream in self.writer._conns.values():
            stream.close()
        self.writer._conns.clear()


class TestControlChannel:
    def test_swap_propagates_and_queries_follow(self, tmp_path):
        """The core loop: publish a new generation mid-stream and the
        reader's answers switch to it, with no failed query anywhere."""

        async def run():
            async with _Fleet(tmp_path) as fleet:
                client = await AsyncFloodClient().connect(*fleet.address)
                try:
                    base, _ = await client.query({"x": (0, 1000)})
                    assert base == 400

                    # Queries in flight while the swap lands: fire a
                    # volley, publish mid-volley, every answer must be
                    # either generation's truth — never an error.
                    volley = [
                        asyncio.ensure_future(client.query({"x": (0, 1000)}))
                        for _ in range(16)
                    ]
                    await fleet.publish(_table(n=650, seed=2), generation=1)
                    results = await asyncio.gather(*volley)
                    assert {count for count, _ in results} <= {400, 650}

                    await fleet.wait_generation(1)
                    after, _ = await client.query({"x": (0, 1000)})
                    assert after == 650
                    stats = fleet.reader.fleet_stats()
                    assert stats["generation"] == 1
                    assert stats["swaps_applied"] == 1
                    assert not stats["degraded"]
                finally:
                    await client.close()

        asyncio.run(run())

    def test_double_swap_is_idempotent(self, tmp_path):
        """The same swap frame delivered twice (writer retry, reconnect
        replay) must apply exactly once."""

        async def run():
            async with _Fleet(tmp_path) as fleet:
                await fleet.publish(_table(n=500, seed=3), generation=1)
                await fleet.wait_generation(1)
                # Rebroadcast the identical publication.
                await fleet.writer.publish()
                for _ in range(30):
                    if fleet.reader.swaps_ignored:
                        break
                    await asyncio.sleep(0.01)
                assert fleet.reader.swaps_applied == 1
                assert fleet.reader.swaps_ignored >= 1
                assert fleet.reader.generation == 1

        asyncio.run(run())

    def test_writes_proxy_to_the_writer(self, tmp_path):
        async def run():
            async with _Fleet(tmp_path) as fleet:
                reply = await fleet.reader.proxy_write(
                    {"op": "insert", "row": {"x": 1, "y": 2}}
                )
                assert reply == {"ok": True, "echo": "insert"}
                assert fleet.writer_server.writes == [
                    {"op": "insert", "row": {"x": 1, "y": 2}}
                ]
                assert fleet.writer.proxied_writes == 1
                assert fleet.reader.proxied_writes == 1

        asyncio.run(run())

    def test_writer_crash_degrades_but_keeps_serving(self, tmp_path):
        """Writer dies without a stop frame: the reader flags degraded,
        answers proxied writes with the structured error, fails pending
        write futures — and still serves reads on the last generation."""

        async def run():
            async with _Fleet(tmp_path) as fleet:
                client = await AsyncFloodClient().connect(*fleet.address)
                try:
                    fleet.crash_writer()
                    for _ in range(200):
                        if fleet.reader.degraded:
                            break
                        await asyncio.sleep(0.01)
                    assert fleet.reader.degraded
                    # Reads still serve the last published generation.
                    count, _ = await client.query({"x": (0, 1000)})
                    assert count == 400
                    assert fleet.reader.fleet_stats()["degraded"] is True
                    # Proxied writes answer structurally, not by hanging.
                    reply = await fleet.reader.proxy_write({"op": "insert"})
                    assert reply["ok"] is False
                    assert reply["degraded"] is True
                finally:
                    await client.close()
                fleet.reader.stopping = True  # writer is already gone

        asyncio.run(run())

    def test_crash_fails_inflight_write_futures(self, tmp_path):
        async def run():
            async with _Fleet(tmp_path) as fleet:
                # Park a write future manually, then crash the writer.
                future = asyncio.get_running_loop().create_future()
                fleet.reader._pending[999] = future
                fleet.crash_writer()
                reply = await asyncio.wait_for(future, timeout=30)
                assert reply["ok"] is False and reply["degraded"] is True
                fleet.reader.stopping = True

        asyncio.run(run())

    def test_stop_frame_shuts_the_reader_down(self, tmp_path):
        async def run():
            async with _Fleet(tmp_path) as fleet:
                await fleet.writer._broadcast({"type": "stop"})
                for _ in range(200):
                    if fleet.reader.stopping:
                        break
                    await asyncio.sleep(0.01)
                assert fleet.reader.stopping
                assert not fleet.reader.degraded

        asyncio.run(run())

    def test_missed_publication_waits_for_the_next(self, tmp_path):
        """A swap whose segments are already unlinked (reader lagged two
        merges) is skipped and the *next* publication catches up."""

        async def run():
            async with _Fleet(tmp_path) as fleet:
                frame = {
                    "type": "swap",
                    "generation": 1,
                    "handle": {
                        "num_rows": 10,
                        "columns": [["x", "gone-seg-name", 80, "<i8"]],
                        "cumulative": [],
                    },
                    "layout_order": list(_LAYOUT.order),
                    "layout_columns": list(_LAYOUT.columns),
                }
                await fleet.reader.apply_swap(frame)
                assert fleet.reader.swaps_missed == 1
                assert fleet.reader.generation == 0
                await fleet.publish(_table(n=300, seed=4), generation=2)
                await fleet.wait_generation(2)
                assert fleet.reader.swaps_applied == 1

        asyncio.run(run())


# ------------------------------------------------------------ process smoke
def _spawn_fleet(data_dir, readers=2, rows=3000, extra=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--rows", str(rows), "--index", "delta", "--shards", "1",
            "--max-delay-ms", "1", "--merge-threshold", "200",
            "--data-dir", str(data_dir),
            "--readers", str(readers), *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        start_new_session=True,  # so a watchdog can kill the whole tree
    )
    watchdog = threading.Timer(
        SMOKE_TIMEOUT,
        lambda: os.killpg(proc.pid, signal.SIGKILL)
        if proc.poll() is None
        else None,
    )
    watchdog.start()
    address = None
    banner = []
    for _ in range(500):
        line = proc.stdout.readline()
        if not line:
            break
        banner.append(line.rstrip())
        match = re.search(r"listening on ([\d.]+):(\d+)", line)
        if match:
            address = (match.group(1), int(match.group(2)))
            break
    return proc, watchdog, address, banner


def _reap(proc, watchdog):
    watchdog.cancel()
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=30)


@needs_reuseport
class TestFleetSmoke:
    def test_kill9_reader_fleet_keeps_serving(self, tmp_path):
        """The acceptance scenario: 2 readers, kill -9 one mid-load —
        connections on the surviving processes never drop, and fresh
        connections keep landing somewhere alive."""
        proc, watchdog, address, banner = _spawn_fleet(tmp_path / "state")
        try:
            assert address, f"no address; output: {banner}"
            assert any("1 writer + 2 reader" in line for line in banner), (
                banner
            )
            # Open a spread of connections and learn who each landed on.
            clients = [FloodClient(*address, timeout=60) for _ in range(12)]
            placed = []  # (client, role, reader_id or None)
            victim_pid = None
            for client in clients:
                fleet = client.server_stats()["fleet"]
                placed.append(
                    (client, fleet["role"], fleet.get("reader_id"))
                )
                if fleet["role"] == "writer":
                    pids = fleet["reader_pids"]
                    assert len(pids) == 2, fleet
                    victim_pid = int(pids["0"])
            if victim_pid is None:
                # Every connection hashed onto readers; ask via a fresh
                # socket until the writer answers (bounded attempts).
                for _ in range(50):
                    with FloodClient(*address, timeout=60) as probe:
                        fleet = probe.server_stats()["fleet"]
                        if fleet["role"] == "writer":
                            victim_pid = int(fleet["reader_pids"]["0"])
                            break
            assert victim_pid is not None, "never reached the writer"

            # Mid-load: keep a query stream going while the kill lands.
            os.kill(victim_pid, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                try:
                    os.kill(victim_pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.05)

            survivors = 0
            for client, role, reader_id in placed:
                if role == "reader" and reader_id == 0:
                    continue  # this connection died with its process
                count, _ = client.query({"order_key": (0, 10**9)})
                assert count >= 3000, (role, reader_id, count)
                survivors += 1
            assert survivors >= 1
            # Fresh connections must all land somewhere alive.
            for _ in range(10):
                with FloodClient(*address, timeout=60) as fresh:
                    count, _ = fresh.query({"order_key": (0, 10**9)})
                    assert count >= 3000
            for client, _, _ in placed:
                try:
                    client.close()
                except OSError:
                    pass
            with FloodClient(*address, timeout=60) as last:
                last.shutdown()
            assert proc.wait(timeout=120) == 0
        finally:
            _reap(proc, watchdog)

    def test_fleet_insert_merge_swap_visibility(self, tmp_path):
        """Writes proxied from a reader become visible on *every*
        process once the merge publishes a new generation."""
        proc, watchdog, address, banner = _spawn_fleet(tmp_path / "state")
        try:
            assert address, f"no address; output: {banner}"
            clients = [FloodClient(*address, timeout=60) for _ in range(8)]
            by_role = {}
            for client in clients:
                fleet = client.server_stats()["fleet"]
                key = (fleet["role"], fleet.get("reader_id"))
                by_role.setdefault(key, client)
            writer_conn = by_role.get(("writer", None))
            any_conn = clients[0]
            # 250 sentinels crosses the 200-row merge threshold, so a
            # merge + publish happens underneath the stream.
            for i in range(250):
                reply = any_conn.insert(
                    {
                        "ship_date": 5000 + i, "receipt_date": 5100 + i,
                        "quantity": 5, "discount": 1,
                        "order_key": 2_000_000 + i, "supp_key": 9,
                    }
                )
                assert reply.get("ok", True), reply
            # Fold the buffered tail too: readers serve only *published*
            # generations, so without this the last ~50 rows would stay
            # writer-only until the next threshold merge. A merge request
            # *joins* an in-flight merge (here: the threshold merge that
            # snapshotted the buffer at ~200 rows), so keep merging until
            # the writer's reply shows an empty buffer.
            merge_deadline = time.monotonic() + 60
            while time.monotonic() < merge_deadline:
                reply = any_conn.merge()
                assert reply.get("ok", True), reply
                if reply.get("buffered_rows") == 0:
                    break
                time.sleep(0.1)
            assert reply.get("buffered_rows") == 0, reply
            expected = 250
            deadline = time.monotonic() + 60
            laggards = list(clients)
            while laggards and time.monotonic() < deadline:
                laggards = [
                    client
                    for client in laggards
                    if client.query(
                        {"order_key": (2_000_000, 3_000_000)}
                    )[0] != expected
                ]
                time.sleep(0.25)
            assert not laggards, (
                f"{len(laggards)} connection(s) never saw the merged "
                "generation"
            )
            if writer_conn is not None:
                stats = writer_conn.server_stats()["fleet"]
                assert stats["swaps_published"] >= 1
            for client in clients:
                try:
                    client.close()
                except OSError:
                    pass
            with FloodClient(*address, timeout=60) as last:
                last.shutdown()
            assert proc.wait(timeout=120) == 0
        finally:
            _reap(proc, watchdog)
