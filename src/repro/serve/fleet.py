"""Multi-process serving fleet: one writer, N ``SO_REUSEPORT`` readers.

Every prior serving win (micro-batching, result cache, fused kernels)
still funnels through one asyncio event loop — the hard
QPS ceiling the ROADMAP names. This module breaks it with processes, not
threads, and without giving up the single-writer mutation discipline:

- **One writer process** owns the mutable index — the full
  :class:`~repro.core.durable.DurableDeltaFlood` stack (WAL, group
  commit, merges, checkpoints) behind a normal mutable
  :class:`~repro.serve.server.FloodServer`. It binds the shared port
  like everyone else, so it serves queries too.
- **N reader processes** each run their own event loop + read-only
  ``FloodServer`` bound to the *same* ``host:port`` via ``SO_REUSEPORT``
  — the kernel distributes accepted connections across the fleet, no
  userspace load balancer. Readers serve the writer's current clustered
  *generation*, attached zero-copy through
  :class:`~repro.storage.shm.ShmTableHandle` and indexed without a
  re-permute by :meth:`~repro.core.index.FloodIndex.build_clustered`.
- **A control channel** (unix-domain socket under ``--data-dir``,
  ``u32``-length-framed strict-JSON frames) connects each reader to the
  writer. The writer broadcasts ``swap`` frames after every committed
  merge/re-layout (new generation + shm handle + layout); readers attach
  the new publication off-loop, swap their index atomically through the
  batcher's write barrier, and retire the superseded attachment. Write
  ops landing on a reader are **proxied** over the same channel to the
  writer — the single-writer invariant and the write barrier hold
  fleet-wide, and the ack a client receives is the writer's own
  (durability contract included).

Consistency model (deliberate, documented): the writer's delta buffer is
process-local, so rows inserted since the last merge are visible only on
connections the kernel routed to the writer; every reader serves the
last *published generation*. A merge (threshold or explicit ``merge``
op) folds the buffer into a new generation and publishes it to every
reader. Within one connection to one process, ordering is exactly the
single-process contract; cache staleness is impossible everywhere
because result-cache keys embed the generation.

Failure modes: a SIGKILLed reader just stops accepting (the kernel
steers new connections to the survivors — nothing else notices); a dead
*writer* flips readers into ``degraded`` mode — they keep serving the
last generation, report ``degraded: true`` in stats, and answer proxied
writes with a structured error. Orphaned shm segments from a SIGKILLed
fleet are reclaimed by :func:`repro.storage.shm.sweep_stale_segments`
at the next fleet startup.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import socket
import struct
import sys

from repro.errors import QueryError
from repro.jsonutil import dumps_strict, loads_strict

#: Control-channel frame header: payload byte length.
_LEN = struct.Struct("<I")
#: A control frame is metadata (a handle is a few hundred bytes); a
#: length beyond this is a desynced or corrupt stream, not a real frame.
MAX_FRAME = 16 * 1024 * 1024
#: Seconds the writer waits for the reader fleet's readiness barrier
#: (readers warm kernels + re-train the flattener before reporting in).
READY_TIMEOUT = 120.0
#: Bounded reap at teardown: clean join, then terminate, then kill.
REAP_TIMEOUT = 10.0


# --------------------------------------------------------------------- codec
async def send_frame(writer: asyncio.StreamWriter, payload: dict) -> None:
    """Write one length-framed strict-JSON control frame."""
    data = dumps_strict(payload).encode()
    writer.write(_LEN.pack(len(data)) + data)
    await writer.drain()


async def read_frame(reader: asyncio.StreamReader) -> dict | None:
    """Read one control frame; ``None`` on clean EOF / reset (peer gone).

    Raises :class:`~repro.errors.QueryError` on a frame that cannot be a
    real control message (oversized length, non-object payload) — the
    stream is desynced and the connection must be dropped, not resumed.
    """
    try:
        header = await reader.readexactly(_LEN.size)
    except (asyncio.IncompleteReadError, ConnectionResetError):
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME:
        raise QueryError(f"control frame too large ({length} bytes); desynced")
    try:
        data = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionResetError):
        return None
    message = loads_strict(data)
    if not isinstance(message, dict):
        raise QueryError("control frame must be a JSON object")
    return message


def encode_handle(handle) -> dict:
    """A :class:`~repro.storage.shm.ShmTableHandle` as JSON-able dict."""
    return {
        "num_rows": int(handle.num_rows),
        "columns": [list(col) for col in handle.columns],
        "cumulative": [list(col) for col in handle.cumulative],
    }


def decode_handle(spec: dict):
    from repro.storage.shm import ShmTableHandle

    return ShmTableHandle(
        num_rows=int(spec["num_rows"]),
        columns=tuple(
            (str(d), str(n), int(s), str(t)) for d, n, s, t in spec["columns"]
        ),
        cumulative=tuple(
            (str(d), str(n), int(s), str(t)) for d, n, s, t in spec["cumulative"]
        ),
    )


def make_reuseport_socket(host: str, port: int) -> socket.socket:
    """A bound, listening, non-blocking TCP socket with ``SO_REUSEPORT``.

    Called before the event loop exists (writer) or before ``asyncio.run``
    (readers) — binding N processes to one port is the whole point, and
    the kernel then load-balances accepted connections across them.
    """
    if not hasattr(socket, "SO_REUSEPORT"):
        raise QueryError(
            "this platform has no SO_REUSEPORT; --readers needs it"
        )
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
        sock.listen(128)
        sock.setblocking(False)
    except BaseException:
        sock.close()
        raise
    return sock


# ------------------------------------------------------------------- writer
class WriterRuntime:
    """The writer-side fleet state: control server, publications, stats.

    One instance lives next to the writer's :class:`FloodServer`. It owns
    the unix-domain control server readers dial into, the shared-memory
    *publications* (one :class:`SharedMemoryTable` copy of each published
    generation's clustered table — the last two are retained so a lagging
    reader attaching generation ``N-1`` never races the unlink of its
    segments), and the per-reader stats reports that feed the
    fleet-aggregated ``stats`` block.
    """

    def __init__(self, server, flood, control_path: str, expected_readers: int):
        self.server = server
        self.flood = flood
        self.control_path = control_path
        self.expected_readers = int(expected_readers)
        self.swaps_published = 0
        self.proxied_writes = 0
        self._conns: dict[int, asyncio.StreamWriter] = {}
        self._send_locks: dict[int, asyncio.Lock] = {}
        self._reader_pids: dict[int, int | None] = {}
        self._reader_stats: dict[int, dict] = {}
        self._ready: set[int] = set()
        self._ready_event = asyncio.Event()
        #: ``(generation, SharedMemoryTable)`` — oldest first, last two kept.
        self._publications: list[tuple[int, object]] = []
        self._control_server: asyncio.AbstractServer | None = None
        self._write_tasks: set[asyncio.Task] = set()

    # ---------------------------------------------------------- publications
    def _track(self, generation: int, shared) -> None:
        """Take ownership of a publication: it is now the runtime's to
        unlink (superseded in :meth:`publish` or released in
        :meth:`stop`)."""
        self._publications.append((generation, shared))

    def create_initial_publication(self):
        """Copy the current clustered table into shared memory (sync;
        runs before the readers spawn). Returns ``(generation, handle)``
        for the reader spawn configs."""
        from repro.storage.shm import SharedMemoryTable

        generation = int(self.flood.generation)
        shared = SharedMemoryTable.from_table(self.flood.table)
        self._track(generation, shared)
        return generation, shared.handle

    async def publish(self) -> None:
        """Publish the current generation to every reader.

        The :class:`~repro.serve.mutable.MutableController` awaits this
        as its ``on_commit`` hook, right after a merge/re-layout commit +
        checkpoint. The table copy into shared memory is the heavy part
        and runs on an executor thread; only the broadcast itself touches
        the loop. Retains the newest two publications and unlinks older
        ones (readers already attached keep valid mappings — POSIX
        unlink-after-attach — and a reader that finds the segment gone
        simply waits for the next swap).
        """
        from repro.storage.shm import SharedMemoryTable

        loop = asyncio.get_running_loop()
        table = self.flood.table
        generation = int(self.flood.generation)
        shared = await loop.run_in_executor(
            None, SharedMemoryTable.from_table, table
        )
        self._track(generation, shared)
        while len(self._publications) > 2:
            _, stale = self._publications.pop(0)
            await loop.run_in_executor(None, stale.unlink)
        layout = self.flood.layout
        await self._broadcast(
            {
                "type": "swap",
                "generation": generation,
                "handle": encode_handle(shared.handle),
                "layout_order": list(layout.order),
                "layout_columns": list(layout.columns),
            }
        )
        self.swaps_published += 1

    # -------------------------------------------------------------- control
    async def start(self) -> None:
        self._control_server = await asyncio.start_unix_server(
            self._handle_control, path=self.control_path
        )

    async def wait_ready(self, timeout: float = READY_TIMEOUT) -> bool:
        """Block until every expected reader reported ``ready`` (or the
        timeout passes — the fleet then starts degraded rather than
        hanging; the stats block shows who is missing)."""
        if len(self._ready) >= self.expected_readers:
            return True
        try:
            await asyncio.wait_for(self._ready_event.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    async def _handle_control(self, reader, writer) -> None:
        """One reader's control connection, hello to EOF."""
        reader_id: int | None = None
        try:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                kind = frame.get("type")
                if kind == "hello":
                    reader_id = int(frame.get("reader_id", -1))
                    self._conns[reader_id] = writer
                    self._send_locks[reader_id] = asyncio.Lock()
                    self._reader_pids[reader_id] = frame.get("pid")
                elif kind == "ready":
                    if reader_id is not None:
                        # One non-suspending step: rebuild the set and
                        # decide on the local, so a concurrent handler
                        # cannot interleave between write and read.
                        ready = self._ready | {reader_id}
                        self._ready = ready
                        if len(ready) >= self.expected_readers:
                            self._ready_event.set()
                elif kind == "write":
                    # Serve each proxied write in its own task: a write
                    # parked on a group-commit ticket must not block this
                    # loop from delivering the next swap to the reader.
                    task = asyncio.get_running_loop().create_task(
                        self._serve_write(reader_id, frame)
                    )
                    self._write_tasks.add(task)
                    task.add_done_callback(self._write_tasks.discard)
                elif kind == "stats_report":
                    self._reader_stats[int(frame.get("reader_id", -1))] = (
                        frame.get("stats") or {}
                    )
                elif kind == "shutdown":
                    # A reader relayed a wire shutdown op: stop fleet-wide.
                    self.server.request_shutdown()
        except (QueryError, ConnectionResetError, OSError):
            pass  # desynced or vanished reader: drop the connection
        finally:
            if reader_id is not None:
                self._conns.pop(reader_id, None)
                self._send_locks.pop(reader_id, None)

    async def _serve_write(self, reader_id: int | None, frame: dict) -> None:
        reply = await self.server.handle_write_message(
            frame.get("message") or {}
        )
        self.proxied_writes += 1
        await self._send(
            reader_id, {"type": "write_reply", "seq": frame.get("seq"),
                        "reply": reply}
        )

    async def _send(self, reader_id: int | None, frame: dict) -> None:
        writer = self._conns.get(reader_id)
        lock = self._send_locks.get(reader_id)
        if writer is None or lock is None:
            return  # reader vanished between request and reply
        try:
            async with lock:
                await send_frame(writer, frame)
        except (ConnectionResetError, BrokenPipeError, OSError):
            self._conns.pop(reader_id, None)
            self._send_locks.pop(reader_id, None)

    async def _broadcast(self, frame: dict) -> None:
        for reader_id in list(self._conns):
            await self._send(reader_id, frame)

    # ---------------------------------------------------------------- stats
    def fleet_stats(self) -> dict:
        """The writer's ``fleet`` stats block: per-process role + the
        fleet-aggregated serving counters (writer's own + every reader's
        last ``stats_report``)."""
        own = self.server.batcher.stats
        aggregate = {
            "queries_served": own.queries_served,
            "connections_served": self.server.connections_served,
        }
        for stats in self._reader_stats.values():
            aggregate["queries_served"] += int(stats.get("queries_served", 0))
            aggregate["connections_served"] += int(
                stats.get("connections_served", 0)
            )
        return {
            "role": "writer",
            "readers_expected": self.expected_readers,
            "readers_connected": len(self._conns),
            "readers_ready": len(self._ready),
            "generation_published": (
                self._publications[-1][0] if self._publications else None
            ),
            "swaps_published": self.swaps_published,
            "proxied_writes": self.proxied_writes,
            "aggregate": aggregate,
            "reader_pids": {
                str(k): v for k, v in self._reader_pids.items()
                if k in self._conns
            },
            "readers": {str(k): v for k, v in self._reader_stats.items()},
        }

    # ------------------------------------------------------------- teardown
    async def stop(self) -> None:
        """Broadcast ``stop``, close the control server, release the
        publications (writer-side; the readers' mappings stay valid until
        they close)."""
        await self._broadcast({"type": "stop"})
        for task in list(self._write_tasks):
            task.cancel()
        if self._write_tasks:
            await asyncio.gather(*self._write_tasks, return_exceptions=True)
        server, self._control_server = self._control_server, None
        if server is not None:
            server.close()
            for writer in self._conns.values():
                writer.close()
            await server.wait_closed()
        self._conns.clear()
        self._send_locks.clear()
        loop = asyncio.get_running_loop()
        publications, self._publications = self._publications, []
        for _, shared in publications:
            await loop.run_in_executor(None, shared.unlink)


# ------------------------------------------------------------------- reader
class ReaderRuntime:
    """The reader-side fleet state: control client, swaps, write proxy.

    Owns this reader's control connection to the writer and the lifecycle
    of its generation attachments. Everything index-facing goes through
    the server's write barrier: a ``swap`` frame builds the new index
    *off-loop* (attach + ``build_clustered``), then swaps it in through
    :meth:`MicroBatcher.submit_write`, so no query is mid-scan on the old
    index when it is replaced — a swap published mid-query simply waits
    its turn at the barrier (the reader-lag tests pin this).
    """

    def __init__(self, config: dict, index, attachment):
        self.config = config
        self.reader_id = int(config["reader_id"])
        self.index = index
        self.attachment = attachment
        self.generation = int(config["generation"])
        self.swaps_applied = 0
        self.swaps_ignored = 0
        self.swaps_missed = 0
        self.proxied_writes = 0
        self.degraded = False
        self.stopping = False
        self.server = None  # attached by the reader main after construction
        self._seq = 0
        self._pending: dict[int, asyncio.Future] = {}
        self._stream_reader: asyncio.StreamReader | None = None
        self._stream_writer: asyncio.StreamWriter | None = None
        self._send_lock = asyncio.Lock()
        self._tasks: list[asyncio.Task] = []

    # -------------------------------------------------------------- control
    async def connect(self) -> None:
        """Dial the writer, say hello, start the control + stats loops,
        and report ready (the writer's startup barrier counts these)."""
        reader, writer = await asyncio.open_unix_connection(
            self.config["control_path"]
        )
        self._stream_reader, self._stream_writer = reader, writer
        loop = asyncio.get_running_loop()
        self._tasks.append(loop.create_task(self._control_loop()))
        self._tasks.append(loop.create_task(self._stats_loop()))
        await self._send(
            {"type": "hello", "reader_id": self.reader_id, "pid": os.getpid()}
        )
        await self._send(
            {
                "type": "ready",
                "reader_id": self.reader_id,
                "generation": self.generation,
            }
        )

    async def _send(self, frame: dict) -> None:
        writer = self._stream_writer
        if writer is None:
            raise ConnectionResetError("control channel is closed")
        async with self._send_lock:
            await send_frame(writer, frame)

    async def _control_loop(self) -> None:
        """Dispatch inbound control frames until EOF (writer gone)."""
        try:
            while True:
                frame = await read_frame(self._stream_reader)
                if frame is None:
                    break
                kind = frame.get("type")
                if kind == "swap":
                    await self.apply_swap(frame)
                elif kind == "write_reply":
                    future = self._pending.pop(frame.get("seq"), None)
                    if future is not None and not future.done():
                        future.set_result(dict(frame.get("reply") or {}))
                elif kind == "stop":
                    self.stopping = True
                    if self.server is not None:
                        self.server.request_shutdown()
        except (QueryError, ConnectionResetError, OSError):
            pass
        finally:
            if not self.stopping:
                self.mark_degraded()

    def mark_degraded(self) -> None:
        """Writer is gone: keep serving the current generation, fail the
        in-flight proxied writes with the structured degraded error, and
        flag it in stats — a degraded reader is alive, not broken."""
        self.degraded = True
        for future in self._pending.values():
            if not future.done():
                future.set_result(_degraded_reply())
        self._pending.clear()

    # ----------------------------------------------------------------- swap
    async def apply_swap(self, frame: dict) -> None:
        """Apply one ``swap`` frame (idempotent, barrier-ordered).

        A stale or duplicate swap — generation at or below the current
        one — is ignored (double-swap idempotence). A publication whose
        segments are already unlinked (this reader lagged two merges
        behind) is skipped and counted; the next swap catches us up.
        """
        generation = int(frame.get("generation", -1))
        if generation <= self.generation:
            self.swaps_ignored += 1
            return
        from repro.core.index import FloodIndex
        from repro.core.layout import GridLayout
        from repro.storage.shm import SharedMemoryTable

        handle = decode_handle(frame["handle"])
        layout = GridLayout(
            tuple(frame["layout_order"]),
            tuple(int(c) for c in frame["layout_columns"]),
        )
        loop = asyncio.get_running_loop()

        def build():
            shared = SharedMemoryTable.attach(handle)
            index = FloodIndex(layout).build_clustered(shared)
            return shared, index

        try:
            shared, new_index = await loop.run_in_executor(None, build)
        except FileNotFoundError:
            self.swaps_missed += 1  # superseded publication; next swap wins
            return
        server = self.server
        retired: list = []

        def commit():
            # The authoritative generation check lives *inside* the
            # barrier closure: between the pre-filter above and this
            # point the loop may have run other swaps, so re-check and
            # mutate in one non-suspending step.
            if generation <= self.generation:
                return False
            new_index.generation = generation
            if server is not None:
                # The result cache is generation-keyed and needs no
                # clearing.
                server.engine.index = new_index
            retired.append(self.attachment)
            self.index = new_index
            self.attachment = shared
            self.generation = generation
            self.swaps_applied += 1
            return True

        if server is not None:
            applied = await server.batcher.submit_write(commit)
        else:
            applied = commit()
        if not applied:
            await loop.run_in_executor(None, shared.close)
            return
        # Retire the superseded attachment off-loop; views still pinned
        # by in-flight result objects keep their pages mapped until GC.
        await loop.run_in_executor(None, retired[0].close)

    # ----------------------------------------------------------- write path
    async def proxy_write(self, message: dict) -> dict:
        """The server's ``write_proxy`` hook: forward one write op to the
        writer and await its structured reply."""
        if self.degraded or self._stream_writer is None:
            return _degraded_reply()
        self._seq += 1
        seq = self._seq
        future = asyncio.get_running_loop().create_future()
        self._pending[seq] = future
        try:
            await self._send({"type": "write", "seq": seq, "message": message})
        except (ConnectionResetError, BrokenPipeError, OSError):
            self._pending.pop(seq, None)
            self.mark_degraded()
            return _degraded_reply()
        self.proxied_writes += 1
        return await future

    # ---------------------------------------------------------------- stats
    def fleet_stats(self) -> dict:
        """This reader's ``fleet`` stats block (per-process view)."""
        return {
            "role": "reader",
            "reader_id": self.reader_id,
            "pid": os.getpid(),
            "generation": self.generation,
            "swaps_applied": self.swaps_applied,
            "swaps_ignored": self.swaps_ignored,
            "swaps_missed": self.swaps_missed,
            "proxied_writes": self.proxied_writes,
            "degraded": self.degraded,
        }

    async def _stats_loop(self) -> None:
        """Push serving counters to the writer every second — the feed
        behind the writer's fleet-aggregated stats block."""
        while not self.stopping and not self.degraded:
            await asyncio.sleep(1.0)
            server = self.server
            if server is None:
                continue
            try:
                await self._send(
                    {
                        "type": "stats_report",
                        "reader_id": self.reader_id,
                        "stats": {
                            "queries_served": server.batcher.stats.queries_served,
                            "connections_served": server.connections_served,
                            "generation": self.generation,
                            "degraded": self.degraded,
                        },
                    }
                )
            except (ConnectionResetError, BrokenPipeError, OSError):
                return

    # ------------------------------------------------------------- teardown
    async def notify_shutdown(self) -> None:
        """Relay a wire shutdown op to the writer (fleet-wide stop); a
        degraded reader has no one to tell and stops alone."""
        if self.stopping or self.degraded:
            return
        try:
            await self._send({"type": "shutdown", "reader_id": self.reader_id})
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    async def close(self) -> None:
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        writer, self._stream_writer = self._stream_writer, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
        self.attachment.close()


def _degraded_reply() -> dict:
    return {
        "ok": False,
        "error": "writer unavailable (reader is degraded; reads still "
        "serve the last published generation)",
        "degraded": True,
    }


# -------------------------------------------------------------- reader main
def reader_main(config: dict) -> None:
    """Entry point of one spawned reader process.

    ``config`` is the picklable spawn payload: reader identity, shared
    ``host:port``, control socket path, the initial publication
    (generation + :class:`ShmTableHandle` + layout), and the serving
    knobs mirrored from the CLI. Everything heavy — kernel warm-up,
    attach, flattener re-train via ``build_clustered`` — happens here,
    before the event loop exists and before ``ready`` is reported.
    """
    from repro.core.index import FloodIndex
    from repro.core.layout import GridLayout
    from repro.storage.kernels import warmup_kernels
    from repro.storage.shm import SharedMemoryTable

    warmup_kernels()
    layout = GridLayout(
        tuple(config["layout_order"]),
        tuple(int(c) for c in config["layout_columns"]),
    )
    attachment = SharedMemoryTable.attach(config["handle"])
    index = FloodIndex(layout).build_clustered(attachment)
    index.generation = int(config["generation"])
    sock = make_reuseport_socket(config["host"], int(config["port"]))
    try:
        asyncio.run(_reader_serve(config, index, attachment, sock))
    except KeyboardInterrupt:
        pass
    finally:
        sock.close()


async def _reader_serve(config: dict, index, attachment, sock) -> None:
    from repro.core.engine import BatchQueryEngine
    from repro.serve.server import FloodServer

    runtime = ReaderRuntime(config, index, attachment)
    engine = BatchQueryEngine(index, workers=int(config.get("workers", 1)))
    server = FloodServer(
        engine,
        max_batch=int(config.get("max_batch", 64)),
        max_delay=float(config.get("max_delay", 0.002)),
        max_queue_depth=int(config.get("max_queue_depth", 0)),
        max_client_depth=int(config.get("max_client_depth", 0)),
        cache_entries=int(config.get("cache_entries", 0)),
        cache_ttl=float(config.get("cache_ttl", 0.0)),
        sock=sock,
        write_proxy=runtime.proxy_write,
    )
    server.fleet_stats = runtime.fleet_stats
    runtime.server = server
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, server.request_shutdown)
        except (NotImplementedError, RuntimeError, ValueError):
            pass
    await server.start()
    await runtime.connect()
    try:
        await server.serve_until_shutdown()
    finally:
        await runtime.notify_shutdown()
        await server.stop()
        await runtime.close()


# -------------------------------------------------------------- fleet entry
def run_fleet(args, flood, cost_model) -> int:
    """Writer-process body for ``repro serve --readers N``.

    Called by the CLI with the already-built (or recovered) durable
    index. Binds the shared ``SO_REUSEPORT`` socket, publishes the
    initial generation, spawns the readers (``spawn`` context — a forked
    child of a process holding an event loop and flusher threads is not
    safe), serves as the writer, and on shutdown reaps every reader with
    a bounded join.
    """
    from concurrent.futures import ThreadPoolExecutor

    from repro.core.engine import BatchQueryEngine
    from repro.serve.server import FloodServer
    from repro.storage.kernels import warmup_kernels
    from repro.storage.shm import sweep_stale_segments

    swept = sweep_stale_segments()
    if swept:
        print(f"Swept {len(swept)} stale shm segment(s) from a dead fleet")
    sock = make_reuseport_socket(args.host, args.port)
    host, port = sock.getsockname()[:2]
    control_path = os.path.join(args.data_dir, "control.sock")
    if os.path.exists(control_path):
        os.unlink(control_path)

    pool = None
    if args.workers > 1:
        pool = ThreadPoolExecutor(
            max_workers=args.workers, thread_name_prefix="repro-serve"
        )
    engine = BatchQueryEngine(flood, workers=args.workers, executor=pool)
    server = FloodServer(
        engine,
        max_batch=args.max_batch,
        max_delay=args.max_delay_ms / 1e3,
        max_queue_depth=args.max_queue_depth,
        max_client_depth=args.max_client_depth,
        cache_entries=args.cache_entries,
        cache_ttl=args.cache_ttl,
        merge_threshold=args.merge_threshold,
        adaptive=args.adaptive,
        cost_model=cost_model,
        seed=args.seed,
        sock=sock,
    )
    runtime = WriterRuntime(
        server, flood, control_path, expected_readers=args.readers
    )
    server.fleet_stats = runtime.fleet_stats
    if server.mutable is not None:
        server.mutable.on_commit = runtime.publish
    warm = warmup_kernels()
    print(
        f"Scan kernels: {warm['tier']} tier "
        f"(pre-warmed in {warm['seconds'] * 1e3:.0f} ms)"
    )
    generation, handle = runtime.create_initial_publication()
    reader_config = {
        "host": host,
        "port": port,
        "control_path": control_path,
        "generation": generation,
        "handle": handle,
        "layout_order": list(flood.layout.order),
        "layout_columns": list(flood.layout.columns),
        "workers": args.workers,
        "max_batch": args.max_batch,
        "max_delay": args.max_delay_ms / 1e3,
        "max_queue_depth": args.max_queue_depth,
        "max_client_depth": args.max_client_depth,
        "cache_entries": args.cache_entries,
        "cache_ttl": args.cache_ttl,
    }
    ctx = multiprocessing.get_context("spawn")
    procs: list = []

    async def main() -> None:
        await runtime.start()
        await server.start()
        for reader_id in range(args.readers):
            proc = ctx.Process(
                target=reader_main,
                args=({**reader_config, "reader_id": reader_id},),
                name=f"repro-reader-{reader_id}",
                daemon=True,
            )
            proc.start()
            procs.append(proc)
        if not await runtime.wait_ready():
            print(
                f"WARNING: only {len(runtime._ready)}/{args.readers} "
                "reader(s) ready; serving with the fleet that came up",
                file=sys.stderr,
                flush=True,
            )
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, server.request_shutdown)
            except (NotImplementedError, RuntimeError, ValueError):
                pass
        print(
            f"Serving fleet: 1 writer + {args.readers} reader(s) on "
            f"shared port {port} (generation {generation})",
            flush=True,
        )
        # The smoke tests (and scripted clients) parse this exact line;
        # it must come last — parsers stop reading at it.
        print(f"repro-serve listening on {host}:{port}", flush=True)
        try:
            await server.serve_until_shutdown()
        finally:
            await runtime.stop()
            await server.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("\nrepro-serve interrupted")
    finally:
        for proc in procs:
            proc.join(timeout=REAP_TIMEOUT / max(1, len(procs)))
        stragglers = [proc for proc in procs if proc.is_alive()]
        for proc in stragglers:
            proc.terminate()
        for proc in stragglers:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=2.0)
        if pool is not None:
            pool.shutdown()
        if hasattr(flood, "shutdown"):
            flood.shutdown()
        try:
            os.unlink(control_path)
        except OSError:
            pass
        sock.close()
    print("repro-serve stopped")
    return 0
