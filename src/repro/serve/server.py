"""The JSON-lines TCP server: concurrent clients over one engine.

A deliberately thin front-end (in the spirit of serving layers over
embedded engines): newline-delimited JSON over TCP, no framing library,
no external dependencies. Every connection is an asyncio task; every
query request flows through the shared :class:`MicroBatcher`, so queries
arriving concurrently — from one pipelining client or many — are served
as engine micro-batches.

Wire protocol (one JSON object per line, in either direction):

- Query: ``{"id": 1, "ranges": {"x": [0, 100]}, "agg": "count"}`` —
  ``agg`` is one of ``count`` / ``sum`` / ``avg`` / ``min`` / ``max``
  (all but ``count`` need ``"dim"``), default ``count``.
  Reply: ``{"id": 1, "ok": true, "result": 42, "stats": {...}}`` with the
  paper's per-query counters under ``stats``.
- Ops: ``{"op": "ping"}`` (liveness), ``{"op": "stats"}`` (server +
  batcher + cache counters), ``{"op": "shutdown"}`` (graceful stop; used
  by the smoke tests and the demo client).
- Writes (mutable index only, i.e. a served
  :class:`~repro.core.delta.DeltaBufferedFlood`):
  ``{"id": 2, "op": "insert", "row": {"x": 1, "y": 2}}`` buffers one
  row; ``{"id": 3, "op": "insert_many", "rows": {"x": [1, 2], "y":
  [3, 4]}}`` a column-oriented batch; ``{"id": 4, "op": "merge"}``
  forces (or joins) an off-loop merge and acks after its commit.
  Replies carry the structured counters ``{"ok": true, "inserted": 1,
  "buffered_rows": 5, "generation": 7, "merges": 0, ...}``. Writes are
  serialized against in-flight query batches by the batcher's write
  barrier, so an acked insert is visible to every later query on any
  connection, and generation-keyed caching makes a stale hit
  impossible. On a read-only index these ops get an error reply.
- Errors: ``{"id": ..., "ok": false, "error": "..."}``; malformed JSON
  gets an error reply and the connection stays open.
- Overload: when admission control sheds a request the reply is the
  structured ``{"id": ..., "ok": false, "error": "overloaded",
  "retry": true}`` — ``retry: true`` is the contract telling clients the
  request is safe to resend after backing off.

Replies are strict RFC 8259 JSON: encoding uses ``allow_nan=False`` and
any non-finite aggregate (no such value exists today, but the contract is
enforced, not assumed) is mapped to ``null`` before encoding. Inbound
``Infinity``/``NaN`` literals — which Python's ``json`` accepts by
default — are rejected as bad JSON rather than smuggled into query
bounds.
"""

from __future__ import annotations

import asyncio
from dataclasses import asdict

from repro.core.engine import BatchQueryEngine
from repro.core.monitor import WorkloadMonitor
from repro.core.protocol import supports_insert
from repro.errors import DurabilityError, OverloadedError, QueryError, ReproError
from repro.jsonutil import dumps_strict, loads_strict
from repro.query.predicate import Query
from repro.serve.batcher import MicroBatcher
from repro.serve.cache import ResultCache
from repro.serve.mutable import MutableController
from repro.storage.kernels import stats_payload as kernel_stats_payload
from repro.storage.visitor import (
    AvgVisitor,
    CountVisitor,
    MaxVisitor,
    MinVisitor,
    SumVisitor,
)

#: Aggregate name -> (visitor class, needs a dimension argument).
_AGGREGATES = {
    "count": (CountVisitor, False),
    "sum": (SumVisitor, True),
    "avg": (AvgVisitor, True),
    "min": (MinVisitor, True),
    "max": (MaxVisitor, True),
}


def visitor_factory_for(agg: str, dim: str | None = None):
    """A zero-argument visitor factory for an aggregate spec.

    Parameters
    ----------
    agg:
        Aggregate name: ``count`` / ``sum`` / ``avg`` / ``min`` / ``max``.
    dim:
        Aggregated dimension; required for everything but ``count``.
    """
    try:
        cls, needs_dim = _AGGREGATES[agg]
    except KeyError:
        raise QueryError(
            f"unknown aggregate {agg!r}; use one of {sorted(_AGGREGATES)}"
        ) from None
    if needs_dim:
        if not dim:
            raise QueryError(f"aggregate {agg!r} needs a 'dim'")
        return lambda: cls(dim)
    return cls


class FloodServer:
    """Serve a built index to concurrent TCP clients via micro-batches.

    Parameters
    ----------
    engine:
        The batch engine to dispatch through (its index may be sharded,
        giving each query intra-query parallelism on top of batching).
    host / port:
        Listen address; ``port=0`` picks a free port (see
        :attr:`address` after :meth:`start`).
    max_batch / max_delay:
        Micro-batch bounds, passed to :class:`MicroBatcher`.
    max_queue_depth:
        Admission bound on requests in flight; ``0`` (default) is
        unbounded. Saturation produces the structured ``overloaded``
        reply instead of unbounded queueing.
    max_client_depth:
        Per-connection fairness bound: in-flight requests one connection
        may hold before *its* excess is shed (same ``overloaded`` +
        ``retry`` reply), so a greedy pipelined client cannot monopolize
        ``max_queue_depth``. ``0`` (default) disables the bound.
    cache_entries / cache_ttl:
        Result-cache capacity and per-entry lifetime (seconds;
        ``cache_ttl=0`` means entries never expire). ``cache_entries=0``
        (default) disables caching — wire behavior is then identical to a
        cacheless server.
    merge_threshold:
        Buffered rows that trigger an off-loop merge of the served
        mutable index (``0`` = never merge automatically; the ``merge``
        op still works). Requires a mutable index.
    adaptive:
        Enable workload-shift adaptation: ``True`` (default monitor), a
        configured :class:`~repro.core.monitor.WorkloadMonitor`, or
        ``False`` (off). When the monitor signals, a fresh layout is
        learned off-loop from the recent-query window and swapped in
        atomically. Requires a mutable index.
    cost_model / seed:
        Cost model and base seed for adaptive re-layout.
    sock:
        Pre-bound listening socket to serve on instead of ``host``/
        ``port`` — the fleet binds one ``SO_REUSEPORT`` socket per
        process so the kernel distributes connections across them.
    write_proxy:
        Fleet-reader hook: an async callable ``(message) -> reply dict``
        that forwards a write op to the writer process. Used only when
        the server hosts no mutable index of its own; ``None`` (default)
        keeps the read-only error reply.
    """

    def __init__(
        self,
        engine: BatchQueryEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = 64,
        max_delay: float = 0.002,
        max_queue_depth: int = 0,
        max_client_depth: int = 0,
        cache_entries: int = 0,
        cache_ttl: float = 0.0,
        merge_threshold: int = 0,
        adaptive: bool | WorkloadMonitor = False,
        cost_model=None,
        seed: int = 0,
        sock=None,
        write_proxy=None,
    ):
        if cache_entries < 0:
            raise QueryError(
                f"cache_entries must be >= 0 (0 disables), got {cache_entries}"
            )
        self.engine = engine
        self.host = host
        self.port = int(port)
        cache = ResultCache(cache_entries, ttl=cache_ttl) if cache_entries else None
        self.batcher = MicroBatcher(
            engine,
            max_batch=max_batch,
            max_delay=max_delay,
            max_queue_depth=max_queue_depth,
            max_client_depth=max_client_depth,
            cache=cache,
        )
        mutable = supports_insert(engine.index)
        if (merge_threshold or adaptive) and not mutable:
            raise QueryError(
                "merge_threshold/adaptive need a mutable index "
                "(DeltaBufferedFlood); got "
                f"{type(engine.index).__name__}"
            )
        self.mutable: MutableController | None = None
        if mutable:
            monitor = None
            if adaptive:
                monitor = (
                    adaptive
                    if isinstance(adaptive, WorkloadMonitor)
                    else WorkloadMonitor()
                )
            self.mutable = MutableController(
                engine,
                self.batcher,
                merge_threshold=merge_threshold,
                monitor=monitor,
                cost_model=cost_model,
                seed=seed,
            )
        self.connections_served = 0
        self._sock = sock
        self.write_proxy = write_proxy
        #: Fleet hook: zero-arg callable returning the ``fleet`` stats
        #: block (process role, fleet-aggregated counters); set by
        #: :mod:`repro.serve.fleet`, ``None`` outside a fleet.
        self.fleet_stats = None
        self._server: asyncio.AbstractServer | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._shutdown = asyncio.Event()

    # ------------------------------------------------------------- lifecycle
    async def start(self) -> tuple[str, int]:
        """Bind the socket and start the batcher; returns ``(host, port)``."""
        await self.batcher.start()
        if self._sock is not None:
            self._server = await asyncio.start_server(
                self._handle_connection, sock=self._sock
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port
            )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self.host, self.port

    async def stop(self) -> None:
        """Stop accepting, close the listener and connections, drain the batcher.

        The listener is claimed into a local (and ``self._server``
        cleared) before the first await: a second concurrent ``stop()``
        — say a client shutdown op racing serve_until_shutdown — must
        not re-close the server or double-drain the controller after
        this call already suspended in ``wait_closed()``.
        """
        server, self._server = self._server, None
        if server is not None:
            server.close()
            # Close established connections too: their handlers sit in
            # readline(), and (on 3.12.1+) wait_closed() waits for every
            # handler — an idle client must not block shutdown forever.
            for writer in list(self._writers):
                writer.close()
            await server.wait_closed()
        if self.mutable is not None:
            # Let an in-flight merge commit (the batcher is still running
            # here, so its barrier write can land) instead of abandoning
            # the built index.
            await self.mutable.drain()
        await self.batcher.stop()
        self._shutdown.set()

    async def serve_until_shutdown(self) -> None:
        """Block until a client sends ``{"op": "shutdown"}`` (or
        :meth:`stop` is called), then shut down cleanly."""
        await self._shutdown.wait()
        if self._server is not None:
            await self.stop()

    def request_shutdown(self) -> None:
        """Trip the shutdown event (signal handlers, fleet stop frames);
        ``serve_until_shutdown`` then runs the full graceful stop."""
        self._shutdown.set()

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (final port known after start)."""
        return self.host, self.port

    # ------------------------------------------------------------ connection
    async def _handle_connection(self, reader, writer) -> None:
        """One task per connection, one sub-task per in-flight query.

        The read loop never awaits a query's completion — each query is
        served in its own task and replies go out as they finish (matched
        by ``id``), so a pipelining client's concurrent requests actually
        reach the micro-batcher together. Ops (ping / stats / shutdown)
        are answered inline; a client disconnect cancels that connection's
        in-flight requests (the batcher drops their futures mid-batch).
        """
        self.connections_served += 1
        self._writers.add(writer)
        write_lock = asyncio.Lock()
        in_flight: set[asyncio.Task] = set()
        # The fairness token: one per connection, compared by identity,
        # so max_client_depth bounds each connection independently.
        client_token = object()

        async def send(data: bytes) -> None:
            async with write_lock:
                writer.write(data)
                await writer.drain()

        async def serve_query(message: dict) -> None:
            await send(await self._handle_request(message, client_token))

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break  # client closed
                inline_reply, closing, message = self._parse_line(line)
                if inline_reply is not None:
                    if closing:
                        # Shutdown: flush this connection's in-flight
                        # queries first (drain, don't drop), ack, and only
                        # then trip the event so the client never hangs.
                        await asyncio.gather(*in_flight, return_exceptions=True)
                        await send(inline_reply)
                        self._shutdown.set()
                        break
                    await send(inline_reply)
                    continue
                task = asyncio.get_running_loop().create_task(
                    serve_query(message)
                )
                in_flight.add(task)
                task.add_done_callback(in_flight.discard)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client vanished mid-reply; nothing to clean up
        finally:
            self._writers.discard(writer)
            for task in in_flight:
                task.cancel()
            await asyncio.gather(*in_flight, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _parse_line(self, line: bytes):
        """One request line -> ``(inline_reply, close?, message)``.

        Observability ops and malformed requests produce an immediate
        ``inline_reply`` — deliberately *ahead* of the batcher, so ping
        and stats answer even while the queue is saturated or a merge is
        committing. Query and write requests return ``(None, False,
        message)`` for the caller to serve concurrently.
        """
        try:
            # Python's json accepts Infinity/NaN literals by default;
            # those are not JSON, and letting them through would turn
            # into OverflowErrors deep inside query construction.
            message = loads_strict(line)
        except ValueError as exc:  # JSONDecodeError is a ValueError
            return _encode({"ok": False, "error": f"bad JSON: {exc}"}), False, None
        if not isinstance(message, dict):
            return (
                _encode({"ok": False, "error": "request must be a JSON object"}),
                False,
                None,
            )
        op = message.get("op")
        if op == "ping":
            return _encode({"ok": True, "pong": True}), False, None
        if op == "stats":
            return _encode({"ok": True, **self._stats_payload()}), False, None
        if op == "shutdown":
            # serve_until_shutdown (or whoever awaits the event) performs
            # the actual stop once the connection handler trips it.
            return _encode({"ok": True, "stopping": True}), True, None
        return None, False, message

    async def _handle_request(self, message: dict, client=None) -> bytes:
        """One concurrent request: a query, or a write op on a mutable index."""
        if message.get("op") in ("insert", "insert_many", "merge"):
            return await self._handle_write(message)
        return await self._handle_query(message, client)

    async def _handle_write(self, message: dict) -> bytes:
        """One write op. Ack ordering is the durability contract: the
        ``ok: true`` reply is only built after ``apply_insert`` resolves,
        which in turn resolves only after the write closure — WAL append
        first, buffer apply second for a durable index — ran to
        completion inside the batcher's write barrier. A client holding
        an ack therefore holds a logged row (the ``durability-ack``
        rule of ``repro check`` pins this ordering statically)."""
        request_id = message.get("id")
        if self.mutable is None and self.write_proxy is not None:
            # Fleet reader: forward to the writer process (single-writer
            # invariant — only the writer's barrier mutates), relay its
            # structured reply under this request's id.
            try:
                reply = dict(await self.write_proxy(message))
            except Exception as exc:  # proxy must never hang a client
                reply = {"ok": False, "error": f"write proxy failed: {exc}"}
            reply["id"] = request_id
            return _encode(reply)
        reply = await self.handle_write_message(message)
        reply["id"] = request_id
        return _encode(reply)

    async def handle_write_message(self, message: dict) -> dict:
        """One write op as a reply dict (no ``id``): shared by the wire
        path above and the fleet writer's control channel, so proxied
        writes get byte-identical semantics and error structure."""
        try:
            if self.mutable is None:
                raise QueryError(
                    f"op {message.get('op')!r} needs a mutable index; this "
                    "server hosts a read-only one (serve a DeltaBufferedFlood)"
                )
            if message["op"] == "merge":
                payload = await self.mutable.merge_now()
            else:
                payload = await self.mutable.apply_insert(message)
        except DurabilityError as exc:
            # Structured, never silent: the row was NOT applied and must
            # not be retried against a log that is now fail-stop.
            return {"ok": False, "error": str(exc), "durability": True}
        except (ReproError, TypeError, ValueError, OverflowError) as exc:
            return {"ok": False, "error": str(exc)}
        except Exception as exc:  # last resort: an error reply beats a hang
            return {"ok": False, "error": f"internal error: {exc}"}
        return {"ok": True, **payload}

    async def _handle_query(self, message: dict, client=None) -> bytes:
        request_id = message.get("id")
        try:
            ranges = message.get("ranges")
            if not isinstance(ranges, dict) or not ranges:
                raise QueryError("query needs a non-empty 'ranges' object")
            query = Query({dim: tuple(bounds) for dim, bounds in ranges.items()})
            agg = message.get("agg", "count")
            agg_dim = message.get("dim")
            if agg_dim is not None and agg_dim not in self.engine.index.table:
                # Validate at the edge: an unknown aggregate dimension must
                # fail THIS request, not blow up inside the engine and take
                # the whole micro-batch's futures down with it.
                raise QueryError(f"unknown aggregate dimension {agg_dim!r}")
            factory = visitor_factory_for(agg, agg_dim)
            cache_key = (
                ResultCache.make_key(
                    query,
                    agg,
                    agg_dim,
                    # Mutable indexes bump generation on insert/merge, so
                    # a cached pre-mutation reply can never match again.
                    generation=getattr(self.engine.index, "generation", 0),
                )
                if self.batcher.cache is not None
                else None
            )
            result, stats = await self.batcher.submit(
                query, factory, cache_key, client=client
            )
        except OverloadedError:
            # The structured shed-load contract: exactly this error string
            # plus retry:true, so generic clients can back off and resend.
            return _encode(
                {"id": request_id, "ok": False, "error": "overloaded", "retry": True}
            )
        except (ReproError, TypeError, ValueError, OverflowError) as exc:
            # OverflowError: int(float("inf")) from bounds like 1e999 that
            # parse to non-finite floats without an Infinity literal.
            return _encode({"id": request_id, "ok": False, "error": str(exc)})
        except Exception as exc:  # last resort: an error reply beats a hang
            return _encode(
                {"id": request_id, "ok": False, "error": f"internal error: {exc}"}
            )
        return _encode(
            {"id": request_id, "ok": True, "result": result, "stats": asdict(stats)}
        )

    def _stats_payload(self) -> dict:
        batcher = self.batcher.stats
        payload = {
            "connections_served": self.connections_served,
            "batches_dispatched": batcher.batches_dispatched,
            "queries_served": batcher.queries_served,
            "queries_cancelled": batcher.queries_cancelled,
            "largest_batch": batcher.largest_batch,
            "mean_batch_size": batcher.mean_batch_size,
            "queries_rejected": batcher.queries_rejected,
            "queries_rejected_client": batcher.queries_rejected_client,
            "batches_failed": batcher.batches_failed,
            "queries_failed": batcher.queries_failed,
            "writes_applied": batcher.writes_applied,
            "in_flight": self.batcher.in_flight,
            "max_queue_depth": self.batcher.max_queue_depth,
            "max_client_depth": self.batcher.max_client_depth,
        }
        if self.batcher.cache is not None:
            payload["cache"] = self.batcher.cache.stats_payload()
        if self.mutable is not None:
            payload["mutable"] = self.mutable.stats_payload()
        # Which scan path serves this process, its fusion counters and the
        # startup warm-up cost.
        payload["kernel"] = kernel_stats_payload()
        if self.fleet_stats is not None:
            payload["fleet"] = self.fleet_stats()
        return payload


def _encode(payload: dict) -> bytes:
    return (dumps_strict(payload) + "\n").encode()
