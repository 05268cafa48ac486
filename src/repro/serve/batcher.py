"""Micro-batching: coalesce concurrent requests into engine batches.

Serving workloads arrive one query at a time, but the engine is fastest
when fed batches (one worker-pool dispatch per batch).
The :class:`MicroBatcher` bridges the two: awaiting clients put requests
on an asyncio queue; a collector task gathers them into micro-batches
bounded by **size** (``max_batch`` requests dispatch immediately) and
**latency** (the first request in a batch never waits longer than
``max_delay`` seconds), then runs the batch on an executor thread so the
event loop stays responsive. Each request gets back its own visitor
result and :class:`~repro.query.stats.QueryStats`, exactly as if it had
run alone.

Cancellation is per-request: a client abandoning its future (timeout,
disconnect) removes only that request — the rest of the micro-batch is
unaffected.

Two resilience tiers sit in front of the queue:

- **Result caching** — given a :class:`~repro.serve.cache.ResultCache`,
  :meth:`MicroBatcher.submit` answers a repeated ``(query, aggregate)``
  from cache *before enqueueing* (skipping both the scan and the
  micro-batch gather delay) and populates the cache as batches complete.
- **Admission control** — ``max_queue_depth`` bounds the requests
  admitted but not yet resolved; a saturated batcher rejects
  :meth:`submit` with :class:`~repro.errors.OverloadedError` instead of
  letting the queue (and every client's latency) grow without bound.
- **Per-client fairness** — ``max_client_depth`` bounds how many of
  those admitted-but-unresolved requests any *one* client (connection)
  may hold. Without it, a single greedy pipelined client can fill the
  whole global quota and starve every other connection; with it, the
  greedy client's excess is shed (same ``OverloadedError`` / retry
  contract) while other clients' requests still admit.

Mutable serving adds a **write barrier**: :meth:`MicroBatcher.submit_write`
enqueues a mutation that the collector applies only after every batch
dispatched so far has resolved, so writes are strictly serialized
against in-flight query execution (wire ``insert`` ops and merge/layout
swaps both ride this path).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.core.engine import BatchQueryEngine
from repro.errors import OverloadedError, QueryError
from repro.query.predicate import Query
from repro.serve.cache import ResultCache
from repro.storage.visitor import CountVisitor

#: Queue sentinel telling the collector task to exit.
_SHUTDOWN = object()


@dataclass
class _Request:
    """One awaited query: predicate, aggregate, and the future to resolve."""

    query: Query
    visitor_factory: object
    future: asyncio.Future
    cache_key: object = None


@dataclass
class _Write:
    """One awaited mutation: applied only after every in-flight batch
    has resolved (the write barrier), then acked through ``future``."""

    fn: object
    future: asyncio.Future


@dataclass
class BatcherStats:
    """Counters a serving process exposes for observability.

    Running aggregates only — a long-lived server must not accumulate
    per-batch history.
    """

    batches_dispatched: int = 0
    queries_served: int = 0
    queries_cancelled: int = 0
    largest_batch: int = 0
    batched_queries_total: int = 0
    #: Requests shed by admission control (``max_queue_depth`` saturated).
    queries_rejected: int = 0
    #: Requests shed by per-client fairness (``max_client_depth``
    #: saturated for that client while global capacity remained).
    queries_rejected_client: int = 0
    #: Batches whose engine dispatch raised (every member query failed).
    batches_failed: int = 0
    #: Queries resolved with an error (engine failure or a raising
    #: visitor factory) — without these, an all-erroring server would
    #: report healthy-looking counters (nothing served, nothing failed).
    queries_failed: int = 0
    #: Mutations applied through the write barrier (inserts, merge
    #: commits, layout swaps).
    writes_applied: int = 0

    @property
    def mean_batch_size(self) -> float:
        """Average dispatched batch size (0.0 before the first dispatch)."""
        if self.batches_dispatched == 0:
            return 0.0
        return self.batched_queries_total / self.batches_dispatched


class MicroBatcher:
    """Size- and latency-bounded request coalescing over a batch engine.

    Parameters
    ----------
    engine:
        A :class:`~repro.core.engine.BatchQueryEngine` over a built index
        (sharded or not).
    max_batch:
        Dispatch as soon as this many requests have been gathered.
    max_delay:
        Seconds the *first* request of a batch may wait for company; a
        lone request is dispatched after at most this long.
    executor:
        Optional executor for the blocking engine call; ``None`` uses the
        event loop's default thread pool.
    max_queue_depth:
        Admission bound: the maximum number of requests admitted but not
        yet resolved (queued *or* executing). ``0`` (default) means
        unbounded — today's behavior. When saturated, :meth:`submit`
        raises :class:`~repro.errors.OverloadedError` immediately instead
        of enqueueing.
    max_client_depth:
        Per-client fairness bound: the maximum admitted-but-unresolved
        requests any single ``client`` token (one server connection) may
        hold. ``0`` (default) disables the bound. Requests submitted
        without a ``client`` are exempt.
    cache:
        Optional :class:`~repro.serve.cache.ResultCache`; requests
        submitted with a ``cache_key`` are answered from it when possible
        and populate it on completion. ``None`` (default) disables
        caching entirely.

    Attributes
    ----------
    on_query_executed:
        Optional ``(query, stats)`` callback invoked on the event loop
        for every query an engine batch actually executed (cache hits
        excluded — they measure nothing). The adaptive serving mode
        feeds its :class:`~repro.core.monitor.WorkloadMonitor` through
        this hook. Exceptions are swallowed: observability must never
        fail a batch.
    """

    def __init__(
        self,
        engine: BatchQueryEngine,
        max_batch: int = 64,
        max_delay: float = 0.002,
        executor=None,
        max_queue_depth: int = 0,
        max_client_depth: int = 0,
        cache: ResultCache | None = None,
    ):
        if max_batch < 1:
            raise QueryError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay < 0:
            raise QueryError(f"max_delay must be >= 0, got {max_delay}")
        if max_queue_depth < 0:
            raise QueryError(
                f"max_queue_depth must be >= 0 (0 = unbounded), got {max_queue_depth}"
            )
        if max_client_depth < 0:
            raise QueryError(
                f"max_client_depth must be >= 0 (0 = unbounded), got {max_client_depth}"
            )
        self.engine = engine
        self.max_batch = int(max_batch)
        self.max_delay = float(max_delay)
        self.executor = executor
        self.max_queue_depth = int(max_queue_depth)
        self.max_client_depth = int(max_client_depth)
        self.cache = cache
        self.stats = BatcherStats()
        self.on_query_executed = None
        self._queue: asyncio.Queue | None = None
        self._task: asyncio.Task | None = None
        self._dispatches: set[asyncio.Task] = set()
        #: Requests admitted (enqueued) whose futures are not yet done;
        #: the quantity admission control bounds. The raw queue size would
        #: under-count: the collector drains the queue eagerly into
        #: concurrent dispatch tasks, so a slow engine shows up here, not
        #: in ``Queue.qsize()``.
        self._in_flight = 0
        #: client token -> its admitted-but-unresolved request count;
        #: entries are removed when they hit zero, so the dict stays
        #: proportional to *active* clients, not connections ever seen.
        self._client_in_flight: dict = {}

    # ------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Create the queue and the collector task (idempotent)."""
        if self._task is not None:
            return
        self._queue = asyncio.Queue()
        # The queue is passed in, not re-read from self inside the task:
        # stop() claims self._queue to None before its first await, which
        # can happen before the collector task's first step ever runs.
        self._task = asyncio.get_running_loop().create_task(
            self._collect(self._queue)
        )

    async def stop(self) -> None:
        """Drain-stop: finish gathered work, fail still-queued requests.

        Claim-then-await: the task and queue are swapped into locals (and
        ``self._task``/``self._queue`` cleared) *before* the first await,
        so a second concurrent ``stop()`` sees the claimed state and
        returns instead of resuming after this one already tore the
        queue down.
        """
        task, queue = self._task, self._queue
        if task is None:
            return
        self._task = None
        self._queue = None
        await queue.put(_SHUTDOWN)
        await task
        # Anything enqueued after the sentinel cannot be served anymore.
        while not queue.empty():
            item = queue.get_nowait()
            if item is not _SHUTDOWN and not item.future.done():
                item.future.set_exception(QueryError("batcher stopped"))

    @property
    def running(self) -> bool:
        """Whether the collector task is active."""
        return self._task is not None

    # --------------------------------------------------------------- submit
    @property
    def in_flight(self) -> int:
        """Requests admitted but not yet resolved (what admission bounds)."""
        return self._in_flight

    def in_flight_for(self, client) -> int:
        """Admitted-but-unresolved requests held by one client token."""
        return self._client_in_flight.get(client, 0)

    async def submit(
        self,
        query: Query,
        visitor_factory=CountVisitor,
        cache_key=None,
        client=None,
    ):
        """Enqueue one query; await its ``(result, stats)`` pair.

        Parameters
        ----------
        query:
            The range predicate to execute.
        visitor_factory:
            Zero-argument callable building this request's aggregation
            visitor (requests in one micro-batch may use different
            aggregates).
        cache_key:
            Optional identity for result caching (see
            :meth:`~repro.serve.cache.ResultCache.make_key`). Only
            requests carrying a key participate in the cache; ``None``
            (default) always executes. Ignored when the batcher has no
            cache.
        client:
            Optional hashable token identifying the submitting client
            (the server uses one per connection). Only consulted when
            ``max_client_depth`` is set: a client at its quota is shed
            even while global capacity remains, so it cannot starve the
            other clients. Cache hits never count against the quota (they
            consume no engine capacity).

        Returns
        -------
        ``(result, stats)`` — the visitor's aggregate and the query's
        :class:`~repro.query.stats.QueryStats`. A cache hit returns the
        memoized result with a fresh copy of the populating execution's
        stats (the engine's cache-bypass hook).

        Raises
        ------
        OverloadedError
            When ``max_queue_depth`` (or this client's
            ``max_client_depth``) is saturated; the request was never
            enqueued and the caller may retry after backing off.
        """
        if self._task is None:
            raise QueryError("MicroBatcher.submit before start()")
        if self.cache is not None and cache_key is not None:
            hit = self.cache.get(cache_key)
            if hit is not None:
                result, stats = hit
                return result, BatchQueryEngine.replay_stats(stats)
        if self.max_queue_depth and self._in_flight >= self.max_queue_depth:
            self.stats.queries_rejected += 1
            raise OverloadedError(
                f"overloaded: {self._in_flight} requests in flight "
                f"(max_queue_depth={self.max_queue_depth})"
            )
        track_client = client is not None and self.max_client_depth > 0
        if track_client:
            held = self._client_in_flight.get(client, 0)
            if held >= self.max_client_depth:
                self.stats.queries_rejected_client += 1
                raise OverloadedError(
                    f"overloaded: this connection holds {held} requests "
                    f"in flight (max_client_depth={self.max_client_depth})"
                )
        future = asyncio.get_running_loop().create_future()
        self._in_flight += 1
        future.add_done_callback(self._release_admission)
        if track_client:
            self._client_in_flight[client] = (
                self._client_in_flight.get(client, 0) + 1
            )
            future.add_done_callback(
                lambda _future: self._release_client(client)
            )
        await self._queue.put(_Request(query, visitor_factory, future, cache_key))
        return await future

    async def submit_write(self, fn):
        """Apply a mutation serialized against in-flight batches.

        ``fn`` is a zero-argument callable (an insert into the delta
        buffer, a merge commit/swap). The collector executes it **on the
        event loop** only after every batch dispatched so far has
        resolved — so a mutation never interleaves with an executor
        thread reading the index, and every query enqueued after this
        call returns observes the mutation. Keep ``fn`` cheap (buffer
        appends, pointer swaps); heavy work belongs on an executor
        *before* the commit (see ``DeltaBufferedFlood.prepare_merge``).

        Returns ``fn()``'s return value; raises whatever ``fn`` raised,
        or :class:`~repro.errors.QueryError` if the batcher stopped
        before the write was applied. Writes are deliberately exempt
        from admission control: shedding a non-idempotent mutation would
        push retry ambiguity onto every client.
        """
        if self._task is None:
            raise QueryError("MicroBatcher.submit_write before start()")
        future = asyncio.get_running_loop().create_future()
        await self._queue.put(_Write(fn, future))
        return await future

    def _release_admission(self, _future) -> None:
        """Free one admission slot; runs however the request resolves
        (served, failed, cancelled, or drain-failed at stop)."""
        self._in_flight -= 1

    def _release_client(self, client) -> None:
        """Free one of ``client``'s fairness slots (empty counters are
        dropped so idle connections cost nothing)."""
        remaining = self._client_in_flight.get(client, 0) - 1
        if remaining > 0:
            self._client_in_flight[client] = remaining
        else:
            self._client_in_flight.pop(client, None)

    # -------------------------------------------------------------- collect
    async def _collect(self, queue: asyncio.Queue) -> None:
        """Gather requests into bounded micro-batches and dispatch them.

        Dispatch is fired as its own task (the engine runs off-loop
        anyway), so gathering the next batch overlaps the previous batch's
        execution — without this, every gather window would idle the
        engine and a request arriving mid-execution would wait for the
        whole running batch before its own clock even started.
        """
        loop = asyncio.get_running_loop()
        stopping = False
        while not stopping:
            item = await queue.get()
            if item is _SHUTDOWN:
                break
            if isinstance(item, _Write):
                await self._apply_write(item)
                continue
            batch = [item]
            pending_write = None
            deadline = loop.time() + self.max_delay
            while len(batch) < self.max_batch:
                timeout = deadline - loop.time()
                if timeout <= 0:
                    break  # latency bound: the first request has waited enough
                try:
                    item = await asyncio.wait_for(queue.get(), timeout)
                except asyncio.TimeoutError:
                    break
                if item is _SHUTDOWN:
                    stopping = True
                    break
                if isinstance(item, _Write):
                    # A write closes the batch: everything enqueued before
                    # it dispatches first, then the barrier applies it.
                    pending_write = item
                    break
                batch.append(item)
            task = loop.create_task(self._dispatch(batch))
            self._dispatches.add(task)
            task.add_done_callback(self._dispatches.discard)
            if pending_write is not None:
                await self._apply_write(pending_write)
        # Drain-stop: every dispatched batch finishes before stop() returns.
        if self._dispatches:
            await asyncio.gather(*self._dispatches, return_exceptions=True)

    async def _apply_write(self, write: _Write) -> None:
        """The write barrier: drain every dispatched batch, then mutate.

        Runs on the collector (event-loop) coroutine, so no engine batch
        can start between the drain and the mutation — the serialization
        guarantee ``submit_write`` documents. While the barrier waits,
        queued queries simply stay queued; the event loop itself remains
        free (ops like ping/stats still answer inline).
        """
        while self._dispatches:
            await asyncio.gather(*list(self._dispatches), return_exceptions=True)
        try:
            result = write.fn()
        except Exception as exc:  # the write fails alone, never the collector
            if not write.future.done():
                write.future.set_exception(exc)
            return
        self.stats.writes_applied += 1
        if not write.future.done():
            write.future.set_result(result)

    async def _dispatch(self, batch: list[_Request]) -> None:
        """Run one micro-batch on the engine (in a thread) and resolve futures."""
        live: list[_Request] = []
        visitors = []
        for request in batch:
            if request.future.done():
                self.stats.queries_cancelled += 1
                continue
            try:
                visitor = request.visitor_factory()
            except Exception as exc:
                # A raising factory fails its own request only — never the
                # batchmates, and never the collector task.
                request.future.set_exception(exc)
                self.stats.queries_failed += 1
                continue
            live.append(request)
            visitors.append(visitor)
        if not live:
            return
        queries = [r.query for r in live]
        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(
                self.executor,
                lambda: self.engine.run(queries, visitors=visitors),
            )
        except Exception as exc:  # resolve every waiter, never hang a client
            self.stats.batches_failed += 1
            self.stats.queries_failed += len(live)
            for request in live:
                if not request.future.done():
                    request.future.set_exception(exc)
            return
        self.stats.batches_dispatched += 1
        self.stats.largest_batch = max(self.stats.largest_batch, len(live))
        self.stats.batched_queries_total += len(live)
        for request, visitor, stats in zip(live, result.visitors, result.stats):
            if self.cache is not None and request.cache_key is not None:
                # Populate even for a request cancelled mid-batch: the
                # work is done, and the next identical request reuses it.
                # Stored stats are a private copy so no caller can mutate
                # a cache entry through the stats it was handed.
                self.cache.put(
                    request.cache_key,
                    (visitor.result, BatchQueryEngine.replay_stats(stats)),
                )
            if not request.future.done():  # cancelled while the batch ran
                request.future.set_result((visitor.result, stats))
                self.stats.queries_served += 1
            else:
                self.stats.queries_cancelled += 1
            if self.on_query_executed is not None:
                try:
                    self.on_query_executed(request.query, stats)
                except Exception:
                    pass  # observability hook; never fails the batch
