"""Mutable serving: wire inserts, non-blocking merges, adaptive re-layout.

:class:`MutableController` is the piece that lets ``repro serve`` host a
:class:`~repro.core.delta.DeltaBufferedFlood` as a
*live, writable* system instead of a read-only query server:

- **Inserts** arrive as wire ops and are applied through the batcher's
  write barrier (:meth:`MicroBatcher.submit_write`), so a mutation never
  interleaves with an executor thread scanning the index or the buffer,
  and every query enqueued after the insert's ack observes the row.
- **Merges never block the event loop.** When the buffer crosses
  ``merge_threshold`` (or an explicit ``merge`` op arrives), the new
  clustered table + index is built on an executor thread
  (:meth:`DeltaBufferedFlood.prepare_merge`) while reads keep hitting
  the old index + buffer; the finished index is then swapped in
  atomically through the write barrier
  (:meth:`~repro.core.delta.DeltaBufferedFlood.commit_merge`). Rows
  inserted *during* the merge stay buffered and visible throughout; one
  maintenance job runs at a time.
- **Adaptive re-layout** (``repro serve --adaptive``): the batcher's
  ``on_query_executed`` hook feeds a
  :class:`~repro.core.monitor.WorkloadMonitor`; when the recent window's
  cost exceeds the post-(re)build baseline, the controller learns a
  fresh layout from the window's queries off-loop
  (:meth:`~repro.core.delta.DeltaBufferedFlood.prepare_relayout`) and
  commits it through the same swap path — the paper's Figure 10
  spike-and-recover pattern, live behind the server.

Generation-keyed cache invalidation needs no extra wiring here: every
insert and every swap bumps ``index.generation``, the server folds the
generation into result-cache keys, so a pre-mutation entry can never be
served post-mutation.

Durability composes the same way (``repro serve --data-dir``): when the
served index is a :class:`~repro.core.durable.DurableDeltaFlood`, its
``insert``/``insert_many`` append to the write-ahead log *inside* the
write closure — i.e. before :meth:`MicroBatcher.submit_write` resolves
and therefore strictly before the wire ack — and its ``commit_merge``
rotates the WAL inside the commit barrier. The controller then runs the
heavy half, ``checkpoint()`` (snapshot write + WAL prune), on an
executor thread after the swap, and surfaces a ``durability`` block in
the ``stats`` payload. A non-durable index has no ``checkpoint``
attribute and nothing here changes. Under ``--group-commit`` the write
closure returns a durability ticket instead of blocking on the fsync;
:meth:`MutableController.apply_insert` awaits the ticket before
building the ack, so ordering is identical and only the inserting
coroutine waits.
"""

from __future__ import annotations

import asyncio

from repro.core.monitor import WorkloadMonitor
from repro.core.protocol import mutable_stats, supports_insert
from repro.errors import QueryError
from repro.query.predicate import Query
from repro.query.stats import QueryStats


class MutableController:
    """Owns the mutation lifecycle of one served mutable index.

    Parameters
    ----------
    engine:
        The serving :class:`~repro.core.engine.BatchQueryEngine`; its
        index must satisfy the mutable protocol
        (:func:`repro.core.protocol.supports_insert`).
    batcher:
        The server's :class:`~repro.serve.batcher.MicroBatcher`; writes
        and swaps go through its write barrier.
    merge_threshold:
        Buffered rows that trigger an off-loop merge; ``0`` disables
        automatic merging (explicit ``merge`` ops still work, and
        operators can watch ``buffered_rows`` grow via the ``stats``
        op). The index's own blocking auto-merge is disabled — the
        controller owns the threshold so the rebuild runs off-loop.
    monitor:
        A :class:`~repro.core.monitor.WorkloadMonitor` to enable
        adaptive re-layout (``None`` disables it).
    cost_model:
        Cost model for adaptive re-layout (``None`` = the calibrated
        machine default, resolved lazily off-loop).
    seed:
        Base seed for re-layout optimization (bumped per retrain so
        repeated retrains do not resample identically).
    """

    def __init__(
        self,
        engine,
        batcher,
        merge_threshold: int = 0,
        monitor: WorkloadMonitor | None = None,
        cost_model=None,
        seed: int = 0,
    ):
        if not supports_insert(engine.index):
            raise QueryError(
                f"{type(engine.index).__name__} is read-only; serve a "
                "DeltaBufferedFlood to accept inserts"
            )
        if merge_threshold < 0:
            raise QueryError(
                f"merge_threshold must be >= 0 (0 disables), got {merge_threshold}"
            )
        self.engine = engine
        self.batcher = batcher
        self.index = engine.index
        self.merge_threshold = int(merge_threshold)
        self.monitor = monitor
        self.cost_model = cost_model
        self.seed = int(seed)
        # The controller schedules merges off-loop; a blocking auto-merge
        # inside insert() would stall the event loop for the whole rebuild.
        self.index.merge_threshold = None
        #: Maintenance jobs ('merge' / 'relayout') that raised; surfaced in
        #: stats so silent failure is impossible.
        self.maintenance_failures = 0
        self._maintenance: asyncio.Task | None = None
        #: Fleet hook: awaited after every committed merge/re-layout swap
        #: (the writer process publishes the new generation to readers).
        self.on_commit = None
        if monitor is not None:
            batcher.on_query_executed = self.note_query

    # -------------------------------------------------------------- inserts
    @staticmethod
    def _parse_insert(message: dict) -> dict:
        row = message.get("row")
        if not isinstance(row, dict) or not row:
            raise QueryError("insert needs a non-empty 'row' object")
        return row

    @staticmethod
    def _parse_insert_many(message: dict) -> dict:
        rows = message.get("rows")
        if not isinstance(rows, dict) or not rows:
            raise QueryError(
                "insert_many needs a non-empty 'rows' object (dim -> values)"
            )
        for dim, values in rows.items():
            if not isinstance(values, list) or not values:
                raise QueryError(
                    f"insert_many column {dim!r} must be a non-empty list"
                )
        return rows

    async def apply_insert(self, message: dict) -> dict:
        """Apply a wire ``insert`` / ``insert_many`` op; returns the
        reply payload (structured counters included).

        A group-commit index returns a durability *ticket* from the
        write closure (via :meth:`MicroBatcher.submit_write`, which
        returns the closure's value); the ack is then gated on awaiting
        it — log-before-ack holds with the fsync wait moved off the
        loop, so concurrent queries keep flowing while this coroutine
        (alone) parks on the flusher. Plain indexes return ``None`` and
        keep the original synchronous-append semantics.
        """
        index = self.index
        if message.get("op") == "insert":
            row = self._parse_insert(message)
            inserted = 1

            def write():
                return index.insert(row)
        else:
            rows = self._parse_insert_many(message)
            inserted = len(next(iter(rows.values())))

            def write():
                return index.insert_many(rows)
        ticket = await self.batcher.submit_write(write)
        if ticket is not None:
            await asyncio.wrap_future(ticket)
        self.maybe_schedule_merge()
        return {"inserted": inserted, **self.stats_payload()}

    # --------------------------------------------------------------- merges
    @property
    def merge_running(self) -> bool:
        """Whether a maintenance job (merge or re-layout) is in flight."""
        return self._maintenance is not None and not self._maintenance.done()

    def maybe_schedule_merge(self) -> None:
        """Kick an off-loop merge when the buffer crossed the threshold."""
        if (
            self.merge_threshold
            and self.index.buffered_rows >= self.merge_threshold
        ):
            self.schedule("merge")

    def schedule(self, kind: str, queries=None) -> asyncio.Task:
        """Start (or join) the single in-flight maintenance task."""
        if self.merge_running:
            return self._maintenance
        task = asyncio.get_running_loop().create_task(
            self._run_maintenance(kind, queries)
        )
        self._maintenance = task
        return task

    async def merge_now(self) -> dict:
        """The ``merge`` op: run (or join) a maintenance task — chained
        follow-up merges included — and await its commit."""
        task = self.schedule("merge")
        await asyncio.shield(task)
        return self.stats_payload()

    async def _run_maintenance(self, kind: str, queries=None) -> bool:
        """One maintenance task: run the requested job, then chain
        follow-up merges *inside the task* while inserts that landed
        mid-merge keep the buffer over the threshold.

        Chaining used to live in a done-callback that scheduled a fresh
        task; under adversarial loop scheduling, ``drain()``'s wakeup
        could be ordered before that callback, so shutdown proceeded
        (closing the WAL) while the chained merge was about to start.
        Keeping the chain in-task means ``merge_running`` stays True and
        one ``await self._maintenance`` covers every follow-up. Chains
        stop after a failed run — a persistently-failing merge must not
        spin hot forever.
        """
        ok = await self._run_one(kind, queries)
        while (
            ok
            and self.merge_threshold
            and self.index.buffered_rows >= self.merge_threshold
        ):
            ok = await self._run_one("merge", None)
        return ok

    async def _run_one(self, kind: str, queries=None) -> bool:
        """One merge or re-layout: prepare off-loop, commit via barrier.

        Returns True on success; swallows failures into
        ``maintenance_failures`` — a broken merge must not take the
        serving loop down.
        """
        loop = asyncio.get_running_loop()
        index = self.index
        try:
            if kind == "relayout":
                retrains = getattr(index, "retrains", 0)
                prepared = await loop.run_in_executor(
                    None,
                    lambda: index.prepare_relayout(
                        queries, cost_model=self.cost_model,
                        seed=self.seed + retrains + 1,
                    ),
                )
            else:
                prepared = await loop.run_in_executor(None, index.prepare_merge)
            if prepared is None:
                return True

            def commit():
                index.commit_merge(prepared)
                if self.monitor is not None:
                    # Fresh baseline: "normal" means the new index.
                    self.monitor.reset()

            await self.batcher.submit_write(commit)
            # Durable indexes split their post-commit work: commit_merge
            # rotated the WAL (cheap, inside the barrier above); the
            # snapshot write + segment prune serialize the whole
            # clustered table and fsync, so they run off-loop here. A
            # crash in the gap is safe — the previous snapshot plus the
            # retained WAL segments still cover every row.
            checkpoint = getattr(index, "checkpoint", None)
            if checkpoint is not None:
                await loop.run_in_executor(None, checkpoint)
            if self.on_commit is not None:
                # Fleet publish: copy the new clustered table to shared
                # memory and broadcast the swap. Failure counts as a
                # maintenance failure (readers just keep the previous
                # generation) but never unwinds the committed swap.
                await self.on_commit()
            return True
        except Exception:
            self.maintenance_failures += 1
            return False

    # ------------------------------------------------------------- adaptive
    def note_query(self, query: Query, stats: QueryStats) -> None:
        """Batcher hook: feed the monitor; trigger re-layout on a shift."""
        monitor = self.monitor
        if monitor is None:
            return
        monitor.record(query, stats.total_time)
        if not self.merge_running and monitor.should_retrain():
            self.schedule("relayout", queries=monitor.recent_queries())

    # ---------------------------------------------------------------- stats
    def stats_payload(self) -> dict:
        """The ``stats``-op mutable block (also embedded in insert acks)."""
        payload = {
            **mutable_stats(self.index),
            "merge_threshold": self.merge_threshold,
            "merge_running": self.merge_running,
            "adaptive": self.monitor is not None,
            "maintenance_failures": self.maintenance_failures,
        }
        durability = getattr(self.index, "durability_stats", None)
        if durability is not None:
            payload["durability"] = durability()
        return payload

    async def drain(self) -> None:
        """Await in-flight maintenance (chained follow-up merges run
        inside the same task); server shutdown path."""
        while self._maintenance is not None and not self._maintenance.done():
            try:
                await self._maintenance
            except Exception:
                pass
