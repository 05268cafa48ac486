"""Durable mutable serving: WAL + snapshots around the delta buffer.

:class:`DurableDeltaFlood` wraps a
:class:`~repro.core.delta.DeltaBufferedFlood` and
implements the PR-5 :class:`~repro.core.protocol.MutableIndex` protocol,
so the whole engine/batcher/server stack serves it unchanged — but every
acknowledged insert now survives a crash:

- **Log before ack.** :meth:`insert` / :meth:`insert_many` validate
  and coerce the row or batch
  (:meth:`~repro.core.delta.DeltaBufferedFlood.coerce_rows`), then
  append exactly those column arrays as a framed record to the
  :class:`~repro.storage.wal.WriteAheadLog` *before* buffering them.
  The method only returns (and the wire ack only goes out) once the
  record is at least in the kernel (``fsync`` policy ``batch``/``never``)
  or on stable storage (``always``). A rejected value raises
  :class:`~repro.errors.SchemaError` with neither the log nor the buffer
  touched; a WAL failure raises a structured
  :class:`~repro.errors.DurabilityError` and leaves the buffer
  untouched — the client is never acked for a row the log may not hold.
- **Checkpoint after merge.** :meth:`commit_merge` swaps the prepared
  index in (cheap, runs through the serving write barrier), rotates the
  WAL to a fresh segment, and captures an immutable checkpoint state;
  :meth:`checkpoint` — run *off* the event loop by the serving layer —
  then writes the atomic snapshot and prunes every WAL segment the
  snapshot covers. Rows inserted mid-merge sit in the pre-rotation
  segment and are retained until a later checkpoint covers them.
- **Warm restart.** :meth:`open` loads the snapshot (clustered table +
  learned layout + counters), rebuilds the inner index from it — no
  dataset regeneration, no layout re-learning — and replays the WAL
  tail into the delta buffer. Replay filters on each record's absolute
  ``row_start`` against the snapshot's ``rows_merged_total``, so
  already-merged rows are skipped exactly, even when a merge boundary
  split a batch record in half. Recovery never writes new log records
  (beyond repairing a torn tail), which is what makes it idempotent:
  crash *during* recovery, recover again, same index.

Failure ordering note: the WAL append precedes the buffer apply, so the
only possible divergence is a logged-but-unacked row (append succeeded,
ack never sent because the process died first). Recovery resurrects such
rows — "every acknowledged insert survives" holds with recovered ⊇
acked, the only side clients can reason about.

Latency note: with ``group_commit=False`` (the default for library
use), WAL appends run synchronously inside the serving write barrier on
the event loop — including the per-insert ``fsync`` under the
``always`` policy — so every concurrent query stalls for the duration
of each disk sync; ``batch`` bounds the stall to a kernel-buffer flush.
With ``group_commit=True`` (``repro serve --group-commit``) appends go
through a :class:`~repro.storage.wal.GroupCommitLog` instead: the frame
is queued, :meth:`insert` returns a *ticket*
(:class:`concurrent.futures.Future`), and a flusher thread fsyncs once
per micro-batch off the loop, resolving tickets only after their batch
is durable. The serving layer awaits the ticket before acking, so the
log-before-ack contract is unchanged — what moves off the loop is the
wait, not the ordering. The one new divergence class this admits: a row
applied to the buffer whose ticket later fails (or never resolves
before a crash) was *visible to queries but never acked* — recovered ⊇
acked still holds, which is the only side clients can reason about.
"""

from __future__ import annotations

import os
import time

from repro.core.delta import DeltaBufferedFlood, PreparedMerge
from repro.core.layout import GridLayout
from repro.errors import DurabilityError
from repro.query.predicate import Query
from repro.query.stats import QueryStats
from repro.storage.snapshot import (
    has_snapshot,
    load_snapshot,
    write_snapshot,
)
from repro.storage.table import Table
from repro.storage.visitor import Visitor
from repro.storage.wal import (
    KIND_INSERT,
    KIND_INSERT_MANY,
    GroupCommitLog,
    StorageIO,
    WriteAheadLog,
    list_segments,
    scan_records,
)


class DurableDeltaFlood:
    """A delta-buffered Flood index whose inserts survive crashes.

    Parameters
    ----------
    layout:
        Grid layout for the inner index (ignored by :meth:`open`, which
        restores the layout from the snapshot).
    data_dir:
        Directory holding ``snapshot.bin`` + ``wal-*.log``; created by
        :meth:`build` if missing.
    fsync:
        WAL durability policy: ``always`` / ``batch`` / ``never`` (see
        :mod:`repro.storage.wal`).
    merge_threshold:
        Auto-merge (blocking, library use) once the buffer holds this
        many rows; ``None``/``0`` disables — the serving layer disables
        it and runs merges off-loop through its own threshold.
    group_commit:
        Route appends through a :class:`~repro.storage.wal.GroupCommitLog`:
        :meth:`insert` / :meth:`insert_many` then return a ticket
        (:class:`concurrent.futures.Future`) that resolves once the
        row's micro-batch is fsynced — the caller must gate acks on it.
        ``False`` (default) keeps the inline synchronous append.
    io:
        The :class:`~repro.storage.wal.StorageIO` seam; the fault-
        injection tests substitute a failing implementation.
    delta_kwargs:
        Flood kwargs passed through to
        :class:`~repro.core.delta.DeltaBufferedFlood`.
    """

    name = "Flood-delta-durable"

    def __init__(
        self,
        layout: GridLayout,
        data_dir: str,
        fsync: str = "batch",
        merge_threshold: int | None = 4096,
        group_commit: bool = False,
        io: StorageIO | None = None,
        **delta_kwargs,
    ):
        self._delta = DeltaBufferedFlood(
            layout, merge_threshold=None, **delta_kwargs
        )
        self.data_dir = str(data_dir)
        self.fsync = fsync
        self.merge_threshold = merge_threshold
        self.group_commit = bool(group_commit)
        self._io = io or StorageIO()
        self._wal: WriteAheadLog | GroupCommitLog | None = None
        #: Rows ever appended to the WAL (the next record's row_start).
        self._rows_logged = 0
        #: Rows (cumulative) folded into the clustered table by merges.
        self._rows_merged_total = 0
        #: Immutable state captured at the last commit, awaiting its
        #: snapshot; written and cleared by :meth:`checkpoint`.
        self._checkpoint_state: dict | None = None
        self.checkpoints = 0
        self.last_checkpoint_seconds = 0.0
        self.recovered = False
        self.recovered_rows = 0
        self.recovery_clean = True
        self.recovery_reason: str | None = None

    def _make_wal(self) -> WriteAheadLog | GroupCommitLog:
        wal = WriteAheadLog(self.data_dir, fsync=self.fsync, io=self._io)
        return GroupCommitLog(wal) if self.group_commit else wal

    # ------------------------------------------------------------------ build
    @staticmethod
    def has_state(data_dir: str) -> bool:
        """Whether ``data_dir`` holds a recoverable snapshot."""
        return has_snapshot(data_dir)

    def build(self, table: Table) -> "DurableDeltaFlood":
        """Build fresh over ``table`` and persist the initial snapshot.

        Refuses a data dir that already holds a snapshot (use
        :meth:`open`) or WAL segments with logged rows — overwriting
        either would silently drop durable data.
        """
        if has_snapshot(self.data_dir):
            raise DurabilityError(
                f"{self.data_dir} already holds a snapshot; open() it "
                "instead of build()ing over it"
            )
        os.makedirs(self.data_dir, exist_ok=True)
        # Persist the data_dir entry itself: without fsyncing the parent
        # directory, a crash after build() returns can lose the whole
        # directory — snapshot, WAL, and the acks they back.
        parent = os.path.dirname(os.path.abspath(self.data_dir))
        self._io.fsync_dir(parent)
        for _, path in list_segments(self.data_dir):
            # Leftovers from a crash before the initial snapshot landed
            # hold no inserts (build is synchronous before serving) —
            # but verify that before deleting anything.
            with self._io.open(path, "rb") as handle:
                result = scan_records(handle.read())
            if any(record.rows for record in result.records):
                raise DurabilityError(
                    f"{self.data_dir} has WAL segments with logged rows "
                    "but no snapshot; refusing to build over possible "
                    "data loss (inspect or clear the directory first)"
                )
            self._io.remove(path)
        self._delta.build(table)
        self._wal = self._make_wal()
        # The initial snapshot: a crash at any later point recovers warm
        # (snapshot + WAL tail) instead of re-learning from the dataset.
        write_snapshot(
            self.data_dir,
            table=self._delta.table,
            layout=self._delta.layout,
            generation=self._delta.generation,
            merges=self._delta.merges,
            retrains=self._delta.retrains,
            rows_merged_total=0,
            io=self._io,
        )
        self.checkpoints += 1
        return self

    @classmethod
    def open(
        cls,
        data_dir: str,
        fsync: str = "batch",
        merge_threshold: int | None = 4096,
        group_commit: bool = False,
        io: StorageIO | None = None,
        **delta_kwargs,
    ) -> "DurableDeltaFlood":
        """Recover a warm index: snapshot + WAL-tail replay.

        Read-only with respect to durable state (modulo torn-tail
        repair), so recovery is idempotent — opening the same directory
        twice yields the same generation and row count.
        """
        snap = load_snapshot(data_dir, io=io)
        if snap is None:
            raise DurabilityError(
                f"{data_dir} holds no snapshot; build() a fresh index "
                "(or check the path)"
            )
        layout = GridLayout(snap.layout_order, snap.layout_columns)
        self = cls(
            layout,
            data_dir,
            fsync=fsync,
            merge_threshold=merge_threshold,
            group_commit=group_commit,
            io=io,
            **delta_kwargs,
        )
        inner = self._delta
        inner.build(Table(snap.columns, compress=snap.compressed))
        inner.generation = snap.generation
        inner.merges = snap.merges
        inner.retrains = snap.retrains
        self._rows_merged_total = snap.rows_merged_total
        self._wal = self._make_wal()
        self.recovery_clean = self._wal.recovery_clean
        self.recovery_reason = self._wal.recovery_reason
        base = snap.rows_merged_total
        replayed = 0
        for record in self._wal.recovered:
            if not record.rows or record.row_end <= base:
                continue  # truncate marker, or fully merged already
            skip = max(0, base - record.row_start)
            rows = (
                {dim: values[skip:] for dim, values in record.rows.items()}
                if skip
                else record.rows
            )
            if record.kind == KIND_INSERT and not skip:
                inner.insert(
                    {dim: values[0] for dim, values in rows.items()}
                )
            else:
                inner.insert_many(rows)
            replayed += record.row_end - record.row_start - skip
        self._rows_logged = max(self._wal.next_row, base)
        self.recovered = True
        self.recovered_rows = replayed
        return self

    # ------------------------------------------------------------ delegation
    @property
    def table(self) -> Table:
        return self._delta.table

    @property
    def index(self):
        """The current inner clustered index (replaced by every merge)."""
        return self._delta.index

    @property
    def layout(self) -> GridLayout:
        return self._delta.layout

    @property
    def generation(self) -> int:
        return self._delta.generation

    @property
    def merges(self) -> int:
        return self._delta.merges

    @property
    def retrains(self) -> int:
        return self._delta.retrains

    @property
    def last_merge_seconds(self) -> float:
        return self._delta.last_merge_seconds

    @property
    def buffered_rows(self) -> int:
        return self._delta.buffered_rows

    def query(self, query: Query, visitor: Visitor) -> QueryStats:
        return self._delta.query(query, visitor)

    def query_percell(self, query: Query, visitor: Visitor) -> QueryStats:
        return self._delta.query_percell(query, visitor)

    def size_bytes(self) -> int:
        return self._delta.size_bytes()

    # ----------------------------------------------------------------- insert
    def _require_wal(self) -> WriteAheadLog | GroupCommitLog:
        if self._wal is None:
            raise DurabilityError(
                f"{self.name} used before build()/open() attached its WAL"
            )
        return self._wal

    def _log(self, kind: int, cols: dict, row_start: int):
        """One record into the log. Inline mode appends (and syncs per
        policy) right here and returns ``None``; group-commit mode
        enqueues and returns the durability ticket — unless the ticket
        already failed (closed/fail-stopped log), which re-raises so the
        row is never applied, matching the inline failure contract."""
        wal = self._require_wal()
        if isinstance(wal, GroupCommitLog):
            ticket = wal.append_deferred(kind, cols, row_start)
            if ticket.done() and ticket.exception() is not None:
                raise ticket.exception()
            return ticket
        wal.append(kind, cols, row_start)
        return None

    def insert(self, row: dict):
        """WAL-log one row, then buffer it. Inline mode raises
        :class:`~repro.errors.DurabilityError` (row NOT applied, NOT to
        be acked) if the log write fails and returns ``None`` once the
        row is durable per policy; group-commit mode returns the
        durability ticket — the caller must await it before acking."""
        self._require_wal()
        cols = self._delta.coerce_rows(row, batch=False)
        ticket = self._log(KIND_INSERT, cols, self._rows_logged)
        self._rows_logged += 1
        self._delta.append_coerced(cols)
        self._maybe_auto_merge()
        return ticket

    def insert_many(self, rows: dict):
        """WAL-log a column-oriented batch, then buffer it; same return
        contract as :meth:`insert`."""
        self._require_wal()
        cols = self._delta.coerce_rows(rows, batch=True)
        ticket = self._log(KIND_INSERT_MANY, cols, self._rows_logged)
        self._rows_logged += len(next(iter(cols.values())))
        self._delta.append_coerced(cols)
        self._maybe_auto_merge()
        return ticket

    def _maybe_auto_merge(self) -> None:
        if (
            self.merge_threshold is not None
            and self.merge_threshold > 0
            and self.buffered_rows >= self.merge_threshold
        ):
            self.merge()

    # ------------------------------------------------------------------ merge
    def prepare_merge(self) -> PreparedMerge | None:
        return self._delta.prepare_merge()

    def prepare_relayout(self, queries, cost_model=None, seed: int = 0):
        return self._delta.prepare_relayout(
            queries, cost_model=cost_model, seed=seed
        )

    def commit_merge(self, prepared: PreparedMerge | None):
        """Swap the prepared index in, rotate the WAL, and capture the
        checkpoint state; returns the old inner index, exactly like the
        plain delta index.

        Kept cheap deliberately: this runs through the serving write
        barrier (on the event loop). The heavy half — snapshot write +
        segment pruning — is :meth:`checkpoint`, which the serving layer
        runs on an executor thread right after.
        """
        old = self._delta.commit_merge(prepared)
        if prepared is not None:
            self._rows_merged_total += prepared.rows_merged
            self._require_wal().rotate()
            # Capture *immutable* state now (the table never mutates, a
            # layout is frozen): checkpoint() can serialize it off-loop
            # while inserts keep landing in the new WAL segment.
            self._checkpoint_state = {
                "table": self._delta.table,
                "layout": self._delta.layout,
                "generation": self._delta.generation,
                "merges": self._delta.merges,
                "retrains": self._delta.retrains,
                "rows_merged_total": self._rows_merged_total,
            }
        return old

    def checkpoint(self) -> bool:
        """Write the pending snapshot and prune covered WAL segments.

        Heavy (serializes the whole clustered table, fsyncs): the
        serving layer runs it off the event loop after each commit; the
        library-use :meth:`merge` calls it inline. Returns False when no
        commit is pending. On failure the pending state is kept, the
        previous snapshot stays valid, and the WAL still covers every
        row — recovery replays the merged rows back into the buffer, so
        nothing is lost, just not yet compacted.
        """
        state = self._checkpoint_state
        if state is None:
            return False
        start = time.perf_counter()
        write_snapshot(
            self.data_dir,
            table=state["table"],
            layout=state["layout"],
            generation=state["generation"],
            merges=state["merges"],
            retrains=state["retrains"],
            rows_merged_total=state["rows_merged_total"],
            io=self._io,
        )
        self._checkpoint_state = None
        self.checkpoints += 1
        self.last_checkpoint_seconds = time.perf_counter() - start
        self._require_wal().prune(state["rows_merged_total"])
        return True

    def merge(self) -> None:
        """Blocking merge + checkpoint (the library-use path)."""
        self.commit_merge(self.prepare_merge())
        self.checkpoint()

    # ------------------------------------------------------------------ stats
    def durability_stats(self) -> dict:
        """The ``durability`` block of the serving ``stats`` op."""
        wal = self._wal
        group = (
            wal.group_commit_stats()
            if isinstance(wal, GroupCommitLog)
            else None
        )
        return {
            "data_dir": self.data_dir,
            "fsync": self.fsync,
            "group_commit": group,
            "wal_segments": wal.segment_count if wal is not None else 0,
            "wal_bytes": wal.size_bytes() if wal is not None else 0,
            "wal_records": wal.records_appended if wal is not None else 0,
            "rows_logged": self._rows_logged,
            "rows_merged_total": self._rows_merged_total,
            "checkpoints": self.checkpoints,
            "last_checkpoint_seconds": self.last_checkpoint_seconds,
            "checkpoint_pending": self._checkpoint_state is not None,
            "recovered": self.recovered,
            "recovered_rows": self.recovered_rows,
            "recovery_clean": self.recovery_clean,
            "recovery_reason": self.recovery_reason,
        }

    # --------------------------------------------------------------- teardown
    def close(self) -> None:
        """Close the WAL without checkpointing (crash-equivalent state on
        disk, modulo the final flush); used by recovery tests that need
        the un-compacted directory preserved."""
        if self._wal is not None:
            self._wal.close()

    def shutdown(self) -> None:
        """Best-effort final checkpoint, then close the WAL."""
        try:
            self.checkpoint()
        except DurabilityError:
            pass  # recovery still replays the WAL; nothing is lost
        if self._wal is not None:
            self._wal.close()
