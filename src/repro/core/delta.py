"""Insert support via a delta buffer (paper Section 8, "Insertions").

Flood proper is read-only; the paper sketches two extensions: per-cell gaps
and "a delta index [39] in which updates are buffered and periodically
merged into the data store, similar to Bigtable [2]". This module
implements the delta-index variant:

- inserts append to an in-memory row buffer;
- queries run against the clustered Flood index *and* a brute-force scan of
  the (small) buffer, merging visitor results;
- ``merge()`` folds the buffer into the table and rebuilds the index, and
  is triggered automatically when the buffer exceeds ``merge_threshold``.

The class satisfies the queryable-index protocol
(:mod:`repro.core.protocol`), so it can sit directly behind
:class:`~repro.core.engine.BatchQueryEngine`, the micro-batcher, and the
TCP server — including the sharded+buffered combination (pass
``num_shards`` / ``backend`` and the inner index is a
:class:`~repro.core.shard.ShardedFloodIndex` whose scans fan out across
cores while the buffer keeps absorbing writes).

For a *serving* event loop, the blocking :meth:`merge` is split in two:
:meth:`prepare_merge` builds the new clustered table + index from a
snapshot (safe to run on an executor thread while reads keep hitting the
old index + buffer, and while new inserts keep arriving), and
:meth:`commit_merge` atomically swaps it in, dropping exactly the
snapshotted rows from the buffer — rows inserted mid-merge stay buffered
and visible throughout. :meth:`prepare_relayout` is the same lifecycle
for a workload shift: it additionally learns a fresh layout from a
recent-query window before rebuilding (paper Section 8, "Shifting
workloads", served live via ``repro serve --adaptive``).

Every mutation bumps a monotonically-increasing ``generation`` counter.
The serving layer's :class:`~repro.serve.cache.ResultCache` keys entries
on it (:meth:`ResultCache.make_key`'s ``generation`` argument), so a
result cached before an insert can never be served after it — the key
simply no longer matches, and the stale entry ages out of the LRU.

Buffer columns adopt the table's per-column dtype: a float-valued table
buffers floats (``insert`` used to force ``int(v)``, silently truncating
float dimensions — the same bug class PR 4 fixed in the visitors).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.index import FloodIndex
from repro.core.layout import GridLayout
from repro.errors import BuildError, SchemaError
from repro.query.predicate import Query
from repro.query.stats import QueryStats
from repro.storage.table import Table
from repro.storage.visitor import Visitor


@dataclass
class PreparedMerge:
    """An off-loop-built replacement index awaiting its atomic swap.

    Produced by :meth:`DeltaBufferedFlood.prepare_merge` /
    :meth:`~DeltaBufferedFlood.prepare_relayout`; consumed exactly once
    by :meth:`~DeltaBufferedFlood.commit_merge`.
    """

    index: FloodIndex
    #: Buffered rows folded into ``index`` (the snapshot size); commit
    #: drops exactly this many from the head of the buffer.
    rows_merged: int
    #: Wall time of the prepare (build) phase.
    seconds: float
    #: New layout when this was a re-layout, else ``None``.
    layout: GridLayout | None = None


class DeltaBufferedFlood:
    """A Flood index that accepts inserts through a delta buffer.

    Parameters
    ----------
    layout:
        Grid layout for the underlying Flood index.
    merge_threshold:
        Automatic merge once the buffer holds this many rows (``None``
        disables auto-merge; the serving layer disables it and runs
        merges off-loop itself).
    num_shards:
        ``None`` (default) builds a plain :class:`FloodIndex` inside;
        ``0`` shards one per core, ``>= 1`` that many shards
        (:class:`~repro.core.shard.ShardedFloodIndex` semantics).
    backend:
        Scan-backend *spec string* (``'serial'`` / ``'thread'`` /
        ``'process'``) for the sharded inner index. Specs only — a
        resolved backend instance is bound to one table, and every merge
        builds a new table (the spec re-resolves per rebuild, refreshing
        e.g. the process backend's shared-memory attachment).
    min_parallel_points:
        Passed to the sharded inner index (``None`` = its default).
    flood_kwargs:
        Passed through to :class:`FloodIndex` (flatten, refinement, delta).
    """

    name = "Flood-delta"

    def __init__(
        self,
        layout: GridLayout,
        merge_threshold: int | None = 4096,
        num_shards: int | None = None,
        backend: str | None = None,
        min_parallel_points: int | None = None,
        **flood_kwargs,
    ):
        if backend is not None and not isinstance(backend, str):
            raise BuildError(
                "DeltaBufferedFlood needs a backend *spec string*; resolved "
                "backends bind to one table and merges rebuild the table"
            )
        self.layout = layout
        self.merge_threshold = merge_threshold
        self._num_shards = num_shards
        self._backend_spec = backend
        self._min_parallel_points = min_parallel_points
        self._flood_kwargs = flood_kwargs
        self._index: FloodIndex | None = None
        self._dims: list[str] = []
        self._dtypes: dict[str, np.dtype] = {}
        self._buffer: dict[str, list] = {}
        self.merges = 0
        self.retrains = 0
        self.last_merge_seconds = 0.0
        #: Monotonic mutation counter: bumped by every insert/insert_many/
        #: merge. Result caches key on it so mutations invalidate by
        #: construction (see :meth:`repro.serve.cache.ResultCache.make_key`).
        self.generation = 0

    # ------------------------------------------------------------------ build
    def _make_index(self, layout: GridLayout | None = None) -> FloodIndex:
        """A fresh (unbuilt) inner index per the sharding configuration."""
        layout = layout if layout is not None else self.layout
        if self._num_shards is None:
            return FloodIndex(layout, **self._flood_kwargs)
        from repro.core.shard import MIN_PARALLEL_POINTS, ShardedFloodIndex

        return ShardedFloodIndex(
            layout,
            num_shards=self._num_shards or None,
            min_parallel_points=(
                MIN_PARALLEL_POINTS
                if self._min_parallel_points is None
                else self._min_parallel_points
            ),
            backend=self._backend_spec,
            **self._flood_kwargs,
        )

    def build(self, table: Table) -> "DeltaBufferedFlood":
        self._index = self._make_index().build(table)
        self._dims = table.dims
        # Per-column dtype adopted from the table (values(dim, 0, 0) is an
        # empty decode, so this costs nothing even on compressed columns).
        self._dtypes = {
            dim: np.asarray(table.values(dim, 0, 0)).dtype for dim in self._dims
        }
        self._buffer = {dim: [] for dim in self._dims}
        return self

    @property
    def table(self) -> Table:
        if self._index is None:
            raise BuildError(f"{self.name} index used before build()")
        return self._index.table

    @property
    def index(self) -> FloodIndex:
        """The current inner clustered index (replaced by every merge)."""
        if self._index is None:
            raise BuildError(f"{self.name} index used before build()")
        return self._index

    @property
    def buffered_rows(self) -> int:
        return len(next(iter(self._buffer.values()))) if self._buffer else 0

    # ----------------------------------------------------------------- insert
    def insert(self, row: dict) -> None:
        """Buffer one row (mapping of every dimension to a value)."""
        if set(row) != set(self._dims):
            raise SchemaError(
                f"row dims {sorted(row)} do not match table dims {sorted(self._dims)}"
            )
        for dim, value in row.items():
            # dtype.type coerces to the column's dtype — int columns get
            # exact int64s, float columns keep their fractional part.
            self._buffer[dim].append(self._dtypes[dim].type(value))
        self.generation += 1
        self._maybe_auto_merge()

    def insert_many(self, rows: dict) -> None:
        """Buffer a column-oriented batch (dim -> array of values)."""
        if set(rows) != set(self._dims):
            raise SchemaError(
                f"batch dims {sorted(rows)} do not match table dims {sorted(self._dims)}"
            )
        lengths = {len(np.atleast_1d(v)) for v in rows.values()}
        if len(lengths) != 1:
            raise SchemaError("batch columns disagree on length")
        for dim, values in rows.items():
            self._buffer[dim].extend(
                np.atleast_1d(np.asarray(values)).astype(self._dtypes[dim]).tolist()
            )
        self.generation += 1
        self._maybe_auto_merge()

    def _maybe_auto_merge(self) -> None:
        if (
            self.merge_threshold is not None
            and self.merge_threshold > 0
            and self.buffered_rows >= self.merge_threshold
        ):
            self.merge()

    def _buffer_arrays(self, n: int) -> dict[str, np.ndarray]:
        """The first ``n`` buffered rows as per-dtype column arrays.

        Slicing (not whole-list conversion) makes this a consistent
        snapshot even while another thread appends — exactly the
        prepare-merge case, where inserts keep landing mid-build.
        """
        return {
            dim: np.asarray(self._buffer[dim][:n], dtype=self._dtypes[dim])
            for dim in self._dims
        }

    # ------------------------------------------------------------------ merge
    def prepare_merge(self) -> PreparedMerge | None:
        """Build the post-merge table + index from a buffer snapshot.

        Pure with respect to serving state: ``self`` is only read, so
        this can run on an executor thread while the event loop keeps
        answering queries from the old index + buffer and keeps
        accepting inserts (they land *behind* the snapshot and survive
        the commit). Returns ``None`` when there is nothing to merge.
        """
        n = self.buffered_rows
        if n == 0:
            return None
        start = time.perf_counter()
        buffered = self._buffer_arrays(n)
        combined = {
            dim: np.concatenate([self.table.values(dim), buffered[dim]])
            for dim in self._dims
        }
        index = self._make_index().build(
            Table(combined, compress=self.table.compressed)
        )
        return PreparedMerge(
            index=index, rows_merged=n, seconds=time.perf_counter() - start
        )

    def commit_merge(self, prepared: PreparedMerge | None) -> FloodIndex | None:
        """Atomically swap a prepared index in; returns the *old* inner
        index (so the caller can retire its scan backend off-loop).

        Must be serialized against query execution (the serving layer
        runs it through the batcher's write barrier); the swap itself is
        a few pointer assignments plus dropping the merged prefix of the
        buffer, so the pause is microseconds regardless of table size.
        """
        if prepared is None:
            return None
        old = self._index
        self._index = prepared.index
        for dim in self._dims:
            del self._buffer[dim][: prepared.rows_merged]
        if prepared.layout is not None:
            self.layout = prepared.layout
            self.retrains += 1
        else:
            self.merges += 1
        self.generation += 1
        self.last_merge_seconds = prepared.seconds
        return old

    def merge(self) -> None:
        """Fold the buffer into the table and rebuild, blocking.

        The library-use path (and the auto-merge trigger); the serving
        layer uses :meth:`prepare_merge` + :meth:`commit_merge` instead
        so the rebuild never blocks its event loop.
        """
        self.commit_merge(self.prepare_merge())

    # ---------------------------------------------------------------- adapt
    def prepare_relayout(
        self, queries, cost_model=None, seed: int = 0
    ) -> PreparedMerge:
        """Learn a fresh layout for ``queries`` and build it, off-loop.

        The workload-shift half of Section 8: when a
        :class:`~repro.core.monitor.WorkloadMonitor` signals that the
        current layout has gone stale, the serving layer calls this on
        an executor thread and commits the result through the same
        atomic-swap path as a merge. The rebuild folds the current
        buffer in too (it is re-clustering the table anyway).
        """
        from repro.core.optimizer import find_optimal_layout

        if cost_model is None:
            from repro.bench.harness import default_cost_model

            cost_model = default_cost_model()
        start = time.perf_counter()
        n = self.buffered_rows
        buffered = self._buffer_arrays(n)
        combined = {
            dim: np.concatenate([self.table.values(dim), buffered[dim]])
            for dim in self._dims
        }
        table = Table(combined, compress=self.table.compressed)
        result = find_optimal_layout(table, list(queries), cost_model, seed=seed)
        index = self._make_index(layout=result.layout).build(table)
        return PreparedMerge(
            index=index,
            rows_merged=n,
            seconds=time.perf_counter() - start,
            layout=result.layout,
        )

    # ------------------------------------------------------------------ query
    def query(self, query: Query, visitor: Visitor) -> QueryStats:
        """Query the main index, then scan the delta buffer brute-force."""
        stats = self._index.query(query, visitor)
        return self._scan_buffer(query, visitor, stats)

    def query_percell(self, query: Query, visitor: Visitor) -> QueryStats:
        """The reference path: seed per-cell loop + the same buffer scan."""
        stats = self._index.query_percell(query, visitor)
        return self._scan_buffer(query, visitor, stats)

    def _scan_buffer(
        self, query: Query, visitor: Visitor, stats: QueryStats
    ) -> QueryStats:
        n = self.buffered_rows
        if n == 0:
            return stats
        start = time.perf_counter()
        mask = np.ones(n, dtype=bool)
        buffer_table = Table(self._buffer_arrays(n), compress=False)
        for dim, (low, high) in query.ranges.items():
            if dim not in buffer_table:
                continue
            values = buffer_table.values(dim)
            mask &= (values >= low) & (values <= high)
        matched = int(np.count_nonzero(mask))
        if matched:
            visitor.visit(buffer_table, 0, n, mask)
        # One measurement feeds both counters, so scan_time and
        # total_time agree exactly (two perf_counter() calls used to
        # hand total_time the larger delta).
        elapsed = time.perf_counter() - start
        stats.points_scanned += n
        stats.points_matched += matched
        stats.scan_time += elapsed
        stats.total_time += elapsed
        return stats

    # ------------------------------------------------------------------- misc
    def size_bytes(self) -> int:
        buffered = sum(
            self._dtypes[dim].itemsize * self.buffered_rows for dim in self._dims
        )
        return self._index.size_bytes() + buffered

    def shutdown(self) -> None:
        """Retire the inner index's *resolved* scan backend, if any.

        Only meaningful for the sharded+buffered combination with a
        process backend (worker pool + shared-memory segments); a no-op
        everywhere else. The serving layer retires superseded backends
        after each merge swap; this handles the final one at exit.
        """
        backend = getattr(self._index, "_backend", None)
        if backend is not None:
            backend.shutdown()
