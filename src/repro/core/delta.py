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
TCP server.

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
buffers floats, an int column truncates in-range fractional values.
:meth:`DeltaBufferedFlood.coerce_rows` validates a whole row or batch
before anything changes — non-numeric, non-finite, or out-of-range
values raise :class:`~repro.errors.SchemaError` with the buffer (and, in
the durable wrapper, the WAL) untouched.
"""

from __future__ import annotations

import functools
import math
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


@functools.lru_cache(maxsize=None)
def _limits(dtype: np.dtype) -> tuple:
    """The dtype's representable range as Python numbers."""
    if dtype.kind in "iu":
        info = np.iinfo(dtype)
        return info.min, info.max
    info = np.finfo(dtype)
    return float(info.min), float(info.max)


def _check_range(dim: str, lo, hi, dtype: np.dtype) -> None:
    """Raise :class:`SchemaError` unless ``[lo, hi]`` is finite and fits
    ``dtype``. Python compares int with float exactly, so 2.0**63 is out
    of int64."""
    if isinstance(lo, float) and not (math.isfinite(lo) and math.isfinite(hi)):
        raise SchemaError(f"column {dim!r} got a non-finite value")
    low, high = _limits(dtype)
    if lo < low or hi > high:
        raise SchemaError(f"column {dim!r} got a value outside {dtype}")


def _coerce_scalar(dim: str, value, dtype: np.dtype) -> np.ndarray:
    """One checked value as a length-1 ``dtype`` array."""
    if isinstance(value, np.generic):
        value = value.item()
    if not isinstance(value, (int, float)):
        raise SchemaError(f"column {dim!r} needs a number, got {value!r}")
    _check_range(dim, value, value, dtype)
    return np.array([value], dtype=dtype)


def _coerce_column(dim: str, raw, dtype: np.dtype) -> np.ndarray:
    """A checked flat batch column as a ``dtype`` array."""
    try:
        values = np.asarray(raw)
    except ValueError as exc:  # ragged nested lists
        raise SchemaError(f"column {dim!r}: {exc}") from None
    if values.ndim > 1:
        raise SchemaError(f"column {dim!r} needs a flat array, got {raw!r}")
    values = values.reshape(-1)
    if values.dtype.kind not in "biuf":
        # Strings, None, and Python ints past uint64 (numpy keeps those
        # as objects) all land here.
        raise SchemaError(
            f"column {dim!r} takes numbers within 64 bits, got {values.dtype}"
        )
    if values.size:
        # min/max propagate NaN into the finiteness check.
        _check_range(dim, values.min().item(), values.max().item(), dtype)
    return values.astype(dtype)


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
    flood_kwargs:
        Passed through to :class:`FloodIndex` (flatten, refinement, delta).
    """

    name = "Flood-delta"

    def __init__(
        self,
        layout: GridLayout,
        merge_threshold: int | None = 4096,
        **flood_kwargs,
    ):
        self.layout = layout
        self.merge_threshold = merge_threshold
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
    def build(self, table: Table) -> "DeltaBufferedFlood":
        self._index = FloodIndex(self.layout, **self._flood_kwargs).build(table)
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
    def coerce_rows(self, rows: dict, batch: bool) -> dict[str, np.ndarray]:
        """Validate one row (``batch=False``: a scalar per dimension) or a
        column batch (equal-length arrays) and return it as column arrays
        in the table's dtypes; raises :class:`SchemaError` on any bad
        value, so callers check everything before changing anything."""
        if set(rows) != set(self._dims):
            raise SchemaError(
                f"row dims {sorted(rows)} do not match table dims {sorted(self._dims)}"
            )
        coerce = _coerce_column if batch else _coerce_scalar
        cols = {dim: coerce(dim, rows[dim], self._dtypes[dim]) for dim in self._dims}
        if len({len(values) for values in cols.values()}) > 1:
            raise SchemaError("batch columns disagree on length")
        return cols

    def append_coerced(self, cols: dict[str, np.ndarray]) -> None:
        """Buffer columns already checked by :meth:`coerce_rows`."""
        for dim, values in cols.items():
            self._buffer[dim].extend(values)
        self.generation += 1
        self._maybe_auto_merge()

    def insert(self, row: dict) -> None:
        """Buffer one row (mapping of every dimension to a value)."""
        self.append_coerced(self.coerce_rows(row, batch=False))

    def insert_many(self, rows: dict) -> None:
        """Buffer a column-oriented batch (dim -> array of values)."""
        self.append_coerced(self.coerce_rows(rows, batch=True))

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
        index = FloodIndex(self.layout, **self._flood_kwargs).build(
            Table(combined, compress=self.table.compressed)
        )
        return PreparedMerge(
            index=index, rows_merged=n, seconds=time.perf_counter() - start
        )

    def commit_merge(self, prepared: PreparedMerge | None) -> FloodIndex | None:
        """Atomically swap a prepared index in; returns the *old* inner
        index.

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
            from repro.core.calibration import default_cost_model

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
        index = FloodIndex(result.layout, **self._flood_kwargs).build(table)
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
