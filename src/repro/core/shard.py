"""Intra-query parallelism: the clustered table split into storage shards.

:class:`BatchQueryEngine` parallelizes *across* queries; this module
parallelizes *within* one. A :class:`ShardedFloodIndex` partitions the
clustered table into K storage-contiguous shards along the cell order —
each shard owns a contiguous run of ``cell_starts``, so shard boundaries
never cut a cell — and fans a single query's scan runs out across a
process-wide worker pool. Projection and refinement stay single-threaded
(they are a few vectorized passes, microseconds at any plan size); the
scan, which dominates large queries (paper Table 2), is what shards.

*Where* the per-shard pieces execute is pluggable
(:mod:`repro.core.backends`): the default :class:`ThreadBackend` uses the
process-wide thread pool below (numpy kernels release the GIL), while
:class:`ProcessBackend` runs shards on worker processes attached
zero-copy to the table's shared-memory segments — real cores even for
CPU-bound, GIL-holding visitor work. Mergeable visitors
(``fresh``/``merge``) ship compact partial aggregates back and merge in
shard order; any other visitor falls back to
:class:`~repro.storage.visitor.RecordingVisitor` record-and-replay. The
merge (or replay) runs on the calling thread in shard order either way,
so results are deterministic regardless of worker scheduling.

Results are bit-identical to :meth:`FloodIndex.query` and the seed's
:meth:`FloodIndex.query_percell` under every backend: splitting a
coalesced run at a shard boundary changes neither the rows scanned nor
the masks computed.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.backends import ScanBackend, SerialBackend, resolve_backend
from repro.core.index import FloodIndex, QueryPlan
from repro.errors import BuildError
from repro.query.predicate import Query
from repro.query.stats import QueryStats
from repro.storage.scan import split_runs
from repro.storage.table import Table
from repro.storage.visitor import Visitor

#: Below this many planned points a query is scanned serially: pool
#: dispatch costs more than it buys on small scans (identical results
#: either way; this only picks the execution strategy).
MIN_PARALLEL_POINTS = 1 << 15

_POOL: ThreadPoolExecutor | None = None


def default_num_shards() -> int:
    """One shard per core (the paper's evaluation machines are multi-core)."""
    return max(1, os.cpu_count() or 1)


def get_scan_pool() -> ThreadPoolExecutor:
    """The process-wide shard-scan pool, created lazily (one per core).

    Shared by every :class:`ShardedFloodIndex` in the process so concurrent
    queries (e.g. engine workers over a sharded index) compete for one
    bounded pool instead of oversubscribing the machine.
    """
    global _POOL
    if _POOL is None:
        _POOL = ThreadPoolExecutor(
            max_workers=default_num_shards(), thread_name_prefix="repro-shard"
        )
    return _POOL


def set_scan_pool(pool: ThreadPoolExecutor | None) -> ThreadPoolExecutor | None:
    """Swap the process-wide scan pool (pluggable executor); returns the old.

    Pass ``None`` to reset to lazy re-creation. The caller owns shutdown of
    the returned pool.
    """
    global _POOL
    old, _POOL = _POOL, pool
    return old


class ShardedFloodIndex(FloodIndex):
    """A Flood index whose single-query scans fan out across cores.

    Drop-in replacement for :class:`FloodIndex` (same build, plan, and
    refinement; :class:`~repro.core.engine.BatchQueryEngine` accepts it
    directly) that overrides only the scan stage: a query's coalesced runs
    are split at shard boundaries and scanned concurrently.

    Parameters
    ----------
    layout:
        The grid layout, as for :class:`FloodIndex`.
    num_shards:
        Storage shards to partition into (default: one per core). The
        effective count can be lower when the table has fewer (or very
        large) cells, since boundaries snap to cell starts.
    min_parallel_points:
        Plans scanning fewer points than this run serially (0 forces the
        parallel path, used by the identity tests).
    executor:
        Worker pool for the (default) thread backend; defaults to the
        process-wide pool from :func:`get_scan_pool`. Ignored by other
        backends.
    backend:
        Scan-backend spec: ``'serial'`` / ``'thread'`` / ``'process'``
        or a :class:`~repro.core.backends.ScanBackend` instance.
        ``None`` (default) means ``'thread'`` — the pre-backend
        behavior. String specs resolve lazily on first parallel scan
        (the process backend needs the built table); the resolved
        instance is reachable as :attr:`scan_backend` and the caller
        owns its :meth:`~repro.core.backends.ScanBackend.shutdown`.
    **kwargs:
        ``flatten`` / ``refinement`` / ``delta``, as for
        :class:`FloodIndex`.
    """

    name = "Flood-sharded"

    def __init__(
        self,
        layout,
        num_shards: int | None = None,
        min_parallel_points: int = MIN_PARALLEL_POINTS,
        executor: ThreadPoolExecutor | None = None,
        backend: str | ScanBackend | None = None,
        **kwargs,
    ):
        super().__init__(layout, **kwargs)
        if num_shards is not None and int(num_shards) < 1:
            raise BuildError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = int(num_shards) if num_shards else default_num_shards()
        self.min_parallel_points = int(min_parallel_points)
        self.executor = executor
        self._backend_spec = "thread" if backend is None else backend
        self._backend: ScanBackend | None = (
            backend if isinstance(backend, ScanBackend) else None
        )
        self._backend_lock = threading.Lock()

    # ------------------------------------------------------------------ build
    def _build(self, table: Table) -> None:
        super()._build(table)
        self._compute_shard_bounds()

    @classmethod
    def wrap(
        cls,
        index: FloodIndex,
        num_shards: int | None = None,
        min_parallel_points: int = MIN_PARALLEL_POINTS,
        executor: ThreadPoolExecutor | None = None,
        backend: str | ScanBackend | None = None,
    ) -> "ShardedFloodIndex":
        """Shard an already-built :class:`FloodIndex` without rebuilding.

        The returned index *shares* the source's clustered table and models
        (no copy); only the shard boundaries are new.
        """
        index.table  # raises BuildError when not built
        sharded = cls(
            index.layout,
            num_shards=num_shards,
            min_parallel_points=min_parallel_points,
            executor=executor,
            backend=backend,
            flatten=index.flatten,
            refinement=index.refinement,
            delta=index.delta,
        )
        for attr in FloodIndex._BUILT_STATE_ATTRS:
            if hasattr(index, attr):
                setattr(sharded, attr, getattr(index, attr))
        sharded.build_seconds = index.build_seconds
        sharded._compute_shard_bounds()
        return sharded

    def _compute_shard_bounds(self) -> None:
        """Row offsets delimiting the shards, snapped to cell starts.

        Targets split the *rows* evenly (not the cells — skewed data packs
        most rows into few cells, and row balance is what balances scan
        work), then each target snaps up to the next cell start so a shard
        always owns whole cells. Duplicate or degenerate boundaries
        collapse, so the effective shard count may be below ``num_shards``.
        """
        n = self._table.num_rows
        cell_starts = self._cell_starts
        k = min(self.num_shards, max(1, n))
        targets = (np.arange(1, k) * n) // k
        snapped = cell_starts[np.searchsorted(cell_starts, targets, side="left")]
        inner = np.unique(snapped)
        inner = inner[(inner > 0) & (inner < n)]
        self._shard_bounds = np.concatenate(
            (np.zeros(1, dtype=np.int64), inner, np.full(1, n, dtype=np.int64))
        )

    @property
    def shard_bounds(self) -> np.ndarray:
        """Row offsets ``[0, b_1, ..., n]``; shard k owns rows [b_k, b_k+1)."""
        if self._table is None:
            raise BuildError(f"{self.name} index used before build()")
        return self._shard_bounds

    @property
    def effective_shards(self) -> int:
        """Shard count after snapping to cell boundaries (<= ``num_shards``)."""
        return self.shard_bounds.size - 1

    # --------------------------------------------------------------- backend
    @property
    def scan_backend(self) -> ScanBackend:
        """The resolved backend executing this index's shard scans.

        Resolves a string spec lazily (``'process'`` needs the built
        table to place in shared memory); repeated access returns the
        same instance. The caller (CLI, benchmark, server) owns
        :meth:`~repro.core.backends.ScanBackend.shutdown` of process
        backends — per-query code never tears pools down.
        """
        if self._backend is None:
            # Locked: concurrent engine workers resolving 'process' would
            # otherwise each copy the table into shared memory and leak
            # every losing copy's segments until the atexit sweep.
            with self._backend_lock:
                if self._backend is None:
                    table = self.table if self._backend_spec == "process" else None
                    self._backend = resolve_backend(
                        self._backend_spec, table=table, executor=self.executor
                    )
        return self._backend

    def use_backend(self, backend: str | ScanBackend) -> ScanBackend:
        """Swap the scan backend; returns the *previous* resolved backend
        (or ``None``), whose shutdown the caller owns."""
        old = self._backend
        self._backend_spec = backend
        self._backend = backend if isinstance(backend, ScanBackend) else None
        if self._backend is None:
            self.scan_backend  # resolve eagerly so config errors fail here
        return old

    # ------------------------------------------------------------------- scan
    def execute_plan(
        self,
        plan: QueryPlan,
        query: Query,
        visitor: Visitor,
        stats: QueryStats,
        runs: list[tuple[int, int, int]] | None = None,
    ) -> None:
        """Scan a (refined) plan with per-shard fan-out on the backend.

        Small plans (fewer than ``min_parallel_points`` planned points),
        single-shard tables, and the serial backend fall through to the
        serial kernel; otherwise the runs are split at shard boundaries
        and handed to :attr:`scan_backend`, which merges partial
        aggregates (mergeable visitors) or replays recorded visits in
        shard order.
        """
        if runs is None:
            runs = plan.coalesced_runs()
        if not runs:
            return
        bounds = self._shard_bounds
        planned_points = sum(stop - start for start, stop, _ in runs)
        if bounds.size - 1 <= 1 or planned_points < self.min_parallel_points:
            super().execute_plan(plan, query, visitor, stats, runs=runs)
            return
        backend = self.scan_backend
        if isinstance(backend, SerialBackend):
            super().execute_plan(plan, query, visitor, stats, runs=runs)
            return
        per_shard = [rs for rs in split_runs(runs, bounds) if rs]
        if len(per_shard) <= 1:
            super().execute_plan(plan, query, visitor, stats, runs=runs)
            return
        backend.scan(self, plan, query, visitor, stats, per_shard)
