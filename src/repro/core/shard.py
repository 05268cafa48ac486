"""Intra-query parallelism: the clustered table split into storage shards.

:class:`BatchQueryEngine` parallelizes *across* queries; this module
parallelizes *within* one. A :class:`ShardedFloodIndex` partitions the
clustered table into K storage-contiguous shards along the cell order —
each shard owns a contiguous run of ``cell_starts``, so shard boundaries
never cut a cell — and fans a large query's scan runs out across a pool
of worker processes (:class:`ProcessBackend`). Projection and refinement
stay single-threaded (they are a few vectorized passes, microseconds at
any plan size); the scan, which dominates large queries (paper Table 2),
is what shards.

The workers attach zero-copy to the table's shared-memory segments
(:mod:`repro.storage.shm`), so CPU-bound, GIL-holding visitor work runs
on real cores. Result shipping uses the **mergeable-visitor protocol**
(:func:`repro.storage.visitor.is_mergeable`): when the caller's visitor
implements ``fresh()``/``merge()``, every worker scans into its own fresh
visitor and the partials merge in shard order — a few counters cross the
process boundary instead of mask arrays. Any other visitor falls back to
:class:`~repro.storage.visitor.RecordingVisitor` record-and-replay. The
merge (or replay) runs on the calling thread in shard order either way,
so results are deterministic regardless of worker scheduling.

Results are bit-identical to :meth:`FloodIndex.query` and the seed's
:meth:`FloodIndex.query_percell`: splitting a coalesced run at a shard
boundary changes neither the rows scanned nor the masks computed.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.core.index import FloodIndex, QueryPlan
from repro.errors import BuildError, QueryError
from repro.query.predicate import Query
from repro.query.stats import QueryStats
from repro.storage.kernels import get_kernel
from repro.storage.scan import scan_runs, split_runs
from repro.storage.shm import SharedMemoryTable, ShmTableHandle
from repro.storage.table import Table
from repro.storage.visitor import RecordingVisitor, Visitor, is_mergeable

#: Below this many planned points a query is scanned serially: pool
#: dispatch costs more than it buys on small scans (identical results
#: either way; this only picks the execution strategy).
MIN_PARALLEL_POINTS = 1 << 15


def default_num_shards() -> int:
    """One shard per core (the paper's evaluation machines are multi-core)."""
    return max(1, os.cpu_count() or 1)


def _group_runs_by_code(
    runs: list[tuple[int, int, int]]
) -> dict[int, list[tuple[int, int]]]:
    """Group ``(start, stop, code)`` runs by residual-check code.

    Exactly the grouping :meth:`FloodIndex.execute_plan` performs (dict
    insertion order = first-appearance order), factored out so worker
    processes — which have the runs and the resolved bounds but no
    ``QueryPlan`` — scan in the identical order.
    """
    by_code: dict[int, list[tuple[int, int]]] = {}
    for start, stop, code in runs:
        by_code.setdefault(code, []).append((start, stop))
    return by_code


# ---------------------------------------------------------------- processes
#: Per-worker attached table, set once by the pool initializer. Module
#: global (not an arg) so the table never rides along with task payloads.
_WORKER_TABLE: SharedMemoryTable | None = None


def _worker_attach(handle: ShmTableHandle) -> None:
    """Process-pool initializer: map the shared table once per worker."""
    global _WORKER_TABLE
    _WORKER_TABLE = SharedMemoryTable.attach(handle)


def _worker_scan(task):
    """One shard's scan inside a worker process.

    ``task`` is ``(runs, bounds_by_code, prototype)`` where ``prototype``
    is a fresh mergeable visitor (unpickled here into this task's private
    accumulator) or ``None`` for the recording fallback. Runs are grouped
    by code exactly as :meth:`FloodIndex.execute_plan` groups them, and
    each group scans through this process's own :func:`get_kernel`.
    Returns ``(payload, stats)`` — the payload is the filled visitor
    (compact partial aggregate) or the recorded visits list, the stats
    carry the shard's scan counters.
    """
    runs, bounds_by_code, prototype = task
    table = _WORKER_TABLE
    if table is None:  # pool used without its initializer; cannot happen via ProcessBackend
        raise BuildError("scan worker has no attached table")
    visitor = prototype if prototype is not None else RecordingVisitor()
    kernel = get_kernel()
    local = QueryStats()
    for code, spans in _group_runs_by_code(runs).items():
        bounds = bounds_by_code[code]
        scanned, matched = scan_runs(
            table, bounds, spans, visitor, kernel=kernel, stats=local
        )
        local.points_scanned += scanned
        local.points_matched += matched
        if not bounds:
            local.exact_points += scanned
    payload = visitor if prototype is not None else visitor.visits
    return payload, local


class ProcessBackend:
    """Shard scans on a persistent pool of worker processes.

    Resources are acquired on the first :meth:`scan`, once: the table is
    copied into shared memory (unless it already is one — pass a
    :class:`SharedMemoryTable` to share segments) and each worker process
    attaches zero-copy views in its pool initializer. Per query, only run
    lists, resolved residual bounds, and partial aggregates cross the
    process boundary — a few hundred bytes each way for mergeable
    visitors.

    Parameters
    ----------
    table:
        The built index's clustered table (or an existing
        :class:`SharedMemoryTable`, which the caller keeps owning).
    workers:
        Pool size; default one per core (:func:`default_num_shards`).
    mp_context:
        Optional ``multiprocessing`` context (the platform default —
        ``fork`` on Linux — is fastest; ``spawn`` also works since
        workers attach by segment name).

    :meth:`shutdown` (or process exit, via the shm registry's ``atexit``
    sweep) stops the pool and unlinks every owned segment; a later scan
    acquires afresh.
    """

    def __init__(self, table: Table, workers: int | None = None, mp_context=None):
        if workers is not None and int(workers) < 1:
            raise QueryError(f"ProcessBackend needs workers >= 1, got {workers}")
        self.workers = int(workers) if workers is not None else default_num_shards()
        self.table = table
        self.shm_table: SharedMemoryTable | None = (
            table if isinstance(table, SharedMemoryTable) else None
        )
        self._mp_context = mp_context
        self._pool: ProcessPoolExecutor | None = None
        self._lock = threading.Lock()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        # Locked check-then-create: concurrent engine worker threads all
        # land here on their first scan, and an unsynchronized race would
        # copy the table once per loser and fork one pool each.
        with self._lock:
            if self._pool is None:
                if self.shm_table is None:
                    self.shm_table = SharedMemoryTable.from_table(self.table)
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_worker_attach,
                    initargs=(self.shm_table.handle,),
                    mp_context=self._mp_context,
                )
            return self._pool

    def scan(self, plan, query, visitor, stats, per_shard) -> None:
        """Scan ``per_shard`` (non-empty run lists in shard order) into
        ``visitor``, accumulating the scan counters into ``stats``."""
        pool = self._ensure_pool()
        codes = {code for shard_runs in per_shard for _, _, code in shard_runs}
        bounds_by_code = {
            code: [(dim, *query.bounds(dim)) for dim in plan.checks_for(code)]
            for code in codes
        }
        prototype = visitor.fresh() if is_mergeable(visitor) else None
        futures = [
            pool.submit(_worker_scan, (shard_runs, bounds_by_code, prototype))
            for shard_runs in per_shard
        ]
        for future in futures:  # shard order == storage order, deterministic
            payload, local = future.result()
            if prototype is not None:
                visitor.merge(payload)
            else:
                for start, stop, mask in payload:
                    visitor.visit(self.table, start, stop, mask)
            stats.points_scanned += local.points_scanned
            stats.points_matched += local.points_matched
            stats.exact_points += local.exact_points
            stats.kernel_groups += local.kernel_groups

    def shutdown(self) -> None:
        """Stop the worker pool and unlink owned shared memory (idempotent)."""
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
            if self.shm_table is not None and self.shm_table is not self.table:
                self.shm_table.unlink()
                self.shm_table = None


class ShardedFloodIndex(FloodIndex):
    """A Flood index whose large single-query scans fan out across cores.

    Drop-in replacement for :class:`FloodIndex` (same build, plan, and
    refinement; :class:`~repro.core.engine.BatchQueryEngine` accepts it
    directly) that overrides only the scan stage: a large query's
    coalesced runs are split at shard boundaries and scanned on a
    :class:`ProcessBackend` this index owns. The worker pool and the
    table's shared-memory copy are created by the first parallel scan and
    released by :meth:`shutdown`.

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
        **kwargs,
    ):
        super().__init__(layout, **kwargs)
        if num_shards is not None and int(num_shards) < 1:
            raise BuildError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = int(num_shards) if num_shards else default_num_shards()
        self.min_parallel_points = int(min_parallel_points)
        self._backend: ProcessBackend | None = None

    # ------------------------------------------------------------------ build
    def _build(self, table: Table) -> None:
        super()._build(table)
        self._init_shards()

    @classmethod
    def wrap(
        cls,
        index: FloodIndex,
        num_shards: int | None = None,
        min_parallel_points: int = MIN_PARALLEL_POINTS,
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
            flatten=index.flatten,
            refinement=index.refinement,
            delta=index.delta,
        )
        for attr in FloodIndex._BUILT_STATE_ATTRS:
            if hasattr(index, attr):
                setattr(sharded, attr, getattr(index, attr))
        sharded.build_seconds = index.build_seconds
        sharded._init_shards()
        return sharded

    def _init_shards(self) -> None:
        """Row offsets delimiting the shards, snapped to cell starts, and
        the (not yet started) process backend that scans them.

        Targets split the *rows* evenly (not the cells — skewed data packs
        most rows into few cells, and row balance is what balances scan
        work), then each target snaps up to the next cell start so a shard
        always owns whole cells. Duplicate or degenerate boundaries
        collapse, so the effective shard count may be below ``num_shards``.
        """
        self.shutdown()  # a rebuild must not strand the old table's pool
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
        self._backend = ProcessBackend(
            self._table,
            workers=min(self._shard_bounds.size - 1, default_num_shards()),
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

    def shutdown(self) -> None:
        """Stop the worker processes and unlink the table's shared-memory
        copy (idempotent; a later parallel scan starts them again)."""
        if self._backend is not None:
            self._backend.shutdown()

    # ------------------------------------------------------------------- scan
    def execute_plan(
        self,
        plan: QueryPlan,
        query: Query,
        visitor: Visitor,
        stats: QueryStats,
        runs: list[tuple[int, int, int]] | None = None,
    ) -> None:
        """Scan a (refined) plan, fanning out across shards when large.

        Plans of at least ``min_parallel_points`` planned points that
        span more than one shard are split at shard boundaries and
        scanned on the process backend, which merges partial aggregates
        (mergeable visitors) or replays recorded visits in shard order;
        everything else runs the serial kernel.
        """
        if runs is None:
            runs = plan.coalesced_runs()
        if not runs:
            return
        if sum(stop - start for start, stop, _ in runs) >= self.min_parallel_points:
            per_shard = [rs for rs in split_runs(runs, self._shard_bounds) if rs]
            if len(per_shard) > 1:
                self._backend.scan(plan, query, visitor, stats, per_shard)
                return
        super().execute_plan(plan, query, visitor, stats, runs=runs)
