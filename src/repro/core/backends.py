"""Pluggable scan backends: where a query's shard scans actually run.

:class:`~repro.core.shard.ShardedFloodIndex` splits one query's coalesced
runs at shard boundaries; a :class:`ScanBackend` decides what executes the
per-shard pieces:

- :class:`SerialBackend` — the calling thread, through the exact serial
  kernel (:meth:`FloodIndex.execute_plan`). The baseline every other
  backend is held identical to.
- :class:`ThreadBackend` — the process-wide thread pool from
  :func:`repro.core.shard.get_scan_pool` (or an injected executor).
  The numpy kernels release the GIL, so column decode and residual
  masking parallelize; *Python-level* visitor work still serializes.
- :class:`ProcessBackend` — a persistent pool of worker **processes**,
  each attached (zero-copy, via :mod:`repro.storage.shm`) to the table's
  shared-memory segments in its initializer. CPU-bound visitor work runs
  on real cores; workers ship back compact partial aggregates.

Result shipping uses the **mergeable-visitor protocol**
(:func:`repro.storage.visitor.is_mergeable`): when the caller's visitor
implements ``fresh()``/``merge()``, every worker scans into its own fresh
visitor and the partials are merged in shard (storage) order — a few
counters cross the pool boundary instead of recorded mask arrays, and the
thread path skips the replay pass it used to need. Arbitrary visitors
still work: the fallback records ``(start, stop, mask)`` visits per shard
and replays them into the caller's visitor in storage order, exactly as
the pre-backend sharded scan did.

Identity is the contract: for any backend, results and the
``points_scanned`` / ``points_matched`` / ``exact_points`` counters match
:meth:`FloodIndex.query` and the seed's :meth:`FloodIndex.query_percell`
bit for bit.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor

from repro.errors import BuildError, QueryError
from repro.query.stats import QueryStats
from repro.storage.kernels import get_kernel
from repro.storage.scan import scan_runs
from repro.storage.shm import SharedMemoryTable, ShmTableHandle
from repro.storage.visitor import RecordingVisitor, is_mergeable

#: Spec strings accepted by :func:`resolve_backend` (and the CLIs).
BACKEND_NAMES = ("serial", "thread", "process")


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


class ScanBackend(ABC):
    """Strategy object executing per-shard run lists for a sharded index.

    One backend instance may be shared by many queries (and, for thread
    and serial, many indexes); backends hold no per-query state.
    """

    name = "?"

    @abstractmethod
    def scan(self, index, plan, query, visitor, stats, per_shard) -> None:
        """Scan ``per_shard`` (non-empty run lists in shard order) into
        ``visitor``, accumulating the scan counters into ``stats``."""

    def shutdown(self) -> None:
        """Release pools and shared resources (idempotent; optional)."""


class SerialBackend(ScanBackend):
    """Everything on the calling thread — the reference strategy.

    Useful to pin down whether parallelism is paying for itself, and as
    the identity baseline in the backend benchmarks.
    """

    name = "serial"

    def scan(self, index, plan, query, visitor, stats, per_shard) -> None:
        from repro.core.index import FloodIndex

        runs = [run for shard_runs in per_shard for run in shard_runs]
        FloodIndex.execute_plan(index, plan, query, visitor, stats, runs=runs)


class ThreadBackend(ScanBackend):
    """Shard scans on the process-wide thread pool (the PR-2 strategy,
    upgraded with mergeable partial aggregates).

    Mergeable visitors skip the record-then-replay pass entirely: each
    worker thread scans into its own fresh visitor and the partials merge
    in shard order. Non-mergeable visitors keep the
    :class:`RecordingVisitor` replay fallback.

    Parameters
    ----------
    executor:
        Worker pool; ``None`` (default) uses the lazily-created
        process-wide pool from :func:`repro.core.shard.get_scan_pool`.
    """

    name = "thread"

    def __init__(self, executor=None):
        self.executor = executor

    def _pool(self):
        if self.executor is not None:
            return self.executor
        from repro.core.shard import get_scan_pool

        return get_scan_pool()

    def scan(self, index, plan, query, visitor, stats, per_shard) -> None:
        from repro.core.index import FloodIndex

        serial_execute = FloodIndex.execute_plan
        mergeable = is_mergeable(visitor)

        def scan_shard(shard_runs):
            shard_visitor = visitor.fresh() if mergeable else RecordingVisitor()
            local = QueryStats()
            serial_execute(index, plan, query, shard_visitor, local, runs=shard_runs)
            return shard_visitor, local

        table = index.table
        for shard_visitor, local in self._pool().map(scan_shard, per_shard):
            if mergeable:
                visitor.merge(shard_visitor)
            else:
                shard_visitor.replay(table, visitor)
            stats.points_scanned += local.points_scanned
            stats.points_matched += local.points_matched
            stats.exact_points += local.exact_points
            stats.kernel_groups += local.kernel_groups


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


class ProcessBackend(ScanBackend):
    """Shard scans on a persistent pool of worker processes.

    Setup cost is paid once: the table is copied into shared memory
    (unless it already is one — pass a :class:`SharedMemoryTable` to
    share segments across backends) and each worker process attaches
    zero-copy views in its pool initializer. Per query, only run lists,
    resolved residual bounds, and partial aggregates cross the process
    boundary — a few hundred bytes each way for mergeable visitors.

    Parameters
    ----------
    table:
        The built index's clustered table (or an existing
        :class:`SharedMemoryTable`).
    workers:
        Pool size; default one per core
        (:func:`repro.core.shard.default_num_shards`).
    mp_context:
        Optional ``multiprocessing`` context (the platform default —
        ``fork`` on Linux — is fastest; ``spawn`` also works since
        workers attach by segment name).

    Shutdown (or process exit, via the shm registry's ``atexit`` sweep)
    unlinks every owned segment — no leaks, verified by the tier-1 leak
    test.
    """

    name = "process"

    def __init__(self, table, workers: int | None = None, mp_context=None):
        from repro.core.shard import default_num_shards

        # Validate before the shared-memory copy: a rejected config must
        # not orphan segments (they would linger until the atexit sweep).
        if workers is not None and int(workers) < 1:
            raise QueryError(f"ProcessBackend needs workers >= 1, got {workers}")
        self.workers = int(workers) if workers is not None else default_num_shards()
        if isinstance(table, SharedMemoryTable):
            self.shm_table = table
            self._owns_table = False
        else:
            self.shm_table = SharedMemoryTable.from_table(table)
            self._owns_table = True
        self._mp_context = mp_context
        self._pool: ProcessPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        # Locked check-then-create: concurrent engine worker threads all
        # land here on their first scan, and an unsynchronized race would
        # fork one pool per loser and leak its worker processes.
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_worker_attach,
                    initargs=(self.shm_table.handle,),
                    mp_context=self._mp_context,
                )
            return self._pool

    def scan(self, index, plan, query, visitor, stats, per_shard) -> None:
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
        table = index.table
        for future in futures:  # shard order == storage order, deterministic
            payload, local = future.result()
            if prototype is not None:
                visitor.merge(payload)
            else:
                for start, stop, mask in payload:
                    visitor.visit(table, start, stop, mask)
            stats.points_scanned += local.points_scanned
            stats.points_matched += local.points_matched
            stats.exact_points += local.exact_points
            stats.kernel_groups += local.kernel_groups

    def shutdown(self) -> None:
        """Stop the worker pool and unlink owned shared memory (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._owns_table:
            self.shm_table.unlink()


def resolve_backend(spec, table=None, executor=None) -> ScanBackend:
    """Turn a backend spec into a :class:`ScanBackend` instance.

    Parameters
    ----------
    spec:
        A :class:`ScanBackend` (returned as-is), or one of
        ``'serial'`` / ``'thread'`` / ``'process'``.
    table:
        Required for ``'process'`` — the clustered table to share.
    executor:
        Optional thread pool handed to ``'thread'``.
    """
    if isinstance(spec, ScanBackend):
        return spec
    if spec == "serial":
        return SerialBackend()
    if spec == "thread":
        return ThreadBackend(executor=executor)
    if spec == "process":
        if table is None:
            raise QueryError("the process backend needs a built table to share")
        return ProcessBackend(table)
    raise QueryError(
        f"unknown scan backend {spec!r}; use one of {BACKEND_NAMES} "
        "or a ScanBackend instance"
    )
