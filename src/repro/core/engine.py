"""Throughput-mode batch query execution over a Flood index.

The single-query path (:meth:`FloodIndex.query`) optimizes latency; this
module optimizes aggregate throughput for serving many queries: an
optional worker pool parallelizes across queries — the numpy kernels
(plan slicing, ``searchsorted`` refinement, gathered scans) release the
GIL for their heavy lifting, so threads scale on multicore without
sharding the table. For parallelism *within* one large
query, pair the engine with :class:`~repro.core.shard.ShardedFloodIndex`;
for serving concurrent clients, put :mod:`repro.serve` in front of it.

Every query still gets its own :class:`QueryStats` and visitor, and results
are bit-identical to running :meth:`FloodIndex.query` (or the seed's
per-cell loop) query by query.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from repro.core.protocol import require_queryable
from repro.errors import QueryError
from repro.query.base import timed
from repro.query.stats import QueryStats, WorkloadResult
from repro.storage.visitor import CountVisitor, Visitor


@dataclass
class BatchResult:
    """Per-query stats and visitors plus batch-level throughput numbers."""

    stats: list[QueryStats] = field(default_factory=list)
    visitors: list[Visitor] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def num_queries(self) -> int:
        return len(self.stats)

    @property
    def results(self) -> list:
        """Each query's aggregate (visitor result), in input order."""
        return [visitor.result for visitor in self.visitors]

    @property
    def queries_per_second(self) -> float:
        """Aggregate throughput over the batch's wall time.

        Guarded against degenerate timing: an empty batch, or one so fast
        (or so coarsely clocked) that the measured wall time is zero or
        negative, reports ``0.0`` rather than raising or returning ``inf``.
        """
        if self.num_queries == 0 or self.wall_seconds <= 0.0:
            return 0.0
        return self.num_queries / self.wall_seconds

    @property
    def points_matched(self) -> int:
        return sum(s.points_matched for s in self.stats)

    @property
    def points_scanned(self) -> int:
        return sum(s.points_scanned for s in self.stats)

    def workload_result(self, index_name: str) -> WorkloadResult:
        """Adapt to the benchmark harness's per-workload statistics."""
        result = WorkloadResult(index_name)
        for stats in self.stats:
            result.add(stats)
        return result


class BatchQueryEngine:
    """Executes batches of queries against a built queryable index.

    Parameters
    ----------
    index:
        Any built index satisfying the queryable-index protocol
        (:mod:`repro.core.protocol`): a plain :class:`FloodIndex` (any
        ``flatten`` / ``refinement`` variant),
        :class:`~repro.core.shard.ShardedFloodIndex` — engine workers
        then parallelize across queries while each large query's scan
        fans out across the index's worker processes (both pools are
        bounded, so the combination cannot oversubscribe unboundedly) —
        or a mutable :class:`~repro.core.delta.DeltaBufferedFlood`.
    workers:
        Worker threads for query-level parallelism. 1 (default) runs the
        batch on the calling thread.
    executor:
        Optional externally-owned :class:`ThreadPoolExecutor` to dispatch
        worker jobs on (the serving layer shares one pool across batches).
        When given, ``workers`` only controls job chunking and the engine
        never shuts the pool down.
    """

    def __init__(
        self,
        index,
        workers: int = 1,
        executor=None,
    ):
        # Anything satisfying the queryable-index protocol serves: plain,
        # sharded, or delta-buffered (raises BuildError when not built).
        require_queryable(index)
        self.index = index
        self.workers = max(1, int(workers))
        self.executor = executor

    @staticmethod
    def replay_stats(stats: QueryStats) -> QueryStats:
        """Cache-bypass hook: per-query stats for a result served *without*
        running the engine.

        The serving layer's :class:`~repro.serve.cache.ResultCache` stores
        the :class:`QueryStats` of the execution that populated an entry;
        every request answered from cache gets its own fresh copy through
        this hook, preserving the engine's contract that each query owns a
        private mutable stats object while keeping the counters identical
        to the uncached execution (the work the answer *represents*, even
        though a hit re-performs none of it).
        """
        return replace(stats)

    # ------------------------------------------------------------------- run
    def run(self, queries, visitor_factory=CountVisitor, visitors=None) -> BatchResult:
        """Execute ``queries``; one visitor + one QueryStats per query.

        Parameters
        ----------
        queries:
            Iterable of :class:`~repro.query.predicate.Query`.
        visitor_factory:
            Zero-argument callable producing a fresh visitor per query
            (default ``CountVisitor``); ignored when ``visitors`` is given.
        visitors:
            Optional pre-built visitor list aligned with ``queries`` — the
            serving batcher passes one, since requests in a micro-batch may
            ask for different aggregates.

        Returns
        -------
        :class:`BatchResult` with per-query stats and visitors in input
        order plus the batch's wall time.
        """
        queries = list(queries)
        if visitors is None:
            visitors = [visitor_factory() for _ in queries]
        elif len(visitors) != len(queries):
            raise QueryError(
                f"{len(queries)} queries but {len(visitors)} visitors"
            )
        stats: list[QueryStats | None] = [None] * len(queries)
        wall_start = timed()
        if self.workers == 1 or len(queries) <= 1:
            for i, query in enumerate(queries):
                stats[i] = self.index.query(query, visitors[i])
        else:
            # Chunked jobs: one dispatch per block, not per query, so pool
            # overhead stays negligible even for sub-millisecond queries.
            block = max(1, len(queries) // (self.workers * 4))
            blocks = range(0, len(queries), block)

            def job(first):
                for i in range(first, min(first + block, len(queries))):
                    stats[i] = self.index.query(queries[i], visitors[i])

            if self.executor is not None:
                list(self.executor.map(job, blocks))
            else:
                with ThreadPoolExecutor(max_workers=self.workers) as pool:
                    list(pool.map(job, blocks))
        return BatchResult(
            stats=stats, visitors=visitors, wall_seconds=timed() - wall_start
        )
