"""Per-query and per-workload execution statistics.

These mirror the paper's instrumentation: Table 2 reports scan overhead
(SO), time per scanned point (TPS), scan time (ST), index time (IT, which
for Flood includes projection and refinement), and total time (TT). The
same counters feed the cost model's features (Section 4.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class QueryStats:
    """Counters and timings for a single query execution."""

    points_scanned: int = 0
    points_matched: int = 0
    cells_visited: int = 0
    exact_points: int = 0
    index_time: float = 0.0
    refine_time: float = 0.0
    scan_time: float = 0.0
    total_time: float = 0.0
    #: Residual-filter code groups answered by the fused single-pass
    #: kernel (the rest took the classic per-run path).
    kernel_groups: int = 0

    @property
    def scan_overhead(self) -> float:
        """Points scanned / points matched (paper's SO). inf for zero matches."""
        if self.points_matched == 0:
            return float("inf") if self.points_scanned else 1.0
        return self.points_scanned / self.points_matched

    @property
    def time_per_scan(self) -> float:
        """Average seconds per scanned point (paper's TPS)."""
        if self.points_scanned == 0:
            return 0.0
        return self.scan_time / self.points_scanned


@dataclass
class WorkloadResult:
    """Aggregate statistics over a workload of queries on one index."""

    index_name: str
    per_query: list[QueryStats] = field(default_factory=list)

    def add(self, stats: QueryStats) -> None:
        """Append one query's statistics."""
        self.per_query.append(stats)

    @property
    def num_queries(self) -> int:
        """Number of queries executed."""
        return len(self.per_query)

    def _mean(self, attr: str) -> float:
        if not self.per_query:
            return 0.0
        return sum(getattr(s, attr) for s in self.per_query) / len(self.per_query)

    @property
    def avg_total_time(self) -> float:
        """Mean end-to-end query time in seconds (paper TT)."""
        return self._mean("total_time")

    @property
    def avg_scan_time(self) -> float:
        """Mean scan time in seconds (paper ST)."""
        return self._mean("scan_time")

    @property
    def avg_index_time(self) -> float:
        """Paper IT: everything that is not scanning (projection, refinement,
        tree traversal, z-value computation)."""
        return self._mean("index_time") + self._mean("refine_time")

    @property
    def scan_overhead(self) -> float:
        """Total points scanned / total points matched across the workload."""
        scanned = sum(s.points_scanned for s in self.per_query)
        matched = sum(s.points_matched for s in self.per_query)
        if matched == 0:
            return float("inf") if scanned else 1.0
        return scanned / matched

    @property
    def time_per_scan(self) -> float:
        """Workload-wide seconds per scanned point (paper TPS)."""
        scanned = sum(s.points_scanned for s in self.per_query)
        if scanned == 0:
            return 0.0
        return sum(s.scan_time for s in self.per_query) / scanned

    def summary_row(self) -> dict:
        """One row of the paper's Table 2 (times in milliseconds / ns)."""
        return {
            "index": self.index_name,
            "SO": round(self.scan_overhead, 2),
            "TPS_ns": round(self.time_per_scan * 1e9, 2),
            "ST_ms": round(self.avg_scan_time * 1e3, 4),
            "IT_ms": round(self.avg_index_time * 1e3, 4),
            "TT_ms": round(self.avg_total_time * 1e3, 4),
        }
