"""Workload-shift detection (paper Section 8, "Shifting workloads").

"Flood could periodically evaluate the cost of the current layout on
queries over a recent time window. If the cost exceeds a threshold, Flood
can replace the layout." This module implements exactly that loop:

- :class:`WorkloadMonitor` keeps a sliding window of executed queries and
  their measured times, plus the baseline established right after the last
  retrain;
- when the recent average exceeds ``threshold`` times the baseline (with a
  minimum window), it signals that retraining is worthwhile;
- :meth:`AdaptiveFlood.query` wires the monitor to an actual index and
  retrains in place when signalled, reproducing the Figure 10 spike-and-
  recover pattern without manual retrain triggers.
"""

from __future__ import annotations

from collections import deque

from repro.core.calibration import build_flood
from repro.core.cost import CostModel
from repro.query.predicate import Query
from repro.query.stats import QueryStats
from repro.storage.table import Table
from repro.storage.visitor import Visitor


class WorkloadMonitor:
    """Sliding-window cost monitor with a retrain signal.

    Parameters
    ----------
    window:
        Number of recent queries considered.
    threshold:
        Signal retrain when ``recent_avg > threshold * baseline_avg``.
    min_samples:
        Do not signal before this many queries in both the baseline and
        the recent window.
    """

    def __init__(self, window: int = 50, threshold: float = 2.0, min_samples: int = 20):
        if window < 1 or min_samples < 1:
            raise ValueError("window and min_samples must be >= 1")
        if threshold <= 1.0:
            raise ValueError("threshold must exceed 1.0")
        self.window = int(window)
        self.threshold = float(threshold)
        self.min_samples = int(min_samples)
        self._recent: deque[tuple[Query, float]] = deque(maxlen=window)
        self._baseline_sum = 0.0
        self._baseline_count = 0

    def record(self, query: Query, seconds: float) -> None:
        """Record one executed query and its measured time."""
        self._recent.append((query, float(seconds)))
        # The baseline accumulates only until it has enough mass; it is
        # reset on retrain so "normal" always means the current layout.
        if self._baseline_count < self.window:
            self._baseline_sum += float(seconds)
            self._baseline_count += 1

    @property
    def baseline_avg(self) -> float:
        if self._baseline_count == 0:
            return 0.0
        return self._baseline_sum / self._baseline_count

    @property
    def recent_avg(self) -> float:
        if not self._recent:
            return 0.0
        return sum(t for _, t in self._recent) / len(self._recent)

    def should_retrain(self) -> bool:
        """True when the recent window is significantly above baseline."""
        if (
            self._baseline_count < self.min_samples
            or len(self._recent) < self.min_samples
        ):
            return False
        baseline = self.baseline_avg
        if baseline <= 0:
            return False
        return self.recent_avg > self.threshold * baseline

    def recent_queries(self) -> list[Query]:
        """The retraining workload: the current window's queries."""
        return [q for q, _ in self._recent]

    def reset(self) -> None:
        """Start a fresh baseline (call after retraining)."""
        self._recent.clear()
        self._baseline_sum = 0.0
        self._baseline_count = 0


class AdaptiveFlood:
    """A self-retraining Flood: monitor + automatic layout replacement.

    Parameters
    ----------
    table:
        The table to index.
    initial_queries:
        Workload used for the first layout.
    cost_model:
        Cost model for optimization (None = the calibrated default).
    monitor:
        A :class:`WorkloadMonitor` (None = defaults).
    """

    def __init__(
        self,
        table: Table,
        initial_queries,
        cost_model: CostModel | None = None,
        monitor: WorkloadMonitor | None = None,
        seed: int = 0,
    ):
        self._table = table
        self._cost_model = cost_model
        self._seed = seed
        self.monitor = monitor or WorkloadMonitor()
        self.retrains = 0
        self.index, self.optimization = build_flood(
            table, initial_queries, cost_model=cost_model, seed=seed
        )

    def query(self, query: Query, visitor: Visitor) -> QueryStats:
        """Execute a query; retrain transparently when the monitor fires."""
        stats = self.index.query(query, visitor)
        self.monitor.record(query, stats.total_time)
        if self.monitor.should_retrain():
            self._retrain()
        return stats

    def _retrain(self) -> None:
        queries = self.monitor.recent_queries()
        self.index, self.optimization = build_flood(
            self._table, queries, cost_model=self._cost_model,
            seed=self._seed + self.retrains + 1,
        )
        self.monitor.reset()
        self.retrains += 1
