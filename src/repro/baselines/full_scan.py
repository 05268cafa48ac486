"""Full scan baseline: every point is visited, but only the columns present
in the query filter are accessed (paper Section 7.2, baseline 1)."""

from __future__ import annotations

from repro.query.base import BaseIndex, timed
from repro.query.predicate import Query
from repro.query.stats import QueryStats
from repro.storage.scan import scan_range
from repro.storage.table import Table
from repro.storage.visitor import Visitor


class FullScanIndex(BaseIndex):
    """Scan-everything baseline; storage order is the input order."""

    name = "Full Scan"

    def _build(self, table: Table) -> None:
        self._table = table

    def query(self, query: Query, visitor: Visitor) -> QueryStats:
        stats = QueryStats()
        start = timed()
        scanned, matched = scan_range(
            self.table, query.ranges, 0, self.table.num_rows, visitor
        )
        stats.scan_time = timed() - start
        stats.total_time = stats.scan_time
        stats.points_scanned = scanned
        stats.points_matched = matched
        stats.cells_visited = 1
        return stats

    def size_bytes(self) -> int:
        return 0
