"""Clustered single-dimension index with an RMI-learned lookup.

Paper Section 7.2, baseline 2: points are sorted by the most selective
dimension in the workload and a learned index (RMI) locates range endpoints
in the sorted column. Queries not filtering the sort dimension fall back to
a full scan.
"""

from __future__ import annotations

from repro.errors import SchemaError
from repro.ml.rmi import RecursiveModelIndex
from repro.query.base import BaseIndex, timed
from repro.query.predicate import Query
from repro.query.stats import QueryStats
from repro.storage.scan import scan_range
from repro.storage.table import Table
from repro.storage.visitor import Visitor

import numpy as np


class ClusteredIndex(BaseIndex):
    """Single-dimension clustered column index, endpoints found by an RMI.

    Parameters
    ----------
    sort_dim:
        The clustering dimension (the paper picks the workload's most
        selective dimension; see ``repro.workloads.most_selective_dim``).
    num_leaves:
        RMI leaf-expert count; ``None`` = sqrt(n).
    """

    name = "Clustered"

    def __init__(self, sort_dim: str, num_leaves: int | None = None):
        super().__init__()
        self.sort_dim = sort_dim
        self.num_leaves = num_leaves
        self._rmi: RecursiveModelIndex | None = None

    def _build(self, table: Table) -> None:
        if self.sort_dim not in table:
            raise SchemaError(f"sort dimension {self.sort_dim!r} not in table")
        values = table.values(self.sort_dim)
        order = np.argsort(values, kind="stable")
        self._table = table.permute(order)
        self._sorted = values[order]
        self._rmi = RecursiveModelIndex(self._sorted, num_leaves=self.num_leaves)

    def query(self, query: Query, visitor: Visitor) -> QueryStats:
        stats = QueryStats()
        table = self.table
        if not query.filters(self.sort_dim):
            start = timed()
            scanned, matched = scan_range(
                table, query.ranges, 0, table.num_rows, visitor
            )
            stats.scan_time = timed() - start
            stats.total_time = stats.scan_time
            stats.points_scanned = scanned
            stats.points_matched = matched
            stats.cells_visited = 1
            return stats

        index_start = timed()
        low, high = query.bounds(self.sort_dim)
        first = self._rmi.search_left(low)
        last = self._rmi.search_right(high)
        residual = [d for d in query.dims if d != self.sort_dim and d in table]
        stats.index_time = timed() - index_start

        scan_start = timed()
        exact = not residual
        scanned, matched = scan_range(
            table,
            query.ranges,
            first,
            last,
            visitor,
            exact=exact,
            skip_dims={self.sort_dim},
        )
        stats.scan_time = timed() - scan_start
        stats.points_scanned = scanned
        stats.points_matched = matched
        if exact:
            stats.exact_points = scanned
        stats.cells_visited = 1
        stats.total_time = stats.index_time + stats.scan_time
        return stats

    def size_bytes(self) -> int:
        if self._rmi is None:
            return 0
        return self._rmi.size_bytes()
