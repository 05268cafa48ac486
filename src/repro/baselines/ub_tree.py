"""UB-tree: Z-value ordered pages with BIGMIN skip-ahead.

Paper Section 7.2, baseline 5 / Appendix A: points are ordered by Z-value
and paged; each page stores its minimum Z-value. A query walks the curve
from the rectangle's smallest Z-value; whenever the curve exits the query
rectangle, the next in-rectangle Z-value is computed (BIGMIN) and the walk
skips directly to the page containing it — avoiding the unnecessary scans
the plain Z-order index performs.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.zcurve import ZEncoder
from repro.errors import SchemaError
from repro.query.base import BaseIndex, timed
from repro.query.predicate import Query
from repro.query.stats import QueryStats
from repro.storage.scan import scan_range
from repro.storage.table import Table
from repro.storage.visitor import Visitor


class UBTreeIndex(BaseIndex):
    """Z-curve pages with BIGMIN skip-ahead.

    Parameters
    ----------
    dims:
        Indexed dimensions, most selective first.
    page_size:
        Points per page.
    """

    name = "UB tree"

    def __init__(self, dims: list[str], page_size: int = 512):
        super().__init__()
        if not dims:
            raise SchemaError("UB-tree needs at least one dimension")
        self.dims = list(dims)
        self.page_size = int(page_size)

    def _build(self, table: Table) -> None:
        for dim in self.dims:
            if dim not in table:
                raise SchemaError(f"dimension {dim!r} not in table")
        mins = np.array([table.min_max(d)[0] for d in self.dims], dtype=np.int64)
        maxs = np.array([table.min_max(d)[1] for d in self.dims], dtype=np.int64)
        self._encoder = ZEncoder(mins, maxs)
        z = self._encoder.encode(table.column_matrix(self.dims))
        order = np.argsort(z, kind="stable")
        self._table = table.permute(order)
        self._z_sorted = z[order]
        n = table.num_rows
        starts = np.arange(0, n, self.page_size, dtype=np.int64)
        self._page_starts = np.append(starts, n)
        self.num_pages = len(starts)
        # Per-page minimum Z-value (what the paper's UB-tree stores) plus the
        # maximum, used to advance the cursor past a scanned page.
        self._page_min_z = self._z_sorted[starts]
        last = np.minimum(starts + self.page_size, n) - 1
        self._page_max_z = self._z_sorted[last]

    def query(self, query: Query, visitor: Visitor) -> QueryStats:
        stats = QueryStats()
        index_start = timed()
        lows = np.empty(len(self.dims), dtype=np.int64)
        highs = np.empty(len(self.dims), dtype=np.int64)
        for k, dim in enumerate(self.dims):
            low, high = query.bounds(dim)
            lows[k] = max(low, int(self._encoder.mins[k]))
            highs[k] = min(high, int(self._encoder.maxs[k]))
        if np.any(lows > highs):
            stats.index_time = timed() - index_start
            stats.total_time = stats.index_time
            return stats
        zmin, zmax = self._encoder.rect_codes(lows, highs)
        stats.index_time = timed() - index_start

        cursor = zmin
        while cursor <= zmax:
            step_start = timed()
            # Page containing the cursor's Z-value.
            page = int(np.searchsorted(self._page_min_z, np.uint64(cursor), side="right")) - 1
            page = max(page, 0)
            if int(self._page_max_z[page]) < cursor:
                page += 1
            if page >= self.num_pages:
                stats.index_time += timed() - step_start
                break
            stats.cells_visited += 1
            stats.index_time += timed() - step_start

            scan_start = timed()
            start = int(self._page_starts[page])
            stop = int(self._page_starts[page + 1])
            scanned, matched = scan_range(self.table, query.ranges, start, stop, visitor)
            stats.points_scanned += scanned
            stats.points_matched += matched
            stats.scan_time += timed() - scan_start

            skip_start = timed()
            cursor = int(self._page_max_z[page]) + 1
            if cursor > zmax:
                stats.index_time += timed() - skip_start
                break
            if not self._encoder.in_rect(cursor, zmin, zmax):
                next_z = self._encoder.bigmin(cursor, zmin, zmax)
                stats.index_time += timed() - skip_start
                if next_z is None:
                    break
                cursor = next_z
            else:
                stats.index_time += timed() - skip_start
        stats.total_time = stats.index_time + stats.scan_time
        return stats

    def size_bytes(self) -> int:
        if self._table is None:
            return 0
        return int(
            self._page_starts.nbytes
            + self._page_min_z.nbytes
            + self._page_max_z.nbytes
            + self._encoder.size_bytes()
        )
