"""Z-Order index: points sorted by Z-value, grouped into pages with min/max
metadata (paper Section 7.2, baseline 4 / Appendix A).

Given a query, the index finds the smallest and largest Z-values contained
in the query rectangle, binary-searches their physical positions, and
iterates through every page in between — scanning a page only if its per-
dimension min/max rectangle intersects the query rectangle.
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


class ZOrderIndex(BaseIndex):
    """Z-value ordered pages with min/max pruning.

    Parameters
    ----------
    dims:
        Indexed dimensions, most selective first (the most selective
        dimension's LSB becomes the Z-value's LSB, as in the paper).
    page_size:
        Points per page; the paper tunes this per workload.
    """

    name = "Z Order"

    def __init__(self, dims: list[str], page_size: int = 512):
        super().__init__()
        if not dims:
            raise SchemaError("Z-order index needs at least one dimension")
        if page_size < 1:
            raise ValueError("page_size must be >= 1")
        self.dims = list(dims)
        self.page_size = int(page_size)

    # ------------------------------------------------------------------ build
    def _build(self, table: Table) -> None:
        for dim in self.dims:
            if dim not in table:
                raise SchemaError(f"dimension {dim!r} not in table")
        mins = np.array([table.min_max(d)[0] for d in self.dims], dtype=np.int64)
        maxs = np.array([table.min_max(d)[1] for d in self.dims], dtype=np.int64)
        self._encoder = ZEncoder(mins, maxs)
        points = table.column_matrix(self.dims)
        z = self._encoder.encode(points)
        order = np.argsort(z, kind="stable")
        self._table = table.permute(order)
        self._z_sorted = z[order]
        n = table.num_rows
        starts = np.arange(0, n, self.page_size, dtype=np.int64)
        self._page_starts = np.append(starts, n)
        self.num_pages = len(starts)
        # Per-page, per-dim min/max metadata for pruning.
        self._page_mins = np.empty((self.num_pages, len(self.dims)), dtype=np.int64)
        self._page_maxs = np.empty((self.num_pages, len(self.dims)), dtype=np.int64)
        for k, dim in enumerate(self.dims):
            values = self._table.values(dim)
            for p in range(self.num_pages):
                lo, hi = self._page_starts[p], self._page_starts[p + 1]
                self._page_mins[p, k] = values[lo:hi].min()
                self._page_maxs[p, k] = values[lo:hi].max()

    # ------------------------------------------------------------------ query
    def _query_rect(self, query: Query) -> tuple[np.ndarray, np.ndarray]:
        """Clamped per-dim query bounds over the indexed dimensions."""
        lows = np.empty(len(self.dims), dtype=np.int64)
        highs = np.empty(len(self.dims), dtype=np.int64)
        for k, dim in enumerate(self.dims):
            low, high = query.bounds(dim)
            lows[k] = max(low, int(self._encoder.mins[k]))
            highs[k] = min(high, int(self._encoder.maxs[k]))
        return lows, highs

    def query(self, query: Query, visitor: Visitor) -> QueryStats:
        stats = QueryStats()
        index_start = timed()
        lows, highs = self._query_rect(query)
        if np.any(lows > highs):
            stats.index_time = timed() - index_start
            stats.total_time = stats.index_time
            return stats
        zmin, zmax = self._encoder.rect_codes(lows, highs)
        first_pos = int(np.searchsorted(self._z_sorted, np.uint64(zmin), side="left"))
        last_pos = int(np.searchsorted(self._z_sorted, np.uint64(zmax), side="right"))
        first_page = first_pos // self.page_size
        last_page = min((last_pos - 1) // self.page_size, self.num_pages - 1)
        # Prune pages whose min/max rectangle misses the query rectangle.
        pages = np.arange(first_page, last_page + 1)
        if pages.size:
            overlap = np.all(
                (self._page_mins[pages] <= highs) & (self._page_maxs[pages] >= lows),
                axis=1,
            )
            pages = pages[overlap]
        stats.cells_visited = int(last_page - first_page + 1) if last_pos > first_pos else 0
        stats.index_time = timed() - index_start

        scan_start = timed()
        for p in pages:
            start = int(self._page_starts[p])
            stop = int(self._page_starts[p + 1])
            scanned, matched = scan_range(self.table, query.ranges, start, stop, visitor)
            stats.points_scanned += scanned
            stats.points_matched += matched
        stats.scan_time = timed() - scan_start
        stats.total_time = stats.index_time + stats.scan_time
        return stats

    def size_bytes(self) -> int:
        if self._table is None:
            return 0
        return int(
            self._page_starts.nbytes
            + self._page_mins.nbytes
            + self._page_maxs.nbytes
            + self._encoder.size_bytes()
        )
