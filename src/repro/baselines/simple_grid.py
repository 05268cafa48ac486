"""Equal-width grid over all d dimensions ("Simple Grid", Figure 11).

The Figure 11 ablation starts from "a 'Simple Grid' on all d dimensions,
with the number of columns in each dimension proportional to that
dimension's selectivity" — a d-dimensional histogram with no sort dimension,
no flattening, and no learned layout. It also serves as the structural
chassis for Flood's own grid.
"""

from __future__ import annotations

import numpy as np

from repro.errors import BuildError, SchemaError
from repro.query.base import BaseIndex, timed
from repro.query.predicate import Query
from repro.query.stats import QueryStats
from repro.storage.scan import scan_range
from repro.storage.table import Table
from repro.storage.visitor import Visitor


def merge_runs(sorted_ids: np.ndarray) -> list[tuple[int, int]]:
    """Merge consecutive integers into inclusive [first, last] runs.

    Cells with adjacent ids are physically contiguous, so merging them lets
    one scan cover a whole block of cells (the paper notes identifying "a
    block of cells along a single grid dimension" is cheaper).
    """
    if sorted_ids.size == 0:
        return []
    breaks = np.nonzero(np.diff(sorted_ids) > 1)[0]
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [sorted_ids.size - 1]))
    return [(int(sorted_ids[a]), int(sorted_ids[b])) for a, b in zip(starts, ends)]


class SimpleGridIndex(BaseIndex):
    """Uniform (equal-width) grid over every indexed dimension.

    Parameters
    ----------
    columns:
        Mapping of dimension name -> number of equal-width columns. The
        dimension order of this mapping is the cell-id nesting order (the
        last dimension varies fastest).
    """

    name = "Simple Grid"

    def __init__(self, columns: dict[str, int]):
        super().__init__()
        if not columns:
            raise BuildError("grid needs at least one dimension")
        for dim, count in columns.items():
            if count < 1:
                raise BuildError(f"column count for {dim!r} must be >= 1")
        self.columns = dict(columns)
        self._dims = list(columns)

    # ------------------------------------------------------------------ build
    def _build(self, table: Table) -> None:
        for dim in self._dims:
            if dim not in table:
                raise SchemaError(f"grid dimension {dim!r} not in table")
        self._mins = {}
        self._ranges = {}
        cell_ids = np.zeros(table.num_rows, dtype=np.int64)
        for dim in self._dims:
            lo, hi = table.min_max(dim)
            self._mins[dim] = lo
            self._ranges[dim] = hi - lo + 1
            cols = self._column_of(dim, table.values(dim))
            cell_ids = cell_ids * self.columns[dim] + cols
        self.num_cells = int(np.prod([self.columns[d] for d in self._dims]))
        order = np.argsort(cell_ids, kind="stable")
        self._table = table.permute(order)
        counts = np.bincount(cell_ids, minlength=self.num_cells)
        self._cell_starts = np.zeros(self.num_cells + 1, dtype=np.int64)
        np.cumsum(counts, out=self._cell_starts[1:])

    def _column_of(self, dim: str, values: np.ndarray) -> np.ndarray:
        """Equal-width column assignment: floor((v - min) / range * c)."""
        cols = (
            (values.astype(np.float64) - self._mins[dim])
            / self._ranges[dim]
            * self.columns[dim]
        ).astype(np.int64)
        return np.clip(cols, 0, self.columns[dim] - 1)

    # ------------------------------------------------------------------ query
    def _column_range(self, dim: str, low: int, high: int) -> tuple[int, int]:
        """Inclusive column range intersecting [low, high] on one dimension."""
        count = self.columns[dim]
        first = int(
            np.clip(
                (low - self._mins[dim]) / self._ranges[dim] * count, 0, count - 1
            )
        )
        last = int(
            np.clip(
                (high - self._mins[dim]) / self._ranges[dim] * count, 0, count - 1
            )
        )
        return first, last

    def intersecting_cells(self, query: Query) -> np.ndarray:
        """Sorted ids of grid cells intersecting the query rectangle."""
        per_dim = []
        for dim in self._dims:
            low, high = query.bounds(dim)
            first, last = self._column_range(dim, low, high)
            per_dim.append(np.arange(first, last + 1, dtype=np.int64))
        ids = np.zeros(1, dtype=np.int64)
        for dim, cols in zip(self._dims, per_dim):
            ids = (ids[:, None] * self.columns[dim] + cols[None, :]).reshape(-1)
        return ids

    def query(self, query: Query, visitor: Visitor) -> QueryStats:
        stats = QueryStats()
        index_start = timed()
        ids = self.intersecting_cells(query)
        runs = merge_runs(ids)
        stats.cells_visited = int(ids.size)
        stats.index_time = timed() - index_start

        scan_start = timed()
        for first_cell, last_cell in runs:
            start = int(self._cell_starts[first_cell])
            stop = int(self._cell_starts[last_cell + 1])
            scanned, matched = scan_range(
                self.table, query.ranges, start, stop, visitor
            )
            stats.points_scanned += scanned
            stats.points_matched += matched
        stats.scan_time = timed() - scan_start
        stats.total_time = stats.index_time + stats.scan_time
        return stats

    def size_bytes(self) -> int:
        if self._table is None:
            return 0
        # Cell table (one offset per cell) plus per-dim min/range metadata.
        return int(self._cell_starts.nbytes + 16 * len(self._dims))
