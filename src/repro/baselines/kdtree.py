"""k-d tree with median splits (paper baseline 7 / Appendix A).

Space is recursively partitioned at the median value of one dimension at a
time, cycling through the dimensions round-robin in order of decreasing
selectivity, until each leaf holds at most ``page_size`` points. If every
remaining point shares one value in the split dimension, that dimension is
skipped (as the paper specifies).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SchemaError
from repro.query.base import BaseIndex, timed
from repro.query.predicate import Query
from repro.query.stats import QueryStats
from repro.storage.scan import scan_range
from repro.storage.table import Table
from repro.storage.visitor import Visitor


class _Node:
    __slots__ = ("dim", "split", "left", "right", "start", "stop", "mins", "maxs")

    def __init__(self):
        self.dim = -1
        self.split = 0
        self.left = None
        self.right = None
        self.start = 0
        self.stop = 0
        self.mins = None
        self.maxs = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class KDTreeIndex(BaseIndex):
    """Median-split k-d tree.

    Parameters
    ----------
    dims:
        Indexed dimensions, in decreasing selectivity order (the round-robin
        split order).
    page_size:
        Maximum points per leaf.
    """

    name = "K-d tree"

    def __init__(self, dims: list[str], page_size: int = 512):
        super().__init__()
        if not dims:
            raise SchemaError("k-d tree needs at least one dimension")
        if page_size < 1:
            raise ValueError("page_size must be >= 1")
        self.dims = list(dims)
        self.page_size = int(page_size)
        self.num_nodes = 0
        self.num_leaves = 0

    def _build(self, table: Table) -> None:
        for dim in self.dims:
            if dim not in table:
                raise SchemaError(f"dimension {dim!r} not in table")
        points = table.column_matrix(self.dims)
        order_out: list[np.ndarray] = []
        self.num_nodes = 0
        self.num_leaves = 0
        self._root = self._grow(points, np.arange(table.num_rows), 0, order_out)
        order = (
            np.concatenate(order_out) if order_out else np.empty(0, dtype=np.int64)
        )
        self._table = table.permute(order)

    def _grow(self, points, idx, depth, order_out) -> _Node:
        node = _Node()
        self.num_nodes += 1
        node.start = sum(chunk.size for chunk in order_out)
        subset = points[idx]
        node.mins = subset.min(axis=0) if idx.size else None
        node.maxs = subset.max(axis=0) if idx.size else None
        if idx.size <= self.page_size:
            self.num_leaves += 1
            order_out.append(idx)
            node.stop = node.start + idx.size
            return node
        # Round-robin dimension choice, skipping constant dimensions.
        d = len(self.dims)
        split_dim = -1
        for offset in range(d):
            candidate = (depth + offset) % d
            column = subset[:, candidate]
            if column.min() != column.max():
                split_dim = candidate
                break
        if split_dim < 0:
            # All points identical on every dimension: oversized leaf.
            self.num_leaves += 1
            order_out.append(idx)
            node.stop = node.start + idx.size
            return node
        column = subset[:, split_dim]
        split = int(np.median(column))
        left_mask = column <= split
        if left_mask.all():
            # Median equals the max: shift the boundary below it.
            split -= 1
            left_mask = column <= split
        node.dim = split_dim
        node.split = split
        node.left = self._grow(points, idx[left_mask], depth + 1, order_out)
        node.right = self._grow(points, idx[~left_mask], depth + 1, order_out)
        node.stop = sum(chunk.size for chunk in order_out)
        return node

    # ------------------------------------------------------------------ query
    def query(self, query: Query, visitor: Visitor) -> QueryStats:
        stats = QueryStats()
        index_start = timed()
        lows = np.array([query.bounds(d)[0] for d in self.dims], dtype=np.int64)
        highs = np.array([query.bounds(d)[1] for d in self.dims], dtype=np.int64)
        ranges: list[tuple[int, int, bool]] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.stop == node.start:
                continue
            if np.any(node.maxs < lows) or np.any(node.mins > highs):
                continue
            if node.is_leaf:
                stats.cells_visited += 1
                contained = bool(
                    np.all(node.mins >= lows) and np.all(node.maxs <= highs)
                )
                ranges.append((node.start, node.stop, contained))
            else:
                stack.append(node.left)
                stack.append(node.right)
        stats.index_time = timed() - index_start

        scan_start = timed()
        for start, stop, contained in ranges:
            scanned, matched = scan_range(
                self.table, query.ranges, start, stop, visitor, exact=contained
            )
            stats.points_scanned += scanned
            stats.points_matched += matched
            if contained:
                stats.exact_points += scanned
        stats.scan_time = timed() - scan_start
        stats.total_time = stats.index_time + stats.scan_time
        return stats

    def size_bytes(self) -> int:
        # Per node: split dim + value, 2 child pointers, start/stop, and 2d
        # bounds, 8 bytes each.
        d = len(self.dims)
        return int(self.num_nodes * 8 * (6 + 2 * d))
