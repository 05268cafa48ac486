"""Hyperoctree: recursive 2^d space subdivision (paper baseline 6).

Space is recursively split at the midpoint of every dimension into 2^d
hyperoctants until each leaf holds at most ``page_size`` points. Leaves are
stored contiguously in an in-order (DFS) traversal; each node records the
actual min/max of its points per dimension and its physical extent.
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
    """One hyperoctree node; leaves carry a physical range."""

    __slots__ = ("children", "mins", "maxs", "start", "stop")

    def __init__(self):
        self.children: list["_Node"] = []
        self.mins = None
        self.maxs = None
        self.start = 0
        self.stop = 0

    @property
    def is_leaf(self) -> bool:
        return not self.children


class HyperoctreeIndex(BaseIndex):
    """Recursive equal-subdivision tree over ``dims``.

    Parameters
    ----------
    dims:
        Indexed dimensions.
    page_size:
        Maximum points per leaf (the paper's single tunable).
    """

    name = "Hyperoctree"

    def __init__(self, dims: list[str], page_size: int = 512):
        super().__init__()
        if not dims:
            raise SchemaError("hyperoctree needs at least one dimension")
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
        n = table.num_rows
        region_lo = points.min(axis=0) if n else np.zeros(len(self.dims), dtype=np.int64)
        region_hi = points.max(axis=0) if n else np.zeros(len(self.dims), dtype=np.int64)
        order_out: list[np.ndarray] = []
        self.num_nodes = 0
        self.num_leaves = 0
        self._root = self._grow(points, np.arange(n), region_lo, region_hi, order_out)
        order = (
            np.concatenate(order_out) if order_out else np.empty(0, dtype=np.int64)
        )
        self._table = table.permute(order)

    def _grow(self, points, idx, region_lo, region_hi, order_out) -> _Node:
        node = _Node()
        self.num_nodes += 1
        node.start = sum(chunk.size for chunk in order_out)
        subset = points[idx]
        node.mins = subset.min(axis=0) if idx.size else region_lo
        node.maxs = subset.max(axis=0) if idx.size else region_hi
        degenerate = bool(np.all(region_lo >= region_hi))
        if idx.size <= self.page_size or degenerate:
            self.num_leaves += 1
            order_out.append(idx)
            node.stop = node.start + idx.size
            return node
        mid = (region_lo + region_hi) // 2
        # Octant id: bit k set when the point lies in the upper half of dim k.
        octant = np.zeros(idx.size, dtype=np.int64)
        for k in range(len(self.dims)):
            octant |= (subset[:, k] > mid[k]).astype(np.int64) << k
        for child_id in range(1 << len(self.dims)):
            child_idx = idx[octant == child_id]
            if child_idx.size == 0:
                continue
            child_lo = region_lo.copy()
            child_hi = region_hi.copy()
            for k in range(len(self.dims)):
                if (child_id >> k) & 1:
                    child_lo[k] = mid[k] + 1
                else:
                    child_hi[k] = mid[k]
            node.children.append(
                self._grow(points, child_idx, child_lo, child_hi, order_out)
            )
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
                stack.extend(node.children)
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
        # Per node: 2d bounds + start/stop + 2^d child pointers, 8 bytes each
        # (modeling the paper's C++ node layout).
        d = len(self.dims)
        return int(self.num_nodes * 8 * (2 * d + 2 + (1 << d)))
