"""Bulk-loaded read-optimized R-tree (paper baseline 8).

The paper benchmarks libspatialindex's R*-tree, bulk loaded to optimize
reads. Offline we implement the canonical bulk load for static data:
Sort-Tile-Recursive (STR) packing, which produces square-ish, minimally
overlapping leaf MBRs — the property the R*-tree's insertion heuristics
approximate. Internal levels group consecutive (spatially coherent) nodes.
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
    __slots__ = ("children", "mins", "maxs", "start", "stop")

    def __init__(self, mins, maxs, start, stop, children=None):
        self.children = children or []
        self.mins = mins
        self.maxs = maxs
        self.start = start
        self.stop = stop

    @property
    def is_leaf(self) -> bool:
        return not self.children


class RStarTreeIndex(BaseIndex):
    """STR-packed R-tree over ``dims``.

    Parameters
    ----------
    dims:
        Indexed dimensions.
    page_size:
        Points per leaf.
    fanout:
        Children per internal node.
    """

    name = "R* Tree"

    def __init__(self, dims: list[str], page_size: int = 512, fanout: int = 16):
        super().__init__()
        if not dims:
            raise SchemaError("R*-tree needs at least one dimension")
        if page_size < 1 or fanout < 2:
            raise ValueError("page_size must be >= 1 and fanout >= 2")
        self.dims = list(dims)
        self.page_size = int(page_size)
        self.fanout = int(fanout)
        self.num_nodes = 0

    # ------------------------------------------------------------------ build
    def _build(self, table: Table) -> None:
        for dim in self.dims:
            if dim not in table:
                raise SchemaError(f"dimension {dim!r} not in table")
        points = table.column_matrix(self.dims)
        leaf_chunks = self._str_pack(points, np.arange(table.num_rows), 0)
        order = (
            np.concatenate(leaf_chunks)
            if leaf_chunks
            else np.empty(0, dtype=np.int64)
        )
        self._table = table.permute(order)
        # Leaf nodes over the permuted physical order.
        self.num_nodes = 0
        nodes: list[_Node] = []
        cursor = 0
        clustered = self._table.column_matrix(self.dims)
        for chunk in leaf_chunks:
            start, stop = cursor, cursor + chunk.size
            cursor = stop
            section = clustered[start:stop]
            nodes.append(
                _Node(section.min(axis=0), section.max(axis=0), start, stop)
            )
            self.num_nodes += 1
        if not nodes:
            zeros = np.zeros(len(self.dims), dtype=np.int64)
            nodes = [_Node(zeros, zeros, 0, 0)]
            self.num_nodes = 1
        # Pack consecutive nodes upward until a single root remains.
        while len(nodes) > 1:
            parents = []
            for i in range(0, len(nodes), self.fanout):
                group = nodes[i : i + self.fanout]
                parents.append(
                    _Node(
                        np.min([g.mins for g in group], axis=0),
                        np.max([g.maxs for g in group], axis=0),
                        group[0].start,
                        group[-1].stop,
                        children=group,
                    )
                )
                self.num_nodes += 1
            nodes = parents
        self._root = nodes[0]

    def _str_pack(self, points, idx, dim_pos) -> list[np.ndarray]:
        """Sort-Tile-Recursive: returns leaf chunks of row indices."""
        n = idx.size
        if n == 0:
            return []
        remaining = len(self.dims) - dim_pos
        order = np.argsort(points[idx, dim_pos], kind="stable")
        idx = idx[order]
        if remaining <= 1 or n <= self.page_size:
            return [
                idx[i : i + self.page_size] for i in range(0, n, self.page_size)
            ]
        num_leaves = int(np.ceil(n / self.page_size))
        slabs = int(np.ceil(num_leaves ** (1.0 / remaining)))
        slab_points = int(np.ceil(n / slabs))
        chunks: list[np.ndarray] = []
        for i in range(0, n, slab_points):
            chunks.extend(self._str_pack(points, idx[i : i + slab_points], dim_pos + 1))
        return chunks

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
        # Per node: 2d bounds + start/stop + fanout child pointers.
        d = len(self.dims)
        return int(self.num_nodes * 8 * (2 * d + 2 + self.fanout))
