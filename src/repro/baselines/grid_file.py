"""Grid File [30] (paper baseline 3 / Appendix A).

The d-dimensional space is divided into blocks by per-dimension linear
scales; multiple adjacent blocks constitute a bucket, and all points in a
bucket are stored contiguously and unsorted. The grid is built
*incrementally*: points are inserted one at a time, and when a bucket
exceeds the page size it is split — along an existing block boundary if the
bucket spans several blocks, otherwise by adding a new grid column at the
bucket's midpoint in a round-robin dimension.

Unlike Flood, the columns are not chosen for any query workload, and the
directory (one entry per block) exhibits the superlinear growth the paper
cites as a Grid File weakness [9]. On heavily skewed data, construction can
effectively not terminate (the paper omits Grid File results that "took
over an hour"); we bound the directory size and raise
:class:`~repro.errors.BuildError` instead, which the benchmarks report as
``N/A`` exactly like the paper.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.errors import BuildError, SchemaError
from repro.query.base import BaseIndex, timed
from repro.query.predicate import Query
from repro.query.stats import QueryStats
from repro.storage.scan import scan_range
from repro.storage.table import Table
from repro.storage.visitor import Visitor

_MAX_SPLIT_DEPTH = 64


class GridFileIndex(BaseIndex):
    """Incrementally built Grid File.

    Parameters
    ----------
    dims:
        Indexed dimensions.
    page_size:
        Bucket capacity (the Grid File's single tunable, per the paper).
    max_directory_entries:
        Construction aborts with BuildError beyond this directory size,
        standing in for the paper's one-hour construction cutoff.
    """

    name = "Grid File"

    def __init__(
        self,
        dims: list[str],
        page_size: int = 512,
        max_directory_entries: int = 1 << 22,
    ):
        super().__init__()
        if not dims:
            raise SchemaError("grid file needs at least one dimension")
        if page_size < 1:
            raise ValueError("page_size must be >= 1")
        self.dims = list(dims)
        self.page_size = int(page_size)
        self.max_directory_entries = int(max_directory_entries)

    # ------------------------------------------------------------------ build
    def _build(self, table: Table) -> None:
        for dim in self.dims:
            if dim not in table:
                raise SchemaError(f"dimension {dim!r} not in table")
        d = len(self.dims)
        points = table.column_matrix(self.dims)
        self._data_lo = points.min(axis=0) if len(points) else np.zeros(d, np.int64)
        self._data_hi = points.max(axis=0) if len(points) else np.zeros(d, np.int64)
        # Per-dimension linear scales (sorted split boundaries). A point's
        # block index along dim k is bisect_right(scales[k], value).
        self._scales: list[list[int]] = [[] for _ in range(d)]
        # Directory: d-dimensional array of bucket ids, one entry per block.
        self._directory = np.zeros((1,) * d, dtype=np.int64)
        self._bucket_points: list[list[int]] = [[]]
        self._next_split_dim = 0

        for row in range(len(points)):
            self._insert(points, row)

        # Freeze: store buckets contiguously, record offsets.
        order_chunks = [
            np.asarray(pts, dtype=np.int64) for pts in self._bucket_points
        ]
        order = (
            np.concatenate(order_chunks) if order_chunks else np.empty(0, np.int64)
        )
        self._table = table.permute(order)
        sizes = np.array([len(p) for p in self._bucket_points], dtype=np.int64)
        self._bucket_starts = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=self._bucket_starts[1:])
        self.num_buckets = len(self._bucket_points)

    def _block_of(self, point: np.ndarray) -> tuple[int, ...]:
        return tuple(
            bisect_right(self._scales[k], int(point[k]))
            for k in range(len(self.dims))
        )

    def _insert(self, points: np.ndarray, row: int) -> None:
        block = self._block_of(points[row])
        bucket_id = int(self._directory[block])
        self._bucket_points[bucket_id].append(row)
        if len(self._bucket_points[bucket_id]) > self.page_size:
            self._split(points, bucket_id, depth=0)

    # ------------------------------------------------------------------ split
    def _split(self, points: np.ndarray, bucket_id: int, depth: int) -> None:
        if depth > _MAX_SPLIT_DEPTH:
            return  # give up: oversized bucket of (near-)duplicate points
        blocks = np.argwhere(self._directory == bucket_id)
        if blocks.shape[0] > 1:
            self._split_along_existing_boundary(points, bucket_id, blocks, depth)
        else:
            if not self._add_column(points, bucket_id, tuple(blocks[0])):
                return  # all dimensions degenerate: leave the bucket oversized
            self._split(points, bucket_id, depth + 1)

    def _split_along_existing_boundary(
        self, points, bucket_id, blocks, depth
    ) -> None:
        """Divide a multi-block bucket at a median existing boundary."""
        spreads = [
            (np.unique(blocks[:, k]).size, k) for k in range(len(self.dims))
        ]
        spread, axis = max(spreads)
        coords = np.unique(blocks[:, axis])
        cutoff = coords[coords.size // 2]  # blocks >= cutoff move out
        moving = blocks[blocks[:, axis] >= cutoff]
        new_id = len(self._bucket_points)
        self._bucket_points.append([])
        self._directory[tuple(moving.T)] = new_id
        # Redistribute points by recomputing their blocks.
        old_rows = self._bucket_points[bucket_id]
        self._bucket_points[bucket_id] = []
        for row in old_rows:
            block = self._block_of(points[row])
            self._bucket_points[int(self._directory[block])].append(row)
        for candidate in (bucket_id, new_id):
            if len(self._bucket_points[candidate]) > self.page_size:
                self._split(points, candidate, depth + 1)

    def _add_column(self, points, bucket_id, block: tuple[int, ...]) -> bool:
        """Add a grid column at the bucket's midpoint; False if impossible."""
        d = len(self.dims)
        for attempt in range(d):
            k = (self._next_split_dim + attempt) % d
            scale = self._scales[k]
            j = block[k]
            lo = scale[j - 1] if j > 0 else int(self._data_lo[k])
            hi = (scale[j] - 1) if j < len(scale) else int(self._data_hi[k])
            if hi <= lo:
                continue  # block spans a single value in this dimension
            boundary = (lo + hi + 1) // 2  # values >= boundary go right
            self._next_split_dim = (k + 1) % d
            pos = bisect_right(scale, boundary - 1)
            scale.insert(pos, boundary)
            # Duplicate the directory slab at block index `pos` along axis k:
            # the old block j splits into blocks pos and pos+1, both still
            # owned by their previous buckets.
            slab = np.take(self._directory, pos, axis=k)
            self._directory = np.insert(self._directory, pos, slab, axis=k)
            if self._directory.size > self.max_directory_entries:
                raise BuildError(
                    "grid file directory exceeded "
                    f"{self.max_directory_entries} entries (skewed data)"
                )
            return True
        return False

    # ------------------------------------------------------------------ query
    def query(self, query: Query, visitor: Visitor) -> QueryStats:
        stats = QueryStats()
        index_start = timed()
        slices = []
        for k, dim in enumerate(self.dims):
            low, high = query.bounds(dim)
            first = bisect_right(self._scales[k], low)
            last = bisect_right(self._scales[k], high)
            slices.append(slice(first, last + 1))
        buckets = np.unique(self._directory[tuple(slices)])
        stats.cells_visited = int(buckets.size)
        stats.index_time = timed() - index_start

        scan_start = timed()
        for bucket in buckets:
            start = int(self._bucket_starts[bucket])
            stop = int(self._bucket_starts[bucket + 1])
            scanned, matched = scan_range(self.table, query.ranges, start, stop, visitor)
            stats.points_scanned += scanned
            stats.points_matched += matched
        stats.scan_time = timed() - scan_start
        stats.total_time = stats.index_time + stats.scan_time
        return stats

    def size_bytes(self) -> int:
        if self._table is None:
            return 0
        scales = sum(len(s) for s in self._scales) * 8
        return int(self._directory.nbytes + scales + self._bucket_starts.nbytes)
