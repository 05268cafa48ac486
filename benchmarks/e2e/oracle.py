"""Brute-force oracle: the answer a full scan of the raw columns gives.

Independent of every index path: it keeps the generated columns as plain
numpy arrays (in generation order, never clustered), builds the
conjunction mask of a query's inclusive ranges, and counts or sums under
it. The harness precomputes the expected answer for a fixed 1-in-50
sample of each workload's query pool and checks every reply to a sampled
query against it.
"""

from __future__ import annotations

import numpy as np

#: One query in this many is checked against the oracle.
SAMPLE_EVERY = 50


class Oracle:
    """Full-scan answers over ``{dim: values}`` columns."""

    def __init__(self, columns: dict):
        self.columns = {dim: np.asarray(values) for dim, values in columns.items()}

    @classmethod
    def from_table(cls, table) -> "Oracle":
        """Snapshot a generated (not yet clustered) table's columns."""
        return cls({dim: table.values(dim) for dim in table.dims})

    @property
    def num_rows(self) -> int:
        return len(next(iter(self.columns.values())))

    def with_rows(self, rows: dict) -> "Oracle":
        """A new oracle over these columns plus appended ``rows``."""
        return Oracle(
            {
                dim: np.concatenate([values, np.asarray(rows[dim], dtype=values.dtype)])
                for dim, values in self.columns.items()
            }
        )

    def mask(self, ranges: dict) -> np.ndarray:
        """Rows satisfying every inclusive ``dim: (low, high)`` range."""
        mask = np.ones(self.num_rows, dtype=bool)
        for dim, (low, high) in ranges.items():
            values = self.columns[dim]
            mask &= (values >= low) & (values <= high)
        return mask

    def answer(self, ranges: dict, agg: str = "count", dim: str | None = None) -> int:
        """``COUNT(*)`` or ``SUM(dim)`` under the conjunction."""
        mask = self.mask(ranges)
        if agg == "count":
            return int(np.count_nonzero(mask))
        if agg == "sum":
            return int(self.columns[dim][mask].sum())
        raise ValueError(f"oracle has no aggregate {agg!r}")


def sample_ids(pool_size: int, every: int = SAMPLE_EVERY) -> range:
    """Pool positions whose replies are checked (fixed, seed-independent)."""
    return range(0, pool_size, every)
