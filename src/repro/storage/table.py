"""The column-store table: named numeric columns plus companion structures.

A :class:`Table` is immutable after construction. Clustered indexes produce
a *permuted* table (the storage order is the index, paper Section 1) via
:meth:`Table.permute`. Cumulative-aggregate companion columns (paper
Section 7.1) are added with :meth:`Table.add_cumulative` and answer SUMs
over exact ranges in O(1).

Integer columns are stored as int64 (optionally block-delta compressed);
floating columns keep float64 end to end — they are stored raw (the
delta encoding is integral), and permutation, cumulative companions, and
``min_max`` all preserve the dtype, so float dimensions survive the whole
pipeline without silent truncation.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.errors import SchemaError
from repro.storage.column import CompressedColumn


class Table:
    """An in-memory columnar table of numeric attributes.

    Parameters
    ----------
    columns:
        Mapping of column name to 1-D numeric array; all must share
        length. Integer-typed input becomes int64; floating input stays
        float64 (never compressed — block-delta encoding is integral).
    compress:
        If True (default), store integer columns block-delta compressed;
        otherwise raw arrays (used by the MonetDB-parity sanity bench,
        which the paper runs without compression).
    """

    def __init__(self, columns: Mapping[str, np.ndarray], compress: bool = True):
        if not columns:
            raise SchemaError("a table needs at least one column")
        lengths = {name: len(vals) for name, vals in columns.items()}
        if len(set(lengths.values())) != 1:
            raise SchemaError(f"column lengths disagree: {lengths}")
        self.num_rows = next(iter(lengths.values()))
        self.compressed = bool(compress)
        self._columns = {}
        for name, values in columns.items():
            values = np.asarray(values)
            if np.issubdtype(values.dtype, np.floating):
                self._columns[name] = values.astype(np.float64, copy=False)
            else:
                values = values.astype(np.int64, copy=False)
                self._columns[name] = CompressedColumn(values) if compress else values
        self._cumulative: dict[str, np.ndarray] = {}

    # ----------------------------------------------------------------- schema
    @property
    def dims(self) -> list[str]:
        """Column names, in insertion order."""
        return list(self._columns)

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __len__(self) -> int:
        return self.num_rows

    def _require(self, name: str) -> None:
        if name not in self._columns:
            raise SchemaError(f"unknown column {name!r}; have {self.dims}")

    # ----------------------------------------------------------------- access
    def values(self, name: str, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Decoded int64 values of ``name`` over rows [start, stop)."""
        self._require(name)
        stop = self.num_rows if stop is None else stop
        col = self._columns[name]
        if isinstance(col, CompressedColumn):
            return col.slice(start, stop)
        return col[start:stop]

    def range_mask(self, name: str, start: int, stop: int, low, high) -> np.ndarray:
        """Mask of rows [start, stop) whose ``name`` value lies in
        ``[low, high]``; compressed columns compare their delta codes
        (:meth:`CompressedColumn.range_mask`)."""
        self._require(name)
        col = self._columns[name]
        if isinstance(col, CompressedColumn):
            return col.range_mask(start, stop, low, high)
        values = col[start:stop]
        return (values >= low) & (values <= high)

    def take(self, name: str, indices: np.ndarray) -> np.ndarray:
        """Decoded values of ``name`` at arbitrary row positions."""
        self._require(name)
        col = self._columns[name]
        if isinstance(col, CompressedColumn):
            return col.take(indices)
        return col[np.asarray(indices, dtype=np.int64)]

    def column_matrix(self, names: list[str] | None = None) -> np.ndarray:
        """Rows-by-dims dense matrix of the requested columns."""
        names = names or self.dims
        return np.stack([self.values(name) for name in names], axis=1)

    def min_max(self, name: str) -> tuple:
        """(min, max) of a column, in the column's dtype (python scalars)."""
        values = self.values(name)
        if values.size == 0:
            raise SchemaError("min_max of an empty table")
        return values.min().item(), values.max().item()

    # ------------------------------------------------------------- clustering
    def permute(self, order: np.ndarray) -> "Table":
        """A new table with rows reordered by ``order`` (the storage order).

        Cumulative columns are *not* carried over — they are position-
        dependent and must be re-added after clustering.
        """
        order = np.asarray(order, dtype=np.int64)
        if order.shape != (self.num_rows,):
            raise ValueError("order must be a full-length permutation")
        data = {name: self.take(name, order) for name in self.dims}
        return Table(data, compress=self.compressed)

    # -------------------------------------------------- cumulative aggregates
    def add_cumulative(self, name: str) -> None:
        """Add a prefix-sum companion column for O(1) exact-range SUMs."""
        self._require(name)
        values = self.values(name)
        dtype = np.float64 if np.issubdtype(values.dtype, np.floating) else np.int64
        prefix = np.zeros(self.num_rows + 1, dtype=dtype)
        np.cumsum(values, out=prefix[1:])
        self._cumulative[name] = prefix

    def has_cumulative(self, name: str) -> bool:
        return name in self._cumulative

    def cumulative_sum(self, name: str, start: int, stop: int):
        """SUM(name) over rows [start, stop) from the prefix column
        (python int for integer columns, float for float columns)."""
        prefix = self._cumulative.get(name)
        if prefix is None:
            raise SchemaError(f"no cumulative column for {name!r}")
        return (prefix[stop] - prefix[start]).item()

    # ------------------------------------------------------------------- size
    def size_bytes(self) -> int:
        """Data footprint (columns + cumulative companions)."""
        total = 0
        for col in self._columns.values():
            total += col.size_bytes() if isinstance(col, CompressedColumn) else col.nbytes
        total += sum(prefix.nbytes for prefix in self._cumulative.values())
        return int(total)
