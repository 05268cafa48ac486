"""The Flood grid layout (paper Section 4.1).

A layout over d dimensions is ``L = (O, {c_i})``: an ordering ``O`` of the
dimensions whose *last* element is the sort dimension, plus the number of
columns ``c_i`` for each of the d-1 grid dimensions. Dimensions a layout
omits are simply not indexed (Flood "chooses not to include the least
frequently filtered dimensions", Section 7.5) — equivalently they get one
column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import BuildError


@dataclass(frozen=True)
class GridLayout:
    """An immutable Flood layout.

    Parameters
    ----------
    order:
        Dimension names; ``order[:-1]`` are the grid dimensions (their cell-
        id nesting order), ``order[-1]`` is the sort dimension.
    columns:
        Column counts for the grid dimensions, aligned with ``order[:-1]``.
    """

    order: tuple[str, ...]
    columns: tuple[int, ...]

    def __post_init__(self):
        if len(self.order) < 1:
            raise BuildError("layout needs at least one dimension")
        if len(set(self.order)) != len(self.order):
            raise BuildError(f"duplicate dimensions in layout order {self.order}")
        if len(self.columns) != len(self.order) - 1:
            raise BuildError(
                f"need {len(self.order) - 1} column counts, got {len(self.columns)}"
            )
        if any(c < 1 for c in self.columns):
            raise BuildError(f"column counts must be >= 1: {self.columns}")
        object.__setattr__(self, "order", tuple(self.order))
        object.__setattr__(self, "columns", tuple(int(c) for c in self.columns))

    # ----------------------------------------------------------------- access
    @property
    def sort_dim(self) -> str:
        """The (refinable) sort dimension."""
        return self.order[-1]

    @property
    def grid_dims(self) -> tuple[str, ...]:
        """The d-1 dimensions forming the grid."""
        return self.order[:-1]

    @property
    def num_cells(self) -> int:
        """Total number of grid cells.

        Uses :func:`math.prod` (arbitrary precision), not ``np.prod``: the
        latter wraps silently at int64 for large column products (e.g.
        ``(2**20,) * 4`` -> 0).
        """
        return math.prod(self.columns) if self.columns else 1

    def columns_for(self, dim: str) -> int:
        """Column count for a grid dimension."""
        return self.columns[self.grid_dims.index(dim)]

    @cached_property
    def strides(self) -> tuple[int, ...]:
        """Mixed-radix strides: cell_id = sum(col_i * stride_i); the last
        grid dimension varies fastest. Computed once per layout (every
        query plan reads them)."""
        strides = []
        acc = 1
        for c in reversed(self.columns):
            strides.append(acc)
            acc *= c
        return tuple(reversed(strides))

    # ------------------------------------------------------------- derivation
    def with_columns(self, columns) -> "GridLayout":
        """Same ordering, different column counts."""
        return GridLayout(self.order, tuple(int(c) for c in columns))

    def scaled(self, factor: float, max_columns: int = 2**20) -> "GridLayout":
        """Scale every grid dimension's columns by ``factor`` (Fig. 14)."""
        columns = tuple(
            int(np.clip(round(c * factor), 1, max_columns)) for c in self.columns
        )
        return self.with_columns(columns)

    def describe(self) -> str:
        parts = [
            f"{dim}:{cols}" for dim, cols in zip(self.grid_dims, self.columns)
        ]
        return f"grid[{', '.join(parts)}] sort[{self.sort_dim}]"
