"""Per-attribute CDF flattening (paper Section 5.1).

Flattening maps each grid dimension through a learned model of its CDF so
that the dimension's columns hold (approximately) equal numbers of points:
a point with value ``v`` in a dimension with ``c`` columns lands in column
``floor(CDF(v) * c)``.

Three model kinds are supported:

- ``'rmi'`` -- the paper's choice: a monotone-leaf Recursive Model Index.
- ``'quantile'`` -- exact empirical quantiles (an ablation upper bound: a
  perfect but larger/slower CDF).
- ``'none'`` -- no flattening: equal-width columns between min and max
  (the "+Sort Dim" rung of the Figure 11 ablation).

Monotonicity of the model is what makes query projection sound: the columns
intersecting ``[lo, hi]`` are exactly ``[col(lo), col(hi)]``. It also lets
projection skip the model: query bounds are integers, so once the layout's
column counts are known (:meth:`Flattener.fit_columns`), each column's
smallest integer is tabulated and ``col(v)`` is a ``bisect`` on that list.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import partial

import numpy as np

from repro.errors import BuildError
from repro.ml.cdf import EmpiricalCDF
from repro.ml.rmi import RecursiveModelIndex

_KINDS = ("rmi", "quantile", "none")

#: Integer range the column edges are searched in (widened to cover a
#: float domain beyond it). The model is constant outside the data, so a
#: bound clamped into this range keeps its column.
_EDGE_LO = -(2**63)
_EDGE_HI = 2**63


def column_edges(column, num_columns: int, lo: int, hi: int) -> list[int]:
    """``edges[j - 1]``: the smallest integer ``v`` in ``[lo, hi]`` with
    ``column(v) >= j``, or ``hi + 1`` when there is none, for ``j = 1 ..
    num_columns - 1``; ``column`` must be non-decreasing.

    Divide and conquer: the edges ``[ja, jb]`` are known to lie in ``[a,
    b]``; one evaluation at the midpoint sends those at most
    ``column(mid)`` left and the rest right. An edge shares every probe
    down to where it parts from its neighbours, so ``c`` edges cost about
    ``64 + c * log2(span / c)`` evaluations, not ``64 * c``.
    """
    edges = [hi + 1] * (num_columns - 1)
    pending = [(lo, hi + 1, 1, num_columns - 1)]
    while pending:
        a, b, ja, jb = pending.pop()
        if ja > jb:
            continue
        if a == b:
            edges[ja - 1 : jb] = [a] * (jb - ja + 1)
            continue
        mid = (a + b) // 2
        col = column(mid)
        pending.append((a, mid, ja, min(col, jb)))
        pending.append((mid + 1, b, max(col + 1, ja), jb))
    return edges


class Flattener:
    """Per-dimension CDF models shared by build-time bucketing and
    query-time projection.

    Parameters
    ----------
    table:
        Source table (only the requested dims are modeled).
    dims:
        Dimensions to model.
    kind:
        ``'rmi'``, ``'quantile'``, or ``'none'``.
    num_leaves:
        RMI leaf experts per dimension (``None`` = sqrt(n)).
    sample_rows:
        Optional row indices to train on (layout optimization trains on a
        sample, Section 7.7).
    """

    def __init__(self, table, dims, kind="rmi", num_leaves=None, sample_rows=None):
        if kind not in _KINDS:
            raise BuildError(f"unknown flattening kind {kind!r}; use one of {_KINDS}")
        self.kind = kind
        self.dims = list(dims)
        self._models = {}
        self._bounds = {}
        #: dim -> (lo, hi, edges) once fit_columns ran; see column_range.
        self._edges: dict[str, tuple[int, int, list[int]]] = {}
        for dim in self.dims:
            values = table.values(dim)
            if sample_rows is not None:
                values = values[sample_rows]
            if values.size == 0:
                raise BuildError(f"cannot flatten empty dimension {dim!r}")
            # .item() keeps the column dtype: int64 domains stay exact
            # python ints; float domains keep their fractional bounds
            # (int() truncation would shrink dom_hi and let projection
            # wrongly skip boundary checks on the top column).
            lo, hi = values.min().item(), values.max().item()
            self._bounds[dim] = (lo, hi)
            if kind == "rmi":
                self._models[dim] = RecursiveModelIndex(
                    np.sort(values), num_leaves=num_leaves, leaf="monotone"
                )
            elif kind == "quantile":
                self._models[dim] = EmpiricalCDF(values)
            # kind == 'none' keeps only the bounds.

    def domain(self, dim: str) -> tuple[int, int]:
        """(min, max) of the training data along ``dim``."""
        return self._bounds[dim]

    # ------------------------------------------------------------------- cdf
    def cdf(self, dim: str, values) -> np.ndarray:
        """Model CDF of ``values`` along ``dim``, in [0, 1]."""
        values = np.asarray(values, dtype=np.float64)
        if self.kind == "rmi":
            return np.atleast_1d(self._models[dim].cdf(values))
        if self.kind == "quantile":
            return np.atleast_1d(self._models[dim].evaluate(values))
        lo, hi = self._bounds[dim]
        span = max(hi - lo + 1, 1)
        return np.clip((values - lo) / span, 0.0, 1.0)

    # --------------------------------------------------------------- columns
    def column_of(self, dim: str, values, num_columns: int) -> np.ndarray:
        """Column assignment ``floor(CDF(v) * c)``, clamped to [0, c-1]."""
        cols = np.floor(self.cdf(dim, values) * num_columns).astype(np.int64)
        return np.clip(cols, 0, num_columns - 1)

    def cdf_scalar(self, dim: str, value: float) -> float:
        """Scalar CDF evaluation (the query-projection hot path)."""
        if self.kind == "rmi":
            return self._models[dim].cdf_scalar(value)
        if self.kind == "quantile":
            return float(self._models[dim].evaluate(value))
        lo, hi = self._bounds[dim]
        span = max(hi - lo + 1, 1)
        cdf = (value - lo) / span
        return min(max(cdf, 0.0), 1.0)

    def column_scalar(self, dim: str, value, num_columns: int) -> int:
        """The column of one value: ``floor(CDF(v) * c)``, capped at c-1."""
        return min(int(self.cdf_scalar(dim, value) * num_columns), num_columns - 1)

    def fit_columns(self, columns) -> None:
        """Tabulate the integer column edges of every dim for ``columns``
        columns (aligned with ``dims``); :meth:`column_range` answers from
        them. ``FloodIndex`` calls this once per build.

        Edges are found on :meth:`column_scalar` itself, so projection
        gives exactly the model's columns for every integer bound.
        """
        if len(columns) != len(self.dims):
            raise BuildError(f"need {len(self.dims)} column counts, got {len(columns)}")
        for dim, cols in zip(self.dims, columns):
            lo, hi = _EDGE_LO, _EDGE_HI
            dom_lo, dom_hi = self._bounds[dim]
            # A float domain may reach past int64; inf and NaN do not count.
            if math.isfinite(dom_lo) and dom_lo < lo:
                lo = math.floor(dom_lo)
            if math.isfinite(dom_hi) and dom_hi > hi:
                hi = math.ceil(dom_hi)
            column = partial(self.column_scalar, dim, num_columns=cols)
            edges = column_edges(column, cols, lo, hi)
            self._edges[dim] = (lo, hi, edges)

    def column_range(
        self, dim: str, low: int, high: int, num_columns: int
    ) -> tuple[int, int]:
        """Inclusive column range intersecting the integer range ``[low,
        high]``: two ``bisect_right`` calls on the dim's column edges.

        Sound because the CDF model is monotone: any value in the range maps
        into ``[col(low), col(high)]``. Bounds of any size work; they are
        clamped into the range the edges were searched in, outside of which
        the model is constant.
        """
        fitted = self._edges.get(dim)
        if fitted is None or len(fitted[2]) + 1 != num_columns:
            raise BuildError(
                f"{dim!r} has no column edges for {num_columns} columns; "
                "call fit_columns first"
            )
        lo, hi, edges = fitted
        low = lo if low < lo else hi if low > hi else low
        high = lo if high < lo else hi if high > hi else high
        return bisect_right(edges, low), bisect_right(edges, high)

    # ------------------------------------------------------------------ size
    def size_bytes(self) -> int:
        total = 16 * len(self.dims)  # per-dim bounds
        total += sum(8 * len(edges) for _, _, edges in self._edges.values())
        for model in self._models.values():
            if isinstance(model, RecursiveModelIndex):
                total += model.size_bytes()
            elif isinstance(model, EmpiricalCDF):
                total += model.sorted_values.nbytes
        return int(total)
