"""Conditional (correlation-aware) CDF flattening (paper Section 6).

Independent per-attribute flattening yields non-uniform cells when grid
dimensions are correlated. The paper discusses the fix: "for each pair of
correlated dimensions, one could ... train a conditional CDF that creates a
1-D model for attribute A within each column of attribute B" — and reports
that in their benchmarks it "did not significantly improve performance ...
but did significantly increase index size", so Flood does not use it.

We implement it anyway (``FloodIndex(flatten='conditional')``) so the
claim can be checked: see ``benchmarks/bench_ablation_conditional.py``.

For each grid dimension after the first, the most |rank|-correlated earlier
grid dimension is found on a sample; above ``correlation_threshold`` the
dimension gets one sub-CDF per column of that predecessor, otherwise an
independent model. Query-time column ranges take the union over all
predecessor columns, which keeps projection sound at the cost of wider
ranges — one reason conditional CDFs underdeliver.
"""

from __future__ import annotations

import numpy as np

from repro.errors import BuildError
from repro.ml.cdf import EmpiricalCDF


def rank_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation of two columns (ties get average ranks)."""
    from scipy.stats import rankdata

    a = np.asarray(a)
    b = np.asarray(b)
    if a.size != b.size or a.size < 2:
        raise BuildError("correlation needs two equal-length columns")
    ra = rankdata(a).astype(np.float64)
    rb = rankdata(b).astype(np.float64)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = float(np.sqrt((ra * ra).sum() * (rb * rb).sum()))
    if denom == 0.0:
        return 0.0
    return float((ra * rb).sum() / denom)


class ConditionalFlattener:
    """Per-dimension CDFs, conditioned on a correlated predecessor.

    Duck-types the :class:`repro.core.flatten.Flattener` interface used by
    :class:`repro.core.index.FloodIndex` (``column_of`` / ``column_range`` /
    ``domain`` / ``size_bytes``), but must be *fitted with the layout's
    column counts* because conditioning is per predecessor column.

    Parameters
    ----------
    table, grid_dims, columns:
        The table and the layout's grid dimensions with their column counts.
    correlation_threshold:
        Minimum |rank correlation| to condition on a predecessor.
    sample_size:
        Rows used for correlation detection.
    """

    def __init__(
        self,
        table,
        grid_dims,
        columns,
        correlation_threshold: float = 0.5,
        sample_size: int = 5000,
        seed: int = 0,
    ):
        grid_dims = list(grid_dims)
        columns = list(columns)
        if len(grid_dims) != len(columns):
            raise BuildError("grid_dims and columns must align")
        self.grid_dims = grid_dims
        self.columns = dict(zip(grid_dims, columns))
        self._bounds = {}
        self._independent: dict[str, EmpiricalCDF] = {}
        #: dim -> (predecessor dim, [sub-CDF per predecessor column])
        self._conditional: dict[str, tuple[str, list[EmpiricalCDF | None]]] = {}

        rng = np.random.default_rng(seed)
        n = table.num_rows
        sample_rows = (
            np.sort(rng.choice(n, size=min(sample_size, n), replace=False))
            if n
            else np.empty(0, dtype=np.int64)
        )
        values_by_dim = {dim: table.values(dim) for dim in grid_dims}
        for dim in grid_dims:
            if values_by_dim[dim].size == 0:
                raise BuildError(f"cannot flatten empty dimension {dim!r}")
            self._bounds[dim] = (
                int(values_by_dim[dim].min()),
                int(values_by_dim[dim].max()),
            )

        # Fit in layout order; each dim may condition on an earlier one
        # whose assignment is already known.
        assignments: dict[str, np.ndarray] = {}
        for i, dim in enumerate(grid_dims):
            values = values_by_dim[dim]
            predecessor = self._pick_predecessor(
                dim, grid_dims[:i], values_by_dim, sample_rows,
                correlation_threshold,
            )
            if predecessor is None:
                model = EmpiricalCDF(values)
                self._independent[dim] = model
                assignments[dim] = self._bucket(model.evaluate(values), dim)
            else:
                pred_cols = assignments[predecessor]
                sub_models: list[EmpiricalCDF | None] = []
                assignment = np.zeros(values.size, dtype=np.int64)
                for col in range(self.columns[predecessor]):
                    mask = pred_cols == col
                    if not mask.any():
                        sub_models.append(None)
                        continue
                    model = EmpiricalCDF(values[mask])
                    sub_models.append(model)
                    assignment[mask] = self._bucket(
                        model.evaluate(values[mask]), dim
                    )
                self._conditional[dim] = (predecessor, sub_models)
                assignments[dim] = assignment
        self._assignments = assignments

    def _pick_predecessor(
        self, dim, earlier, values_by_dim, sample_rows, threshold
    ):
        best_dim, best_corr = None, threshold
        if sample_rows.size < 2:
            return None
        target = values_by_dim[dim][sample_rows]
        for other in earlier:
            # Conditioning on a single-column predecessor is pointless.
            if self.columns[other] < 2:
                continue
            corr = abs(rank_correlation(values_by_dim[other][sample_rows], target))
            if corr >= best_corr:
                best_dim, best_corr = other, corr
        return best_dim

    def _bucket(self, cdf: np.ndarray, dim: str) -> np.ndarray:
        cols = self.columns[dim]
        return np.clip((cdf * cols).astype(np.int64), 0, cols - 1)

    # ------------------------------------------------- Flattener duck-typing
    def domain(self, dim: str) -> tuple[int, int]:
        return self._bounds[dim]

    def conditioned_on(self, dim: str) -> str | None:
        """The predecessor ``dim`` conditions on, or None if independent."""
        pair = self._conditional.get(dim)
        return pair[0] if pair else None

    def exactable(self, dim: str) -> bool:
        """Whether interior columns of ``dim`` are guaranteed in-range.

        False for conditioned dimensions: their query column range is a
        union over predecessor columns, so a point can sit in an interior
        column of the union while its value is outside the query range —
        every column must be check-filtered. (Another reason conditional
        CDFs underdeliver, beyond their size.)
        """
        return dim not in self._conditional

    def column_of(self, dim: str, values, num_columns: int) -> np.ndarray:
        """Build-time column assignment (values must be the fitted table's
        column, in table order — conditioning requires row alignment)."""
        self._check_columns(dim, num_columns)
        values = np.asarray(values)
        fitted = self._assignments[dim]
        if values.size != fitted.size:
            raise BuildError(
                "conditional flattening assigns columns only for the fitted "
                "table (row alignment is required)"
            )
        return fitted

    def fit_columns(self, columns) -> None:
        """The layout's column counts, which the constructor already fitted
        (:meth:`repro.core.flatten.Flattener.fit_columns` tabulates its
        edges here); a mismatch raises ``BuildError``."""
        if len(columns) != len(self.grid_dims):
            raise BuildError("grid_dims and columns must align")
        for dim, cols in zip(self.grid_dims, columns):
            self._check_columns(dim, cols)

    def column_range(
        self, dim: str, low: int, high: int, num_columns: int
    ) -> tuple[int, int]:
        """Sound inclusive column range: the union over predecessor columns.

        The empirical CDFs are constant below and above the domain, so
        bounds of any size are clamped to the domain ±1 first, which
        keeps the answer and the bounds near the column's values.
        """
        self._check_columns(dim, num_columns)
        cols = self.columns[dim]
        dom_lo, dom_hi = self._bounds[dim]
        low = min(max(low, dom_lo - 1), dom_hi + 1)
        high = min(max(high, dom_lo - 1), dom_hi + 1)
        if dim in self._independent:
            model = self._independent[dim]
            lo_hi = np.clip(
                (model.evaluate(np.array([low, high])) * cols).astype(np.int64),
                0,
                cols - 1,
            )
            return int(lo_hi[0]), int(lo_hi[1])
        _, sub_models = self._conditional[dim]
        first, last = cols - 1, 0
        for model in sub_models:
            if model is None:
                continue
            lo_hi = np.clip(
                (model.evaluate(np.array([low, high])) * cols).astype(np.int64),
                0,
                cols - 1,
            )
            first = min(first, int(lo_hi[0]))
            last = max(last, int(lo_hi[1]))
        return (first, last) if first <= last else (0, cols - 1)

    def _check_columns(self, dim: str, num_columns: int) -> None:
        if dim not in self.columns:
            raise BuildError(f"dimension {dim!r} was not fitted")
        if num_columns != self.columns[dim]:
            raise BuildError(
                f"fitted with {self.columns[dim]} columns for {dim!r}, "
                f"asked for {num_columns}"
            )

    def size_bytes(self) -> int:
        """Conditional CDFs are big — the paper's stated reason to skip them."""
        total = 16 * len(self.grid_dims)
        for model in self._independent.values():
            total += model.sorted_values.nbytes
        for _, sub_models in self._conditional.values():
            for model in sub_models:
                if model is not None:
                    total += model.sorted_values.nbytes
        return int(total)
