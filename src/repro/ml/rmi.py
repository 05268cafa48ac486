"""Recursive Model Index (RMI) over a sorted array.

The RMI of Kraska et al. [23] is used in two roles in the paper:

1. **Flattening** (Section 5.1): a per-attribute CDF model that maps a value
   to the fraction of points below it, so grid columns hold equal mass. This
   use requires *monotone* predictions (otherwise a point inside a query
   range could be assigned to a column outside the projected column range).

2. **Clustered-index lookup** (Section 7.2 / Appendix A): predict the
   physical position of a value in the sorted storage order and rectify with
   a bounded local search. This use benefits from least-squares leaves and
   per-leaf error bounds.

Both are served here. The non-leaf (root) layer is a monotone linear spline,
as the paper prescribes; leaves are either least-squares linear regressions
(``leaf='regression'``, with recorded error bounds for exact search) or
endpoint interpolations (``leaf='monotone'``, guaranteeing global
monotonicity for flattening).
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.errors import BuildError
from repro.ml.linear import LinearModel, MonotoneLinearSpline


class RecursiveModelIndex:
    """A two-layer RMI over a sorted 1-D array.

    Parameters
    ----------
    values:
        Sorted (non-decreasing) array the index models.
    num_leaves:
        Number of leaf experts in the second layer. The paper's clustered
        baseline uses ``sqrt(n)`` and ``n`` experts for its two lower layers;
        ``num_leaves=None`` picks ``max(8, int(sqrt(n)))``.
    leaf:
        ``'regression'`` for least-squares leaves with error bounds, or
        ``'monotone'`` for endpoint-interpolated leaves whose composite
        prediction is globally non-decreasing (required for flattening).
    root_knots:
        Knot count for the monotone spline root layer.
    """

    def __init__(
        self,
        values: np.ndarray,
        num_leaves: int | None = None,
        leaf: str = "regression",
        root_knots: int = 64,
    ):
        values = np.asarray(values)
        if values.ndim != 1:
            raise ValueError("values must be a 1-D array")
        if values.size == 0:
            raise BuildError("cannot build an RMI over empty data")
        if values.size > 1 and np.any(np.diff(values.astype(np.float64)) < 0):
            raise ValueError("values must be sorted")
        if leaf not in ("regression", "monotone"):
            raise ValueError("leaf must be 'regression' or 'monotone'")
        self._values = values
        self.n = int(values.size)
        self.leaf_kind = leaf
        if num_leaves is None:
            num_leaves = max(8, int(np.sqrt(self.n)))
        self.num_leaves = int(max(1, min(num_leaves, self.n)))
        self._build(root_knots)

    # ------------------------------------------------------------------ build
    def _build(self, root_knots: int) -> None:
        values = self._values.astype(np.float64)
        n = self.n
        positions = np.arange(n, dtype=np.float64)
        # Root layer: monotone spline mapping value -> approximate rank,
        # scaled to a leaf id. Monotonicity guarantees ordered expert routing.
        self._root = MonotoneLinearSpline.fit_quantiles(values, root_knots)
        leaf_ids = self._route(values)
        self._leaf_slope = np.zeros(self.num_leaves)
        self._leaf_intercept = np.zeros(self.num_leaves)
        self._leaf_err_lo = np.zeros(self.num_leaves, dtype=np.int64)
        self._leaf_err_hi = np.zeros(self.num_leaves, dtype=np.int64)

        boundaries = np.searchsorted(leaf_ids, np.arange(self.num_leaves + 1))
        # Monotone mode clamps each leaf's output to its position range
        # [boundaries[j], boundaries[j+1]]: leaf outputs are then ordered by
        # leaf id, and since routing is monotone the composite prediction is
        # provably non-decreasing — no batch-dependent repair needed.
        self._leaf_clip_lo = boundaries[:-1].astype(np.float64)
        self._leaf_clip_hi = boundaries[1:].astype(np.float64)
        last_model = LinearModel(0.0, 0.0)
        for leaf in range(self.num_leaves):
            lo, hi = boundaries[leaf], boundaries[leaf + 1]
            if lo == hi:
                # Empty expert: inherit the previous model so routing drift
                # between build and query time stays harmless.
                model = last_model
            elif self.leaf_kind == "monotone":
                model = LinearModel.from_endpoints(
                    values[lo], float(lo), values[hi - 1], float(hi)
                )
                if model.slope < 0:
                    model = LinearModel(0.0, (lo + hi) / 2.0)
            else:
                model = LinearModel().fit(values[lo:hi], positions[lo:hi])
            self._leaf_slope[leaf] = model.slope
            self._leaf_intercept[leaf] = model.intercept
            if lo < hi:
                preds = model.predict(values[lo:hi])
                residual = positions[lo:hi] - preds
                self._leaf_err_lo[leaf] = int(np.floor(residual.min()))
                self._leaf_err_hi[leaf] = int(np.ceil(residual.max()))
            last_model = model
        # Plain-Python copies for the scalar fast path (numpy scalar
        # indexing is ~10x slower than list indexing in CPython).
        self._root_knots_x = self._root.knots_x.tolist()
        self._root_knots_y = self._root.knots_y.tolist()
        self._leaf_slope_list = self._leaf_slope.tolist()
        self._leaf_intercept_list = self._leaf_intercept.tolist()
        self._leaf_clip_lo_list = self._leaf_clip_lo.tolist()
        self._leaf_clip_hi_list = self._leaf_clip_hi.tolist()

    def _route(self, v: np.ndarray) -> np.ndarray:
        """Map values to leaf ids via the root spline."""
        approx_rank = self._root.predict(v)
        ids = np.floor(approx_rank * self.num_leaves / self.n).astype(np.int64)
        return np.clip(ids, 0, self.num_leaves - 1)

    # ---------------------------------------------------------------- predict
    def predict(self, v) -> np.ndarray:
        """Approximate position(s) of value(s) v in the sorted array."""
        v = np.asarray(v, dtype=np.float64)
        scalar = v.ndim == 0
        v = np.atleast_1d(v)
        ids = self._route(v)
        pred = self._leaf_slope[ids] * v + self._leaf_intercept[ids]
        if self.leaf_kind == "monotone":
            pred = np.clip(pred, self._leaf_clip_lo[ids], self._leaf_clip_hi[ids])
        pred = np.clip(pred, 0.0, float(self.n))
        return float(pred[0]) if scalar else pred

    def cdf(self, v) -> np.ndarray:
        """Approximate CDF value(s) in [0, 1]: predicted rank / n."""
        return self.predict(v) / self.n

    def predict_scalar(self, v: float) -> float:
        """Scalar fast path for :meth:`predict` (pure-Python arithmetic).

        Query projection evaluates the CDF at exactly two points per
        dimension; the vectorized path's numpy overhead dominates there.
        Matches ``predict`` for scalar inputs except for the monotone batch
        repair, which for a single point is a no-op.
        """
        knots_x = self._root_knots_x
        knots_y = self._root_knots_y
        v = float(v)
        if v <= knots_x[0]:
            rank = knots_y[0]
        elif v >= knots_x[-1]:
            rank = knots_y[-1]
        else:
            j = bisect_right(knots_x, v)
            x0, x1 = knots_x[j - 1], knots_x[j]
            y0, y1 = knots_y[j - 1], knots_y[j]
            rank = y0 + (y1 - y0) * (v - x0) / (x1 - x0)
        leaf = int(rank * self.num_leaves / self.n)
        if leaf < 0:
            leaf = 0
        elif leaf >= self.num_leaves:
            leaf = self.num_leaves - 1
        pred = self._leaf_slope_list[leaf] * v + self._leaf_intercept_list[leaf]
        if self.leaf_kind == "monotone":
            lo = self._leaf_clip_lo_list[leaf]
            hi = self._leaf_clip_hi_list[leaf]
            if pred < lo:
                pred = lo
            elif pred > hi:
                pred = hi
        if pred < 0.0:
            return 0.0
        if pred > self.n:
            return float(self.n)
        return pred

    def cdf_scalar(self, v: float) -> float:
        """Scalar fast path for :meth:`cdf`."""
        return self.predict_scalar(v) / self.n

    # ----------------------------------------------------------------- search
    def search_left(self, v: float) -> int:
        """Exact ``searchsorted(values, v, side='left')`` using error bounds."""
        return self._search(float(v), side="left")

    def search_right(self, v: float) -> int:
        """Exact ``searchsorted(values, v, side='right')`` using error bounds."""
        return self._search(float(v), side="right")

    def _search(self, v: float, side: str) -> int:
        leaf = int(self._route(np.asarray([v]))[0])
        pred = self._leaf_slope[leaf] * v + self._leaf_intercept[leaf]
        lo = int(pred + self._leaf_err_lo[leaf]) - 1
        hi = int(pred + self._leaf_err_hi[leaf]) + 2
        lo = max(0, min(lo, self.n))
        hi = max(0, min(hi, self.n))
        # The insertion point p must satisfy lo <= p <= hi for the sliced
        # searchsorted below to be globally exact. The error bounds cover the
        # leaf's own training points; values routed to a different leaf than
        # at build time (possible only at expert boundaries) are repaired by
        # exponential widening.
        values = self._values
        if side == "left":
            left_bad = lambda idx: values[idx] >= v  # p could be < lo
            right_bad = lambda idx: values[idx] < v  # p could be > hi
        else:
            left_bad = lambda idx: values[idx] > v
            right_bad = lambda idx: values[idx] <= v
        step = 64
        while lo > 0 and left_bad(lo - 1):
            lo = max(0, lo - step)
            step *= 2
        step = 64
        while hi < self.n and right_bad(hi):
            hi = min(self.n, hi + step)
            step *= 2
        return int(np.searchsorted(values[lo:hi], v, side=side)) + lo

    def size_bytes(self) -> int:
        """In-memory footprint of the model arrays (not the data)."""
        root = self._root.knots_x.nbytes + self._root.knots_y.nbytes
        leaves = (
            self._leaf_slope.nbytes
            + self._leaf_intercept.nbytes
            + self._leaf_err_lo.nbytes
            + self._leaf_err_hi.nbytes
        )
        return int(root + leaves)
