"""Delta-bounded piecewise linear models (PLM) for per-cell refinement.

Section 5.2 of the paper: a PLM models the CDF of a sorted value list by
partitioning it into slices, each approximated by a linear segment that is a
*lower bound* on the true positions, with average absolute error at most a
threshold ``delta`` per segment. The greedy construction walks the distinct
values in increasing order and starts a new slice whenever the running
average error of the current segment would exceed ``delta``.

The lower-bound property (``P(v) <= D(v)`` where ``D(v)`` is the position of
the first occurrence of ``v``) turns the absolute-error condition into a
one-sided sum, and lets rectification search only forward from the
prediction.

Implementation notes: the paper locates segments with a cache-optimized
B-tree over the slice start keys. We build that B-tree (it is what
``size_bytes`` accounts and what Figure 17 benchmarks), but the hot search
path locates segments with ``bisect`` on the same key array — in CPython
that is the honest equivalent of the paper's cache-friendly descent.
Rectification uses a per-segment maximum-error window verified in O(1),
falling back to the segment's full position range (a guaranteed bracket)
on the rare misprediction.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.ml.btree import StaticBTree


def lockstep_searchsorted(values, lo, hi, probes, side) -> np.ndarray:
    """Insertion point of ``probes`` in ``values[lo_i:hi_i)`` per lane.

    Lock-step binary search: every lane halves its own bracket each
    iteration, so a batch of m brackets costs O(log max_width) vectorized
    passes instead of m Python-level searches. ``probes`` may be a scalar
    (shared by all lanes) or an array aligned with ``lo``/``hi``;
    ``values`` must be non-decreasing within each lane's bracket.
    """
    lo = np.asarray(lo, dtype=np.int64).copy()
    hi = np.asarray(hi, dtype=np.int64).copy()
    n = values.size
    active = lo < hi
    while np.any(active):
        mid = (lo + hi) >> 1
        # Inactive lanes may hold lo == hi == n; clip their (unused) load.
        mid_values = values[np.minimum(mid, n - 1)]
        if side == "left":
            go_right = mid_values < probes
        else:
            go_right = mid_values <= probes
        lo = np.where(active & go_right, mid + 1, lo)
        hi = np.where(active & ~go_right, mid, hi)
        active = lo < hi
    return lo


class PiecewiseLinearModel:
    """A delta-bounded lower-bound PLM over a sorted array.

    Parameters
    ----------
    values:
        Sorted (non-decreasing) array to model. Positions are 0-based.
    delta:
        Per-segment average absolute error bound (paper default 50).
    branching:
        Fan-out of the segment-locator B-tree.
    """

    def __init__(self, values: np.ndarray, delta: float = 50.0, branching: int = 16):
        values = np.asarray(values)
        if values.ndim != 1:
            raise ValueError("values must be 1-D")
        if values.size > 1 and np.any(np.diff(values.astype(np.float64)) < 0):
            raise ValueError("values must be sorted")
        if delta <= 0:
            raise ValueError("delta must be positive")
        self._values = values
        self.n = int(values.size)
        self.delta = float(delta)
        self._build()
        self._tree = StaticBTree(
            np.asarray(self._seg_keys, dtype=np.float64), branching=branching
        )

    # ------------------------------------------------------------------ build
    def _build(self) -> None:
        values = self._values
        n = self.n
        if n == 0:
            self._seg_keys = [0.0]
            self._seg_pos = [0.0]
            self._seg_slope = [0.0]
            self._seg_maxerr = [0.0]
            self._seg_end = [0]
            self._finalize_arrays()
            return
        # Distinct values and the position of their first occurrence.
        distinct, first_pos = np.unique(values, return_index=True)
        distinct = distinct.astype(np.float64)
        first_pos = first_pos.astype(np.float64)
        # Counts per distinct value weight the average-error computation so
        # the bound matches the paper's 1/|V| sum over all values.
        counts = np.diff(np.append(first_pos, float(n)))

        seg_keys: list[float] = []
        seg_pos: list[float] = []
        seg_slope: list[float] = []
        seg_maxerr: list[float] = []
        seg_end: list[int] = []
        i = 0
        m = distinct.size
        while i < m:
            start_key = distinct[i]
            start_pos = first_pos[i]
            # Grow the slice greedily. The segment through the first point
            # with the minimum observed candidate slope stays at or below
            # every training point, so all per-point errors are >= 0 and the
            # weighted error sum under slope s decomposes as A - s * B with
            #   A = sum_k c_k * (pos_k - start_pos)
            #   B = sum_k c_k * (key_k - start_key)
            # both of which update in O(1) per accepted point.
            slope = np.inf
            err_a = 0.0
            err_b = 0.0
            weight = counts[i]
            j = i + 1
            while j < m:
                dx = distinct[j] - start_key
                candidate_slope = (first_pos[j] - start_pos) / dx
                new_slope = min(slope, candidate_slope)
                new_a = err_a + counts[j] * (first_pos[j] - start_pos)
                new_b = err_b + counts[j] * dx
                new_weight = weight + counts[j]
                finite_slope = 0.0 if not np.isfinite(new_slope) else new_slope
                avg_err = (new_a - finite_slope * new_b) / new_weight
                if avg_err > self.delta:
                    break
                slope = new_slope
                err_a = new_a
                err_b = new_b
                weight = new_weight
                j += 1
            final_slope = 0.0 if not np.isfinite(slope) else slope
            span = slice(i, j)
            errors = first_pos[span] - (
                start_pos + final_slope * (distinct[span] - start_key)
            )
            seg_keys.append(float(start_key))
            seg_pos.append(float(start_pos))
            seg_slope.append(final_slope)
            seg_maxerr.append(float(errors.max()))
            # First position strictly past this segment's values: the next
            # segment's start position, or n for the last segment. p(v) for
            # any probe routed to this segment lies in [start_pos, end].
            seg_end.append(int(first_pos[j]) if j < m else n)
            i = j
        # Plain-Python lists: scalar indexing in the search hot path is much
        # faster than numpy scalar indexing in CPython.
        self._seg_keys = seg_keys
        self._seg_pos = seg_pos
        self._seg_slope = seg_slope
        self._seg_maxerr = seg_maxerr
        self._seg_end = seg_end
        self._finalize_arrays()

    def _finalize_arrays(self) -> None:
        """Array mirrors of the segment lists for the vectorized batch path."""
        self._seg_keys_arr = np.asarray(self._seg_keys, dtype=np.float64)
        self._seg_pos_arr = np.asarray(self._seg_pos, dtype=np.float64)
        self._seg_slope_arr = np.asarray(self._seg_slope, dtype=np.float64)
        self._seg_maxerr_arr = np.asarray(self._seg_maxerr, dtype=np.float64)
        self._seg_end_arr = np.asarray(self._seg_end, dtype=np.int64)

    # ---------------------------------------------------------------- predict
    @property
    def num_segments(self) -> int:
        return len(self._seg_keys)

    def size_bytes(self) -> int:
        """In-memory footprint: 4 scalars per segment plus the locator tree."""
        return 32 * len(self._seg_keys) + self._tree.size_bytes()

    def _segment_of(self, v: float) -> int:
        return bisect_right(self._seg_keys, v) - 1

    def predict(self, v: float) -> int:
        """Lower-bound position estimate for value ``v``, clamped to range."""
        idx = self._segment_of(float(v))
        if idx < 0:
            return 0
        pos = self._seg_pos[idx] + self._seg_slope[idx] * (float(v) - self._seg_keys[idx])
        return int(min(max(pos, 0.0), float(self.n)))

    # ---------------------------------------------------------------- search
    def search_left(self, v: float) -> int:
        """Exact ``searchsorted(values, v, side='left')`` via model + repair."""
        return self._search(float(v), "left")

    def search_right(self, v: float) -> int:
        """Exact ``searchsorted(values, v, side='right')`` via model + repair."""
        return self._search(float(v), "right")

    def _search(self, v: float, side: str) -> int:
        n = self.n
        if n == 0:
            return 0
        idx = bisect_right(self._seg_keys, v) - 1
        if idx < 0:
            return 0
        seg_start = self._seg_pos[idx]
        seg_end = self._seg_end[idx]
        pred = seg_start + self._seg_slope[idx] * (v - self._seg_keys[idx])
        lo = int(pred) - 1
        if lo < seg_start:
            lo = int(seg_start)
        hi = int(pred + self._seg_maxerr[idx]) + 2
        if hi > seg_end:
            hi = seg_end
        if lo > hi:
            lo = hi
        values = self._values
        # O(1) bracket verification; on failure fall back to the segment's
        # full position range, which is a guaranteed bracket for any probe
        # routed to this segment.
        if side == "left":
            ok = (lo == 0 or values[lo - 1] < v) and (hi >= n or values[hi] >= v)
        else:
            ok = (lo == 0 or values[lo - 1] <= v) and (hi >= n or values[hi] > v)
        if not ok:
            lo = int(seg_start)
            hi = seg_end if seg_end < n else n
        return int(values[lo:hi].searchsorted(v, side=side)) + lo

    def lookups(self, low: float, high: float) -> tuple[int, int]:
        """Refined physical range [start, stop) for values in [low, high]."""
        return self.search_left(low), self.search_right(high)

    # --------------------------------------------------------------- batched
    def search_many(self, probes, side: str = "left") -> np.ndarray:
        """Exact ``np.searchsorted(values, probes, side)`` for a probe batch.

        The batched twin of :meth:`search_left` / :meth:`search_right`: one
        vectorized pass locates every probe's segment, predicts, verifies the
        error-bounded bracket, and finishes with a lock-step binary search
        over the (tight) brackets — so a cell's whole probe batch costs a
        handful of numpy ops instead of two Python calls per probe.

        Parameters
        ----------
        probes:
            Scalar or 1-D array of probe values (cast to float64, like the
            scalar path).
        side:
            ``'left'`` or ``'right'``, with numpy's ``searchsorted``
            semantics.

        Returns
        -------
        int64 array of insertion points, aligned with ``probes``; exact
        (model mispredictions are repaired before the final search).
        """
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        probes = np.atleast_1d(np.asarray(probes, dtype=np.float64))
        out = np.zeros(probes.shape, dtype=np.int64)
        n = self.n
        if n == 0 or probes.size == 0:
            return out
        values = self._values
        keys = self._seg_keys_arr
        idx = np.searchsorted(keys, probes, side="right") - 1
        routed = idx >= 0  # probes below the first key resolve to 0
        if not np.any(routed):
            return out
        probes = probes[routed]
        idx = idx[routed]
        seg_pos = self._seg_pos_arr[idx]
        seg_start = seg_pos.astype(np.int64)
        seg_end = self._seg_end_arr[idx]
        # Clip in float, before the int64 cast: a probe far past the data
        # (1e300-scale) must not predict past int64 range.
        pred = np.clip(
            seg_pos + self._seg_slope_arr[idx] * (probes - keys[idx]),
            seg_pos,
            seg_end,
        )
        lo = np.maximum(pred.astype(np.int64) - 1, seg_start)
        hi = np.minimum(
            (pred + self._seg_maxerr_arr[idx]).astype(np.int64) + 2, seg_end
        )
        lo = np.minimum(lo, hi)
        # Bracket verification, exactly as in the scalar path; failures fall
        # back to the segment's full position range (a guaranteed bracket).
        below = values[np.maximum(lo - 1, 0)]
        above = values[np.minimum(hi, n - 1)]
        if side == "left":
            ok = ((lo == 0) | (below < probes)) & ((hi >= n) | (above >= probes))
        else:
            ok = ((lo == 0) | (below <= probes)) & ((hi >= n) | (above > probes))
        lo = np.where(ok, lo, seg_start)
        hi = np.where(ok, hi, np.minimum(seg_end, n))
        # Brackets are a few positions wide (2*delta-ish), so the lock-step
        # search runs O(log delta) passes.
        out[routed] = lockstep_searchsorted(values, lo, hi, probes, side)
        return out

    def lookups_many(self, lows, highs) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`lookups`: refined [start, stop) per (low, high) pair."""
        return self.search_many(lows, "left"), self.search_many(highs, "right")
