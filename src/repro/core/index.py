"""The Flood index: grid + sort dimension + refinement.

Build (Sections 3.1 and 5.1): each grid dimension is flattened through its
CDF model and bucketed into columns; points are ordered by cell id
(depth-first along the dimension ordering) and, within each cell, by the
sort dimension. These arrays serve every query:

- the sorted ids of the *non-empty* cells, with each one's column per grid
  dimension, numbered across dimensions (``cell_starts`` records every
  cell's physical start);
- per grid dimension, the smallest integer of every column (the
  flattener's column edges, tabulated once per build);
- the *refinement key*, one int64 per row: ``cell << B | rank``, where
  ``rank`` is the row's sort value's position among the distinct sort
  values and ``B`` the bit length of their count. Storage order is
  (cell, sort value), so the key is non-decreasing over the whole table;
- the *rank permutation*: row ids ordered by (rank, row), with each
  distinct sort value's offset into it.

Query (Sections 3.2 and 5.2):

1. **Projection** -- per grid dimension, map the integer query bounds to
   an inclusive column range: one ``bisect`` on the column edges, which
   gives exactly the monotone CDF model's column. The box's smallest and
   largest cell ids slice the non-empty cells with one ``searchsorted``
   (an empty slice is an empty plan); one lookup table over the columns
   masks the slice to the box on the inner dimensions and packs the
   residual-check codes. Cost is O(non-empty cells in the id range), not
   O(cells in the box).
2. **Refinement** -- if the query filters the sort dimension, every
   planned cell's physical range is narrowed to its rows with sort values
   in range. Two exact ways give the same refined plan, and the cheaper
   one by priced cost runs: two ``searchsorted`` calls on the refinement
   key, probing ``cell << B | rank(bound)`` (cost per planned cell, in
   :meth:`FloodIndex.refine_plan`), or the rows in the sort range read
   off the rank permutation and grouped by cell (cost per row in range;
   it pays on fine grids whose sort-only queries plan thousands of
   cells). Projection prices the two as soon as it knows the cell count
   and, when the rank order wins, builds the refined plan from those rows
   without materialising any per-cell array of the unrefined plan. The
   paper's per-cell PLMs (``refinement='plm'``) stay for the Figure 17 /
   refinement ablations: in numpy they lose to binary search on build
   time, query time and size.
3. **Scan** -- each refined range is scanned; only *boundary* columns of
   filtered grid dimensions need per-point checks (interior columns are
   exact by monotonicity of the CDF), which is why Flood's time per scanned
   point is low (Table 2).
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from repro.core.flatten import Flattener
from repro.core.layout import GridLayout
from repro.errors import BuildError, SchemaError
from repro.ml.plm import PiecewiseLinearModel, lockstep_searchsorted
from repro.query.base import BaseIndex, timed
from repro.query.predicate import Query
from repro.query.stats import QueryStats
from repro.storage.kernels import get_kernel
from repro.storage.scan import scan_filtered, scan_runs
from repro.storage.table import Table
from repro.storage.visitor import Visitor

_REFINEMENTS = ("binary", "plm", "none")

#: Priced refinement choice under ``refinement='binary'``: the rank path
#: costs about _RANK_BASE_NS + _RANK_ROW_NS per row in the sort range, the
#: key probes about _KEY_CELL_NS per planned cell. Measured with numpy 2.4
#: on 2 cores over a 400 k-row TPC-H lineitem table (6 259 non-empty cells,
#: a 3.2 MB key): probes 137-206 ns per cell; the rank path 21 us at 2 rows,
#: 206 us at 4 k rows and 443 us at 16 k rows. At these prices the rank
#: path never runs on a plan of 166 cells or fewer.
_RANK_BASE_NS = 25_000
_RANK_ROW_NS = 40
_KEY_CELL_NS = 150


def _non_nan_prefix(ordered: np.ndarray) -> int:
    """Length of the NaN-free prefix of an ascending array (NaN sorts
    last). NaN matches no range, yet ``searchsorted`` with a bound past
    the float range can land beyond the NaN entries."""
    if ordered.size and ordered[-1] != ordered[-1]:
        return int(np.searchsorted(ordered, np.nan, "left"))
    return ordered.size


#: Code-table entry of a column outside the query box (above every
#: boundary bit, which needs one bit per grid dim).
_OUTSIDE = 1 << 62


def _code_table(info, columns):
    """One code per column of every grid dim, for a plan's cells to look up.

    ``info`` is :meth:`FloodIndex._project`'s per-dim ``(dim, first, last,
    check_first, check_last)`` and ``columns`` the layout's column counts.
    Dim ``k``'s columns sit at ``sum(columns[:k]) + col``, the numbering of
    ``FloodIndex._nonempty_cols``. A column's code is its dim's boundary
    bit (bit ``K-1-k``) when it needs per-point checks, ``_OUTSIDE``
    beyond the query box on an inner dim (the cell-id range already bounds
    the outermost), 0 otherwise; a cell's code is the OR over its dims.
    Returns ``(lookup, narrowed)``, ``narrowed`` saying whether any column
    is ``_OUTSIDE``, or None when every code is 0.
    """
    lookup = None
    narrowed = False
    offset = 0
    num = len(info)
    for k, (_, first, last, check_first, check_last) in enumerate(info):
        inner = k > 0 and (first > 0 or last < columns[k] - 1)
        if inner or check_first or check_last:
            if lookup is None:
                lookup = np.zeros(sum(columns), dtype=np.int64)
            if inner:
                lookup[offset : offset + first] = _OUTSIDE
                lookup[offset + last + 1 : offset + columns[k]] = _OUTSIDE
                narrowed = True
            bit = 1 << (num - 1 - k)
            if check_first:
                lookup[offset + first] = bit
            if check_last:
                lookup[offset + last] = bit
        offset += columns[k]
    return None if lookup is None else (lookup, narrowed)


def _lookup_codes(lookup: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Each cell's code: the OR of ``lookup`` over its column numbers
    (``columns`` holds one row per grid dim)."""
    codes = lookup[columns]
    return codes[0] if codes.shape[0] == 1 else np.bitwise_or.reduce(codes, axis=0)


class QueryPlan:
    """Vectorized projection result: intersecting cells + residual checks.

    Produced by :meth:`FloodIndex.plan`; arrays are aligned and restricted to
    non-empty cells in ascending cell-id (= storage) order. ``refine`` says
    whether the ranges still need narrowing on the sort dimension
    (:meth:`FloodIndex.refine_plan` clears it; a plan refined through the
    rank permutation comes back with it cleared). ``codes`` packs
    each cell's per-dimension boundary flags into an integer so cells can be
    partitioned by residual-check set without building Python tuples per
    cell; :meth:`checks_for` decodes a code back into dimension names.
    """

    __slots__ = (
        "cells",
        "starts",
        "stops",
        "codes",
        "base_checks",
        "grid_dims",
        "cells_enumerated",
        "refine",
        "sort_low",
        "sort_high",
        "_checks_cache",
    )

    def __init__(
        self,
        cells: np.ndarray,
        starts: np.ndarray,
        stops: np.ndarray,
        codes: np.ndarray,
        base_checks: tuple[str, ...],
        grid_dims: tuple[str, ...],
        cells_enumerated: int,
        refine: bool,
        sort_low: int,
        sort_high: int,
    ):
        self.cells = cells
        self.starts = starts
        self.stops = stops
        self.codes = codes
        self.base_checks = base_checks
        self.grid_dims = grid_dims
        self.cells_enumerated = cells_enumerated
        self.refine = refine
        self.sort_low = sort_low
        self.sort_high = sort_high
        self._checks_cache: dict[int, tuple[str, ...]] = {0: base_checks}

    def checks_for(self, code: int) -> tuple[str, ...]:
        """Residual check dims for a packed boundary code (bit K-1-k = dim k)."""
        checks = self._checks_cache.get(code)
        if checks is None:
            num = len(self.grid_dims)
            checks = self.base_checks + tuple(
                self.grid_dims[k]
                for k in range(num)
                if (code >> (num - 1 - k)) & 1
            )
            self._checks_cache[code] = checks
        return checks

    def coalesced_runs(self) -> list[tuple[int, int, int]]:
        """Tasks merged into maximal storage-contiguous runs.

        Consecutive tasks whose physical ranges touch (``stops[i] ==
        starts[i+1]``, which holds for adjacent cell ids and across empty
        cells) and that share a residual-check code are scanned as one
        range. Returns ``(start, stop, code)`` triples in storage order.
        """
        starts, stops, codes = self.starts, self.stops, self.codes
        m = starts.size
        if m == 0:
            return []
        breaks = (starts[1:] != stops[:-1]) | (codes[1:] != codes[:-1])
        first = np.concatenate(([0], np.nonzero(breaks)[0] + 1))
        last = np.concatenate((first[1:] - 1, [m - 1]))
        return list(
            zip(starts[first].tolist(), stops[last].tolist(), codes[first].tolist())
        )


class FloodIndex(BaseIndex):
    """The learned multi-dimensional index.

    Parameters
    ----------
    layout:
        The grid layout (usually produced by
        :func:`repro.core.optimizer.find_optimal_layout`).
    flatten:
        CDF model kind: ``'rmi'`` (paper), ``'quantile'``, ``'none'``
        (equal-width columns; the Figure 11 "+Sort Dim" rung), or
        ``'conditional'`` (correlation-aware sub-CDFs, Section 6 —
        implemented to verify the paper's claim that it does not pay off).
    refinement:
        ``'binary'`` (default: Section 3.2.2's simple index, binary search
        on the refinement key), ``'plm'`` (the paper's per-cell learned
        models; kept for the ablations), or ``'none'`` (skip refinement;
        sort dimension checked during scan).
    delta:
        PLM per-segment average error bound (paper default 50); used only
        under ``refinement='plm'``.

    Scans use numba's fused kernels when numba imports and the classic
    ``scan_runs`` path otherwise (:func:`repro.storage.kernels.get_kernel`).
    """

    name = "Flood"

    #: Table-content generation. A plain Flood index is immutable after
    #: build, so this never moves; mutable wrappers
    #: (:class:`~repro.core.delta.DeltaBufferedFlood`) bump their own
    #: counter on every insert/merge. The serving layer folds
    #: ``generation`` into result-cache keys, so caching over a mutable
    #: index can never serve a pre-mutation result.
    generation: int = 0

    #: Attributes holding all state :meth:`_build` produces. Lives next to
    #: the build code so additions stay in sync; anything sharing a built
    #: index without rebuilding (``ShardedFloodIndex.wrap``) copies exactly
    #: these. ``_plm_*`` entries are absent under other refinements, hence
    #: the hasattr guard at the copy site.
    _BUILT_STATE_ATTRS = (
        "_table",
        "_flattener",
        "_cell_starts",
        "_nonempty",
        "_nonempty_cols",
        "_sort_unique",
        "_rank_bits",
        "_refine_key",
        "_by_rank",
        "_rank_starts",
        "_cell_models",
        "_plm_cell_offsets",
        "_plm_keys",
        "_plm_pos",
        "_plm_slope",
        "_plm_maxerr",
        "_plm_ends",
    )

    def __init__(
        self,
        layout: GridLayout,
        flatten: str = "rmi",
        refinement: str = "binary",
        delta: float = 50.0,
    ):
        super().__init__()
        if refinement not in _REFINEMENTS:
            raise BuildError(
                f"unknown refinement {refinement!r}; use one of {_REFINEMENTS}"
            )
        self.layout = layout
        self.flatten = flatten
        self.refinement = refinement
        self.delta = float(delta)

    # ------------------------------------------------------------------ build
    def _build(self, table: Table) -> None:
        flattener, cell_ids = self._assign_cells(table)
        sort_values = table.values(self.layout.sort_dim)
        # Order by (cell, sort value): lexsort's last key is primary.
        order = np.lexsort((sort_values, cell_ids))
        self._flattener = flattener
        self._index_clustered(
            table.permute(order), cell_ids[order], sort_values[order]
        )

    def build_clustered(self, table: Table) -> "FloodIndex":
        """Build over a table that is *already* in this layout's clustered
        order, skipping the permutation (and its copy of every column).

        This is the fleet-reader fast path: the writer publishes its
        clustered table through shared memory, and the reader's table is
        byte-identical to what :meth:`_build` would produce — re-sorting
        it would allocate a private copy of the whole table and defeat
        the zero-copy attach. The flattener is re-trained here (same
        value multiset → same CDF → same column assignment), then the
        claimed clustering is *verified*: cell ids must be non-decreasing
        and each cell's sort-dimension run non-decreasing. On any
        violation this falls back to the regular :meth:`build` (correct
        even over read-only shared views — ``permute`` copies into fresh
        local arrays), so a caller can never end up with a mis-clustered
        index.
        """
        start = timed()
        flattener, cell_ids = self._assign_cells(table)
        sort_values = table.values(self.layout.sort_dim)
        n = table.num_rows
        clustered = bool(np.all(cell_ids[1:] >= cell_ids[:-1])) if n > 1 else True
        if clustered and n > 1:
            # Within-cell ordering: sort values may only decrease at a
            # cell boundary.
            decreasing = sort_values[1:] < sort_values[:-1]
            boundary = cell_ids[1:] != cell_ids[:-1]
            clustered = bool(np.all(boundary[decreasing]))
        if not clustered:
            return self.build(table)
        self._flattener = flattener
        self._index_clustered(table, cell_ids, sort_values)
        self.build_seconds = timed() - start
        return self

    def _assign_cells(self, table: Table):
        """Fit the flattener on ``table``; returns it with every row's cell id."""
        layout = self.layout
        for dim in layout.order:
            if dim not in table:
                raise SchemaError(f"layout dimension {dim!r} not in table")
        if self.flatten == "conditional":
            from repro.core.conditional import ConditionalFlattener

            flattener = ConditionalFlattener(table, layout.grid_dims, layout.columns)
        else:
            flattener = Flattener(table, layout.grid_dims, kind=self.flatten)
        cell_ids = np.zeros(table.num_rows, dtype=np.int64)
        for dim, cols in zip(layout.grid_dims, layout.columns):
            assignment = flattener.column_of(dim, table.values(dim), cols)
            cell_ids = cell_ids * cols + assignment
        return flattener, cell_ids

    def _index_clustered(
        self, table: Table, cell_ids: np.ndarray, sort_values: np.ndarray
    ) -> None:
        """The build steps shared by :meth:`_build` and
        :meth:`build_clustered`, over a table already in (cell, sort value)
        order; ``cell_ids`` and ``sort_values`` are aligned with its rows.
        """
        layout = self.layout
        num_cells = layout.num_cells
        # Rows by (sort value, row): runs of equal values in this order
        # give the distinct values, every row's rank and each rank's offset.
        n = table.num_rows
        by_rank = np.argsort(sort_values, kind="stable")
        ordered = sort_values[by_rank]
        first = np.ones(n, dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        unique = ordered[first]
        bits = int(unique.size).bit_length()
        if num_cells.bit_length() + bits > 63:
            raise BuildError(
                f"{num_cells} cells x {unique.size} distinct sort values "
                "overflow the 63-bit refinement key"
            )
        # Projection's column edges, tabulated once per build (never on a
        # query); their cost grows with the column count.
        self._flattener.fit_columns(layout.columns)
        counts = np.bincount(cell_ids, minlength=num_cells)
        cell_starts = np.zeros(num_cells + 1, dtype=np.int64)
        np.cumsum(counts, out=cell_starts[1:])
        nonempty = np.flatnonzero(counts)
        self._table = table
        self._cell_starts = cell_starts
        self._nonempty = nonempty
        # Column numbers run on across dims (dim k's start at the sum of
        # the earlier dims' counts), so one lookup table codes them all.
        offsets = np.cumsum((0,) + layout.columns[:-1], dtype=np.int64)
        self._nonempty_cols = (
            nonempty // np.array(layout.strides, dtype=np.int64)[:, None]
            % np.array(layout.columns, dtype=np.int64)[:, None]
            + offsets[:, None]
        )
        ranks = np.empty(n, dtype=np.int64)
        ranks[by_rank] = np.cumsum(first) - 1
        self._sort_unique = unique
        self._rank_bits = bits
        self._refine_key = (cell_ids << bits) | ranks
        index_type = np.int32 if n <= np.iinfo(np.int32).max else np.int64
        self._by_rank = by_rank.astype(index_type)
        self._rank_starts = np.append(np.flatnonzero(first), n).astype(index_type)
        self._cell_models: list[PiecewiseLinearModel | None] = []
        if self.refinement == "plm":
            self._fit_cell_models(sort_values)

    def _fit_cell_models(self, sort_values: np.ndarray) -> None:
        """Fit a PLM over every non-empty cell's sort values (Section 5.2).

        The batched refinement path (:meth:`_plm_search_cells`) runs the
        same model+repair algorithm as :meth:`PiecewiseLinearModel._search`,
        lock-step across a query's cells; that needs each cell's segment
        keys/intercepts/slopes addressable by slices of shared arrays
        (``_plm_cell_offsets``). Positions are stored *absolute* (cell
        start added) so predictions index straight into the refinement
        key.
        """
        starts = self._cell_starts
        num_cells = self.layout.num_cells
        models: list[PiecewiseLinearModel | None] = [None] * num_cells
        segments = np.zeros(num_cells, dtype=np.int64)
        keys, pos, slope, maxerr, ends = [], [], [], [], []
        for cell in self._nonempty.tolist():
            base = int(starts[cell])
            model = PiecewiseLinearModel(
                sort_values[base : starts[cell + 1]], delta=self.delta
            )
            models[cell] = model
            segments[cell] = model.num_segments
            keys.append(model._seg_keys_arr)
            pos.append(model._seg_pos_arr + base)
            slope.append(model._seg_slope_arr)
            maxerr.append(model._seg_maxerr_arr)
            ends.append(model._seg_end_arr + base)
        self._cell_models = models
        self._plm_cell_offsets = np.concatenate(([0], np.cumsum(segments)))
        empty_f = np.empty(0, dtype=np.float64)
        self._plm_keys = np.concatenate(keys) if keys else empty_f
        self._plm_pos = np.concatenate(pos) if pos else empty_f
        self._plm_slope = np.concatenate(slope) if slope else empty_f
        self._plm_maxerr = np.concatenate(maxerr) if maxerr else empty_f
        self._plm_ends = (
            np.concatenate(ends) if ends else np.empty(0, dtype=np.int64)
        )

    @property
    def cell_starts(self) -> np.ndarray:
        """Physical start row of every cell (length ``num_cells + 1``).

        ``cell_starts[c]`` is the first row of cell ``c`` in the clustered
        table and ``cell_starts[-1] == num_rows``; shard boundaries are
        chosen along this array so each shard owns whole cells.
        """
        if self._table is None:
            raise BuildError(f"{self.name} index used before build()")
        return self._cell_starts

    # ------------------------------------------------------------------ query
    def _project(self, query: Query):
        """Per-grid-dim inclusive column ranges plus boundary metadata.

        Returns the 2-tuple ``(info, always_check)``: ``info[k] = (dim,
        first, last, check_first, check_last)`` for grid dimension ``k``
        (boundary flags say whether that end column needs per-point checks),
        and ``always_check`` lists dims whose *every* column needs checks
        (conditioned dims under conditional flattening).
        """
        info = []
        always_check = []
        exactable = getattr(self._flattener, "exactable", None)
        for dim, cols in zip(self.layout.grid_dims, self.layout.columns):
            if query.filters(dim):
                low, high = query.bounds(dim)
                first, last = self._flattener.column_range(dim, low, high, cols)
                if exactable is not None and not exactable(dim):
                    # Conditioned dims (conditional flattening): the column
                    # range is a union over predecessor columns, so every
                    # column needs per-point checks.
                    always_check.append(dim)
                    info.append((dim, first, last, False, False))
                else:
                    # Boundary columns need per-point checks, unless the
                    # query bound covers the whole domain on that side.
                    dom_lo, dom_hi = self._flattener.domain(dim)
                    check_first = low > dom_lo
                    check_last = high < dom_hi
                    info.append((dim, first, last, check_first, check_last))
            else:
                info.append((dim, 0, cols - 1, False, False))
        return info, always_check

    def _base_checks(self, query: Query, always_check, refine) -> tuple[str, ...]:
        """Dims needing per-point checks in *every* visited cell: non-indexed
        filtered dims, conditioned dims, and the sort dim when unrefined."""
        layout = self.layout
        base = tuple(
            d for d in query.dims if d not in layout.order and d in self.table
        ) + tuple(always_check)
        if query.filters(layout.sort_dim) and not refine:
            base += (layout.sort_dim,)
        return base

    def plan(self, query: Query) -> QueryPlan:
        """Vectorized projection: the non-empty cells inside the query box.

        The box's smallest and largest cell ids (``sum first_k * stride_k``,
        ``sum last_k * stride_k``) bound a slice of the sorted non-empty
        cell ids, found with one ``searchsorted``. Every id in that range
        already lies inside the box on the outermost grid dimension, so
        only the inner dimensions the query narrows are masked. Per-cell
        residual-check sets are packed into integer codes (one bit per grid
        dim, set on boundary columns that need per-point checks).
        ``cells_enumerated`` is the box's cell count, empty cells included.

        Under ``refinement='binary'``, a sort range whose rows are priced
        cheaper to read off the rank permutation than to probe per planned
        cell is refined here, before any per-cell array exists: the plan
        is built from those rows (:meth:`_plan_by_rank`) and comes back
        already refined (``refine`` is False, so :meth:`refine_plan` does
        nothing). Either way the refined plan is the same.
        """
        if self._table is None:
            raise BuildError(f"{self.name} index used before build()")
        layout = self.layout
        info, always_check = self._project(query)
        refine = query.filters(layout.sort_dim) and self.refinement != "none"
        sort_low, sort_high = query.bounds(layout.sort_dim)
        base_checks = self._base_checks(query, always_check, refine)
        first_id = last_id = 0
        for (_, first, last, _, _), stride in zip(info, layout.strides):
            first_id += first * stride
            last_id += last * stride
        enumerated = math.prod(last - first + 1 for _, first, last, _, _ in info)

        def make(cells, starts, stops, codes, refine):
            return QueryPlan(
                cells, starts, stops, codes, base_checks, layout.grid_dims,
                enumerated, refine, sort_low, sort_high,
            )

        lo, hi = self._nonempty.searchsorted((first_id, last_id + 1)).tolist()
        if lo == hi:
            empty = self._nonempty[:0]
            return make(empty, empty, empty, empty, refine)
        cells = self._nonempty[lo:hi]
        codes = None
        table = _code_table(info, layout.columns)
        if table is not None:
            lookup, narrowed = table
            codes = _lookup_codes(lookup, self._nonempty_cols[:, lo:hi])
            if narrowed:
                keep = codes < _OUTSIDE
                cells, codes = cells[keep], codes[keep]
        if refine and self.refinement == "binary":
            ranks = self._rank_first(cells.size, sort_low, sort_high)
            if ranks is not None:
                refined = self._plan_by_rank(*ranks, first_id, last_id, table)
                return make(*refined, False)
        if codes is None:
            codes = np.zeros(cells.size, dtype=np.int64)
        return make(
            cells, self._cell_starts[cells], self._cell_starts[cells + 1], codes, refine
        )

    def refine_plan(self, plan: QueryPlan) -> None:
        """Narrow every planned cell range on the sort dimension, in place.

        A cell's rows with sort values in ``[low, high]`` are exactly those
        whose refinement key lies in ``[cell << B | rank_left(low),
        cell << B | rank_right(high))``, where the ranks count the distinct
        sort values below ``low`` and at most ``high``. Under ``'binary'``
        the whole plan therefore refines with two ``searchsorted`` calls
        on the key; ``'plm'`` predicts inside each cell first. A plan that
        :meth:`plan` already refined through the rank permutation has
        ``refine`` False and is left as it is.
        """
        if not plan.refine or plan.cells.size == 0:
            return
        rank_lo, rank_hi = self._rank_range(plan.sort_low, plan.sort_high)
        shifted = plan.cells << self._rank_bits
        low_keys = shifted | rank_lo
        high_keys = shifted | rank_hi
        if self.refinement == "plm":
            new_starts = self._plm_search_cells(plan, plan.sort_low, low_keys)
            new_stops = self._plm_search_cells(plan, plan.sort_high, high_keys)
        else:
            new_starts = np.searchsorted(self._refine_key, low_keys)
            new_stops = np.searchsorted(self._refine_key, high_keys)
        keep = new_stops > new_starts
        plan.cells = plan.cells[keep]
        plan.starts = new_starts[keep]
        plan.stops = new_stops[keep]
        plan.codes = plan.codes[keep]
        plan.refine = False

    def _rank_range(self, low, high) -> tuple[int, int]:
        """Ranks ``[lo, hi)`` of the distinct sort values in ``[low,
        high]``: those below ``low`` and those at most ``high``, capped at
        the non-NaN values."""
        unique = self._sort_unique
        valid = _non_nan_prefix(unique)
        return (
            min(int(unique.searchsorted(low, "left")), valid),
            min(int(unique.searchsorted(high, "right")), valid),
        )

    def _rank_first(self, num_cells: int, low, high) -> tuple[int, int] | None:
        """The sort ranks ``[lo, hi)`` of ``[low, high]`` when reading
        their rows off the rank permutation is priced below probing the
        key for ``num_cells`` planned cells, else None."""
        key_ns = num_cells * _KEY_CELL_NS
        if key_ns <= _RANK_BASE_NS:
            return None
        rank_lo, rank_hi = self._rank_range(low, high)
        rows = int(self._rank_starts[rank_hi]) - int(self._rank_starts[rank_lo])
        if _RANK_BASE_NS + rows * _RANK_ROW_NS < key_ns:
            return rank_lo, rank_hi
        return None

    def _plan_by_rank(
        self, rank_lo: int, rank_hi: int, first_id: int, last_id: int, table
    ):
        """``(cells, starts, stops, codes)`` of the refined plan, from the
        rows whose sort ranks lie in ``[rank_lo, rank_hi)``; the box spans
        cell ids ``[first_id, last_id]`` and ``table`` is the query's
        :func:`_code_table`.

        Those rows, put back in storage order, fall into runs of one cell
        each, and within a cell they are contiguous (cells are sorted by
        sort value), so each run's first and last row bound that cell's
        refined range. Cells outside the box are dropped and the codes are
        computed on the cells left; the arrays equal what
        :meth:`refine_plan` makes of the unrefined plan.
        """
        begin, end = self._rank_starts[[rank_lo, rank_hi]].tolist()
        rows = self._by_rank[begin:end].astype(np.int64)
        rows.sort()
        if rows.size == 0:
            return rows, rows, rows, rows
        cell_of = self._refine_key[rows]
        cell_of >>= self._rank_bits
        head = np.empty(rows.size, dtype=bool)
        head[0] = True
        np.not_equal(cell_of[1:], cell_of[:-1], out=head[1:])
        tail = np.empty_like(head)
        tail[:-1] = head[1:]
        tail[-1] = True
        cells, starts, stops = cell_of[head], rows[head], rows[tail] + 1
        a, b = cells.searchsorted((first_id, last_id + 1)).tolist()
        cells, starts, stops = cells[a:b], starts[a:b], stops[a:b]
        if table is None:
            return cells, starts, stops, np.zeros(cells.size, dtype=np.int64)
        lookup, narrowed = table
        columns = self._nonempty_cols[:, self._nonempty.searchsorted(cells)]
        codes = _lookup_codes(lookup, columns)
        if narrowed:
            keep = codes < _OUTSIDE
            return cells[keep], starts[keep], stops[keep], codes[keep]
        return cells, starts, stops, codes

    def _plm_search_cells(
        self, plan: QueryPlan, probe, probe_keys: np.ndarray
    ) -> np.ndarray:
        """Absolute refined position of ``probe`` in every planned cell.

        The batched twin of ``PiecewiseLinearModel._search``: locate each
        cell's covering segment (lock-step binary search over the flattened
        segment keys), predict, verify the error-bounded bracket, repair
        failures to the segment's full range, then finish with a lock-step
        binary search over the brackets. Verification and the final search
        compare refinement keys with ``probe_keys`` (each cell's key for
        ``probe``, see :meth:`refine_plan`), so no sort-value column is
        decoded and both ends of the range are a ``'left'`` search.
        """
        cells, starts, stops = plan.cells, plan.starts, plan.stops
        key = self._refine_key
        probe = float(probe)
        seg_lo = self._plm_cell_offsets[cells]
        seg_hi = self._plm_cell_offsets[cells + 1]
        # Rightmost segment with key <= probe, per cell (upper bound - 1).
        upper = lockstep_searchsorted(
            self._plm_keys, seg_lo, seg_hi, probe, "right"
        )
        idx = upper - 1
        routed = idx >= seg_lo  # probe below a cell's first key -> position 0
        idx = np.maximum(idx, seg_lo)
        seg_pos = self._plm_pos[idx]
        seg_start = seg_pos.astype(np.int64)
        seg_end = self._plm_ends[idx]
        # Clip in float, before the int64 cast: a probe far outside the
        # data predicts far outside the segment (or past int64 range).
        pred = np.clip(
            seg_pos + self._plm_slope[idx] * (probe - self._plm_keys[idx]),
            seg_pos,
            seg_end,
        )
        lo = np.maximum(pred.astype(np.int64) - 1, seg_start)
        hi = np.minimum(
            (pred + self._plm_maxerr[idx]).astype(np.int64) + 2, seg_end
        )
        lo = np.minimum(lo, hi)
        below = key[np.maximum(lo - 1, 0)]
        above = key[np.minimum(hi, key.size - 1)]
        ok = ((lo == starts) | (below < probe_keys)) & (
            (hi >= stops) | (above >= probe_keys)
        )
        lo = np.where(ok, lo, seg_start)
        hi = np.where(ok, hi, np.minimum(seg_end, stops))
        out = lockstep_searchsorted(key, lo, hi, probe_keys, "left")
        return np.where(routed, out, starts)

    def execute_plan(
        self,
        plan: QueryPlan,
        query: Query,
        visitor: Visitor,
        stats: QueryStats,
        runs: list[tuple[int, int, int]] | None = None,
    ) -> None:
        """Scan a (refined) plan: coalesced runs, grouped by check set.

        Parameters
        ----------
        plan:
            A (refined) :class:`QueryPlan` for ``query``.
        query:
            The query, consulted for residual-check bounds.
        visitor:
            Aggregation visitor fed every matching range.
        stats:
            Mutated in place: ``points_scanned`` / ``points_matched`` /
            ``exact_points`` accumulate over all runs.
        runs:
            Optional pre-computed ``(start, stop, code)`` runs; defaults to
            ``plan.coalesced_runs()``. The sharded index passes each shard's
            run subset through here so per-shard scans reuse this kernel.
        """
        table = self.table
        if runs is None:
            runs = plan.coalesced_runs()
        if not runs:
            return
        kernel = get_kernel()
        by_code: dict[int, list[tuple[int, int]]] = {}
        for start, stop, code in runs:
            by_code.setdefault(code, []).append((start, stop))
        for code, spans in by_code.items():
            checks = plan.checks_for(code)
            bounds = [(d, *query.bounds(d)) for d in checks]
            scanned, matched = scan_runs(
                table, bounds, spans, visitor, kernel=kernel, stats=stats
            )
            stats.points_scanned += scanned
            stats.points_matched += matched
            if not bounds:
                stats.exact_points += scanned

    def query(self, query: Query, visitor: Visitor) -> QueryStats:
        """Execute one range query through the vectorized pipeline.

        Runs the paper's three stages — projection (:meth:`plan`),
        sort-dimension refinement (:meth:`refine_plan`), and the coalesced
        scan (:meth:`execute_plan`) — timing each into the returned stats.

        Parameters
        ----------
        query:
            Conjunction of inclusive ranges; dimensions it does not filter
            are unbounded.
        visitor:
            Aggregation visitor fed every matching range (``mask=None``
            marks exact ranges, enabling the cumulative-aggregate path).

        Returns
        -------
        :class:`~repro.query.stats.QueryStats` with the paper's counters
        (cells visited, points scanned/matched, per-stage times).
        """
        stats = QueryStats()
        # ---- projection (timed as a whole; per-cell timers would dominate
        # the very overhead they measure).
        index_start = timed()
        plan = self.plan(query)
        stats.cells_visited = plan.cells_enumerated
        stats.index_time = timed() - index_start
        # ---- refinement: narrow each cell's physical range on the sort dim.
        if plan.refine and plan.starts.size:
            refine_start = timed()
            self.refine_plan(plan)
            stats.refine_time = timed() - refine_start
        # ---- scan.
        scan_start = timed()
        self.execute_plan(plan, query, visitor, stats)
        stats.scan_time = timed() - scan_start
        stats.total_time = stats.index_time + stats.refine_time + stats.scan_time
        return stats

    def query_percell(self, query: Query, visitor: Visitor) -> QueryStats:
        """The seed's per-cell reference path (one ``product()`` combo at a
        time, one scan call per cell).

        Kept verbatim as the baseline for ``benchmarks/bench_throughput.py``
        and for result-identity tests against the vectorized engine; produces
        the same stats counters as :meth:`query`.

        Parameters
        ----------
        query:
            Conjunction of inclusive ranges (same semantics as
            :meth:`query`).
        visitor:
            Aggregation visitor fed every matching range.

        Returns
        -------
        :class:`~repro.query.stats.QueryStats`; counter-identical to
        :meth:`query` on the same query (timings differ, of course).
        """
        stats = QueryStats()
        layout = self.layout
        table = self.table
        index_start = timed()
        info, always_check = self._project(query)
        ranges = [range(first, last + 1) for _, first, last, _, _ in info]
        strides = layout.strides
        sort_dim = layout.sort_dim
        sort_filtered = query.filters(sort_dim)
        refine = sort_filtered and self.refinement != "none"
        sort_low, sort_high = query.bounds(sort_dim)
        base_checks = self._base_checks(query, always_check, refine)
        # Per-dim boundary flags indexed by column (True = needs checking).
        boundary_flags = []
        for dim, first, last, check_first, check_last in info:
            flags = {}
            if check_first:
                flags[first] = True
            if check_last:
                flags[last] = True
            boundary_flags.append(flags)
        grid_dim_names = layout.grid_dims
        cell_starts = self._cell_starts
        tasks = []  # (cell, start, stop, check_dims)
        for combo in product(*ranges):
            cell = 0
            checks = base_checks
            for k, col in enumerate(combo):
                cell += col * strides[k]
                if boundary_flags[k].get(col):
                    checks = checks + (grid_dim_names[k],)
            start = int(cell_starts[cell])
            stop = int(cell_starts[cell + 1])
            stats.cells_visited += 1
            if stop > start:
                tasks.append((cell, start, stop, checks))
        stats.index_time = timed() - index_start

        if refine and tasks:
            refine_start = timed()
            refined = []
            for cell, start, stop, checks in tasks:
                start, stop = self._refine(cell, start, stop, sort_low, sort_high)
                if stop > start:
                    refined.append((cell, start, stop, checks))
            tasks = refined
            stats.refine_time = timed() - refine_start

        scan_start = timed()
        bounds_cache: dict[tuple, list] = {}
        for _, start, stop, checks in tasks:
            if not checks:
                visitor.visit(table, start, stop, None)
                scanned = stop - start
                stats.points_scanned += scanned
                stats.points_matched += scanned
                stats.exact_points += scanned
                continue
            bounds = bounds_cache.get(checks)
            if bounds is None:
                bounds = [(d, *query.bounds(d)) for d in checks]
                bounds_cache[checks] = bounds
            scanned, matched = scan_filtered(table, bounds, start, stop, visitor)
            stats.points_scanned += scanned
            stats.points_matched += matched
        stats.scan_time = timed() - scan_start

        stats.total_time = stats.index_time + stats.refine_time + stats.scan_time
        return stats

    def _refine(self, cell, start, stop, low, high) -> tuple[int, int]:
        """Narrow non-empty cell ``cell``'s rows [start, stop) to
        sort-dimension values in [low, high]."""
        if self.refinement == "plm":
            model = self._cell_models[cell]
            return start + model.search_left(low), start + model.search_right(high)
        section = self._table.values(self.layout.sort_dim, start, stop)
        valid = _non_nan_prefix(section)
        i1 = min(int(np.searchsorted(section, low, side="left")), valid)
        i2 = min(int(np.searchsorted(section, high, side="right")), valid)
        return start + i1, start + i2

    # ------------------------------------------------------------------- size
    def size_bytes(self) -> int:
        """Index footprint: cell table, non-empty cells, flattening models
        (with their column edges), refinement key, rank permutation and
        distinct sort values (with each one's offset into the
        permutation), plus the per-cell PLMs under ``refinement='plm'``.

        Per row, the refinement key costs 8 bytes and the rank permutation
        4 (8 beyond 2**31 rows); each distinct sort value costs 8 plus a
        4-byte offset. In the paper (Section 7.4) the per-cell PLMs
        dominate instead; here they are an ablation on top of the key.
        """
        if self._table is None:
            return 0
        arrays = (
            self._cell_starts,
            self._nonempty,
            self._nonempty_cols,
            self._refine_key,
            self._by_rank,
            self._rank_starts,
            self._sort_unique,
        )
        return (
            sum(int(array.nbytes) for array in arrays)
            + self._flattener.size_bytes()
            + self.refinement_model_bytes()
        )

    def refinement_model_bytes(self) -> int:
        """Footprint of the per-cell PLMs alone (Figure 8 discussion); 0
        unless ``refinement='plm'``."""
        return sum(m.size_bytes() for m in self._cell_models if m is not None)
