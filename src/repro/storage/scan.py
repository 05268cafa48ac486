"""The scan-and-filter kernel shared by every index.

``scan_range`` scans one physical range of the clustered table, checks each
row against the residual filter, and feeds the visitor. Every residual
mask, here and in the baselines, comes from :func:`residual_mask`, which
compares compressed columns on their block-delta codes (paper Section
7.1) rather than decoding them. Two paper optimizations live here:

- **Exact ranges** (Section 7.1, optimization 1): when the caller guarantees
  every row in the range matches (``exact=True``), per-value checks are
  skipped entirely and the visitor receives ``mask=None`` — which in turn
  unlocks cumulative-aggregate answers.
- **Skip dims**: dimensions already guaranteed by the caller (e.g. the sort
  dimension after refinement, or a k-d tree page fully inside the query
  rectangle on some dimension) are excluded from the residual filter,
  reducing per-point work — this is why Flood's "time per scanned point" is
  lower than the baselines' in Table 2.

``scan_runs`` scans one code group of a Flood plan. The built-in
aggregates take the whole group in one ``visit_rows`` call; other
visitors get one ``visit`` per run that matched.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.storage.table import Table
from repro.storage.visitor import (
    AvgVisitor,
    CollectVisitor,
    CountVisitor,
    MaxVisitor,
    MinVisitor,
    SumVisitor,
    Visitor,
)


def residual_mask(
    table: Table,
    bounds: list[tuple[str, int, int]],
    start: int,
    stop: int,
    indices: np.ndarray | None = None,
) -> np.ndarray:
    """Rows passing every ``(dim, low, high)`` of the non-empty ``bounds``.

    The mask covers rows ``[start, stop)``, or the row ids ``indices``
    when given. Contiguous rows go through :meth:`Table.range_mask`,
    which compares compressed columns on their delta codes; gathered
    rows compare values decoded with one ``take`` per dimension.
    """
    mask = None
    for dim, low, high in bounds:
        if indices is None:
            dim_mask = table.range_mask(dim, start, stop, low, high)
        else:
            values = table.take(dim, indices)
            dim_mask = (values >= low) & (values <= high)
        if mask is None:
            mask = dim_mask
        else:
            mask &= dim_mask
    return mask


def scan_range(
    table: Table,
    ranges: Mapping[str, tuple[int, int]],
    start: int,
    stop: int,
    visitor: Visitor,
    exact: bool = False,
    skip_dims: frozenset[str] | set[str] = frozenset(),
) -> tuple[int, int]:
    """Scan rows [start, stop), filter by ``ranges``, accumulate ``visitor``.

    Parameters
    ----------
    ranges:
        Dim name -> inclusive (low, high) bounds. Dims not in the table are
        ignored (the paper ignores filters on unindexed dims at this layer).
    exact:
        The caller guarantees all rows match; skip all checks.
    skip_dims:
        Dims whose bounds are already guaranteed for this range.

    Returns
    -------
    (points_scanned, points_matched)
    """
    start = max(0, int(start))
    stop = min(table.num_rows, int(stop))
    if stop <= start:
        return 0, 0
    scanned = stop - start
    if exact:
        visitor.visit(table, start, stop, None)
        return scanned, scanned
    applicable = [
        (dim, low, high)
        for dim, (low, high) in ranges.items()
        if dim in table and dim not in skip_dims
    ]
    if not applicable:
        visitor.visit(table, start, stop, None)
        return scanned, scanned
    return scan_filtered(table, applicable, start, stop, visitor)


def scan_filtered(
    table: Table,
    bounds: list[tuple[str, int, int]],
    start: int,
    stop: int,
    visitor: Visitor,
) -> tuple[int, int]:
    """Lean scan kernel for callers that pre-resolved the residual filter.

    ``bounds`` is a non-empty list of ``(dim, low, high)`` already
    restricted to dims present in the table; range clamping is the caller's
    job. Flood's per-cell scan path uses this to avoid re-deriving the
    residual filter for every cell.
    """
    mask = residual_mask(table, bounds, start, stop)
    matched = int(np.count_nonzero(mask))
    if matched:
        visitor.visit(table, start, stop, mask)
    return stop - start, matched


def split_runs(
    runs: list[tuple[int, int, int]], boundaries
) -> list[list[tuple[int, int, int]]]:
    """Partition coalesced ``(start, stop, code)`` runs at shard boundaries.

    Parameters
    ----------
    runs:
        Storage-ordered, non-overlapping ``(start, stop, code)`` triples
        (the shape produced by ``QueryPlan.coalesced_runs``).
    boundaries:
        Ascending row offsets ``[b_0=0, b_1, ..., b_K=num_rows]`` delimiting
        K storage-contiguous shards; shard ``k`` owns rows
        ``[b_k, b_{k+1})``.

    Returns
    -------
    One run list per shard, in shard order. A run crossing a boundary is
    split at it (the residual-check code is duplicated on both sides), so
    concatenating the per-shard lists scans exactly the input rows. Shards
    that intersect no run get an empty list.
    """
    boundaries = np.asarray(boundaries, dtype=np.int64)
    num_shards = boundaries.size - 1
    per_shard: list[list[tuple[int, int, int]]] = [[] for _ in range(num_shards)]
    if num_shards <= 0:
        return per_shard
    for start, stop, code in runs:
        # First shard whose [b_k, b_{k+1}) intersects [start, stop).
        k = int(np.searchsorted(boundaries, start, side="right")) - 1
        k = max(0, min(k, num_shards - 1))
        while start < stop:
            if k < num_shards - 1:
                piece_stop = min(stop, int(boundaries[k + 1]))
            else:
                piece_stop = stop  # last shard absorbs any overhang
            per_shard[k].append((start, piece_stop, code))
            start = piece_stop
            k += 1
    return per_shard


#: Runs decode with one gather when their count times the columns read
#: per row is at least _GATHER_MIN_RUNS and they average fewer than
#: _GATHER_MAX_RUN rows each.
_GATHER_MIN_RUNS = 8
_GATHER_MAX_RUN = 256


def gather_runs(
    runs: list[tuple[int, int]], dims: int = 1
) -> tuple[np.ndarray, np.ndarray] | None:
    """Row ids of ``runs`` concatenated, when one gathered decode pays.

    Many short runs — the typical shape after per-cell sort-dimension
    refinement — decode faster with one ``take`` per dimension than with
    one slice decode per run per dimension; a gather over few or long
    runs costs more than the slices it replaces. The price is per run
    *and* per column read (``dims``: the checked dims, or the one
    aggregated column of an exact group), since the slices are: three
    short runs checked on three dims gather, three checked on one do not.
    Returns ``(indices, offsets)``, where ``offsets[i]`` is run ``i``'s
    first position in ``indices``, or ``None`` when the runs should
    decode as contiguous slices (also whenever a run is empty:
    ``np.add.reduceat`` misreads zero-length segments).
    """
    if len(runs) * dims < _GATHER_MIN_RUNS:
        return None
    starts = np.array([start for start, _ in runs], dtype=np.int64)
    lengths = np.array([stop for _, stop in runs], dtype=np.int64) - starts
    total = int(lengths.sum())
    if total > len(runs) * _GATHER_MAX_RUN or int(lengths.min()) <= 0:
        return None
    offsets = np.cumsum(lengths) - lengths
    # Per-position run base plus the position's offset within its run.
    indices = np.repeat(starts - offsets, lengths)
    indices += np.arange(total, dtype=np.int64)
    return indices, offsets


#: Built-in visitors fed one ``visit_rows`` call per run group. Matched
#: by exact type, like the fused kernels: a subclass may override
#: ``visit`` and must see every call.
_GROUP_VISITORS = frozenset(
    {CountVisitor, SumVisitor, AvgVisitor, MinVisitor, MaxVisitor, CollectVisitor}
)


def _reads_rows(visitor: Visitor, table: Table) -> bool:
    """Whether a group visitor's per-run ``visit`` on an exact run reads
    row values: not a SUM or AVG that the table's prefix column answers
    per run in O(1). (COUNT never gets here.)"""
    kind = type(visitor)
    if kind in (SumVisitor, AvgVisitor):
        sums = visitor._sum if kind is AvgVisitor else visitor
        return not (sums.use_cumulative and table.has_cumulative(sums.dim))
    return True


def scan_runs(
    table: Table,
    bounds: list[tuple[str, int, int]],
    runs: list[tuple[int, int]],
    visitor: Visitor,
    kernel=None,
    stats=None,
) -> tuple[int, int]:
    """Scan a batch of physical runs sharing one residual filter.

    The batched counterpart of :func:`scan_filtered`, used by the vectorized
    Flood query path after coalescing storage-adjacent cells. When
    :func:`gather_runs` says so, all runs are decoded with one gather per
    filter dimension and masked in a single vectorized pass, instead of
    one mask per run.

    The built-in visitors (exact types) see the group once, through
    ``visit_rows`` with the ascending ids of every matching row: one
    ``take`` of the aggregate column replaces a slice decode per run. A
    gathered group, exact or masked, passes its gathered row ids; long
    masked runs pass only their matched rows. COUNT over exact runs adds
    up their lengths once; over masked runs that do not gather it keeps
    the per-run loop (counting a mask decodes no aggregate column), and
    a SUM or AVG over exact runs answered from a prefix column keeps it
    too. Any other visitor gets one
    ``visit`` per run that matched.

    Parameters
    ----------
    table:
        The clustered table to scan.
    bounds:
        ``(dim, low, high)`` residual filters, already restricted to dims
        present in the table. An empty list means every run is *exact*
        (``mask=None`` to the visitor, unlocking the cumulative-aggregate
        fast path).
    runs:
        ``(start, stop)`` physical ranges in storage order; zero-length
        runs are tolerated.
    visitor:
        Aggregation visitor fed the matching rows.
    kernel:
        Optional fused-scan kernel
        (:class:`repro.storage.kernels.ScanKernel`, as returned by
        ``get_kernel()``). When the visitor × dtype combination is
        fusable, filter and aggregate run as one pass and the per-run
        visitor loop is skipped; otherwise this path falls through
        unchanged.
    stats:
        Optional :class:`~repro.query.stats.QueryStats`;
        ``kernel_groups`` is bumped when the fused path answered.

    Returns
    -------
    Aggregate ``(points_scanned, points_matched)`` over all runs.
    """
    grouped = type(visitor) in _GROUP_VISITORS
    if not bounds:
        if type(visitor) is CountVisitor:
            scanned = sum([stop - start for start, stop in runs])
            visitor.count += scanned
            return scanned, scanned
        if grouped and _reads_rows(visitor, table):
            gathered = gather_runs(runs)
            if gathered is not None:
                rows = gathered[0]
                visitor.visit_rows(table, rows)
                return rows.size, rows.size
        scanned = 0
        for start, stop in runs:
            visitor.visit(table, start, stop, None)
            scanned += stop - start
        return scanned, scanned
    if kernel is not None:
        fused = kernel.fused_scan(table, bounds, runs, visitor)
        if fused is not None:
            if stats is not None:
                stats.kernel_groups += 1
            return fused
    gathered = gather_runs(runs, len(bounds))
    if gathered is not None:
        indices, offsets = gathered
        mask = residual_mask(table, bounds, 0, 0, indices)
        if grouped:
            rows = indices[mask]
            if rows.size:
                visitor.visit_rows(table, rows)
            return indices.size, rows.size
        counts = np.add.reduceat(mask.astype(np.int64), offsets)
        for (start, stop), offset, count in zip(
            runs, offsets.tolist(), counts.tolist()
        ):
            if count:
                visitor.visit(table, start, stop, mask[offset : offset + stop - start])
        return indices.size, int(counts.sum())
    if grouped and type(visitor) is not CountVisitor:
        return _scan_matched_rows(table, bounds, runs, visitor)
    scanned = 0
    matched = 0
    for start, stop in runs:
        run_scanned, run_matched = scan_filtered(table, bounds, start, stop, visitor)
        scanned += run_scanned
        matched += run_matched
    return scanned, matched


def _scan_matched_rows(
    table: Table,
    bounds: list[tuple[str, int, int]],
    runs: list[tuple[int, int]],
    visitor: Visitor,
) -> tuple[int, int]:
    """Mask each run, then feed a group visitor the matched row ids of
    all runs in one ``visit_rows`` call; rows that fail the filter are
    never decoded for the aggregate."""
    scanned = 0
    pieces = []
    for start, stop in runs:
        if stop <= start:
            continue
        scanned += stop - start
        rows = np.flatnonzero(residual_mask(table, bounds, start, stop))
        if rows.size:
            rows += start
            pieces.append(rows)
    if not pieces:
        return scanned, 0
    rows = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
    visitor.visit_rows(table, rows)
    return scanned, rows.size
