"""Index construction and workload execution for the benchmarks.

Baselines are tuned per workload exactly the way the paper tunes them
(Section 7.4): dimension orderings by selectivity, the clustered index on
the most selective dimension, and page sizes picked by trying a small grid
of candidates on the training queries. Flood is built from a layout learned
by the optimizer — no manual tuning.
"""

from __future__ import annotations

import numpy as np

from repro.baselines import (
    ClusteredIndex,
    FullScanIndex,
    GridFileIndex,
    HyperoctreeIndex,
    KDTreeIndex,
    RStarTreeIndex,
    UBTreeIndex,
    ZOrderIndex,
)
# Re-exported for the experiment drivers; defined in core.calibration.
from repro.core.calibration import build_flood, default_cost_model  # noqa: F401
from repro.errors import BuildError
from repro.query.stats import WorkloadResult
from repro.storage.visitor import CountVisitor
from repro.workloads.query_gen import most_selective_dim, selectivity_ranked_dims

#: Candidate page sizes tried during tuning (the paper tunes page size per
#: workload; these span the useful range at our scaled-down row counts).
PAGE_SIZE_CANDIDATES = (512, 2048)

#: Baseline registry: name -> factory(dims_ranked, sort_dim, page_size).
BASELINE_NAMES = (
    "Full Scan",
    "Clustered",
    "Grid File",
    "Z Order",
    "UB tree",
    "Hyperoctree",
    "K-d tree",
    "R* Tree",
)


def _make_baseline(name: str, dims_ranked, sort_dim, page_size):
    if name == "Full Scan":
        return FullScanIndex()
    if name == "Clustered":
        return ClusteredIndex(sort_dim=sort_dim)
    if name == "Grid File":
        return GridFileIndex(dims_ranked, page_size=page_size,
                             max_directory_entries=1 << 20)
    if name == "Z Order":
        return ZOrderIndex(dims_ranked, page_size=page_size)
    if name == "UB tree":
        return UBTreeIndex(dims_ranked, page_size=page_size)
    if name == "Hyperoctree":
        return HyperoctreeIndex(dims_ranked, page_size=page_size)
    if name == "K-d tree":
        return KDTreeIndex(dims_ranked, page_size=page_size)
    if name == "R* Tree":
        return RStarTreeIndex(dims_ranked, page_size=page_size)
    raise BuildError(f"unknown baseline {name!r}")


def run_workload(index, queries, visitor_factory=CountVisitor) -> WorkloadResult:
    """Execute all queries on one index, collecting per-query statistics."""
    result = WorkloadResult(index.name)
    for query in queries:
        result.add(index.query(query, visitor_factory()))
    return result


def run_workload_batched(
    index, queries, visitor_factory=CountVisitor, workers: int = 1
) -> WorkloadResult:
    """Execute a workload through the throughput-mode batch engine.

    Only Flood supports batch execution; results and per-query statistics
    are identical to :func:`run_workload`, just faster in aggregate.
    """
    from repro.core.engine import BatchQueryEngine

    engine = BatchQueryEngine(index, workers=workers)
    return engine.run(queries, visitor_factory).workload_result(index.name)


def build_tuned_baselines(
    table,
    train_queries,
    include=BASELINE_NAMES,
    tune_pages: bool = False,
    tuning_queries: int = 10,
) -> dict:
    """Build every baseline, tuned for the training workload.

    Returns name -> built index; baselines whose construction fails the way
    the paper's did (Grid File on heavy skew, R*-tree OOM analog) map to
    ``None`` and are reported as N/A.
    """
    unknown = [name for name in include if name not in BASELINE_NAMES]
    if unknown:
        raise BuildError(f"unknown baselines {unknown}; choose from {BASELINE_NAMES}")
    sort_dim = most_selective_dim(table, train_queries)
    dims_ranked = selectivity_ranked_dims(table, train_queries)
    indexes = {}
    for name in include:
        best = None
        candidates = PAGE_SIZE_CANDIDATES if tune_pages else (512,)
        if name in ("Full Scan", "Clustered"):
            candidates = (512,)
        for page_size in candidates:
            try:
                index = _make_baseline(name, dims_ranked, sort_dim, page_size)
                index.build(table)
            except BuildError:
                continue
            if len(candidates) == 1:
                best = index
                break
            sample = train_queries[:tuning_queries]
            elapsed = run_workload(index, sample).avg_total_time
            if best is None or elapsed < best[0]:
                best = (elapsed, index)
        if best is None:
            indexes[name] = None
        else:
            indexes[name] = best if not isinstance(best, tuple) else best[1]
    return indexes


def geometric_speedup(baseline_ms: float, flood_ms: float) -> float:
    """Speedup factor with zero-guard (used in report rows)."""
    if flood_ms <= 0:
        return float("inf")
    return baseline_ms / flood_ms


def summarize(results: dict[str, WorkloadResult | None]) -> list[list]:
    """Rows of (index, avg ms, scan overhead, note) for report tables."""
    rows = []
    for name, result in results.items():
        if result is None:
            rows.append([name, "N/A", "N/A", "construction failed"])
            continue
        overhead = result.scan_overhead
        rows.append(
            [
                name,
                round(result.avg_total_time * 1e3, 4),
                "inf" if np.isinf(overhead) else round(overhead, 2),
                "",
            ]
        )
    return rows
