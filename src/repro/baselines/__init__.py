"""Baseline multi-dimensional indexes (paper Section 7.2 / Appendix A).

Every baseline is implemented on the same column store as Flood and shares
the same scan kernel and visitor model, mirroring the paper's methodology.

- :class:`FullScanIndex` -- scan everything, touch only filtered columns.
- :class:`ClusteredIndex` -- single-dimension clustered index with an
  RMI-learned lookup (the paper's "Clustered" baseline).
- :class:`SimpleGridIndex` -- equal-width grid over *all* d dimensions (the
  "Simple Grid" starting point of the Figure 11 ablation).
- :class:`GridFileIndex` -- incrementally split Grid File [30].
- :class:`ZOrderIndex` -- Z-value ordered pages with min/max pruning.
- :class:`UBTreeIndex` -- Z-value pages with BIGMIN skip-ahead [36].
- :class:`HyperoctreeIndex` -- recursive 2^d space subdivision [26].
- :class:`KDTreeIndex` -- median-split k-d tree.
- :class:`RStarTreeIndex` -- bulk-loaded (STR) read-optimized R-tree.
"""

from repro.baselines.clustered import ClusteredIndex
from repro.baselines.full_scan import FullScanIndex
from repro.baselines.grid_file import GridFileIndex
from repro.baselines.kdtree import KDTreeIndex
from repro.baselines.octree import HyperoctreeIndex
from repro.baselines.rstar import RStarTreeIndex
from repro.baselines.simple_grid import SimpleGridIndex
from repro.baselines.ub_tree import UBTreeIndex
from repro.baselines.zorder import ZOrderIndex
from repro.query.base import BaseIndex

__all__ = [
    "BaseIndex",
    "ClusteredIndex",
    "FullScanIndex",
    "GridFileIndex",
    "KDTreeIndex",
    "HyperoctreeIndex",
    "RStarTreeIndex",
    "SimpleGridIndex",
    "UBTreeIndex",
    "ZOrderIndex",
]
