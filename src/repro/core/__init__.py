"""Flood: the learned multi-dimensional index (the paper's contribution).

- :mod:`repro.core.layout` -- the grid layout: dimension ordering (last is
  the sort dimension) and per-grid-dimension column counts (Section 3.1).
- :mod:`repro.core.flatten` -- per-attribute CDF flattening so each column
  holds equal mass (Section 5.1).
- :mod:`repro.core.index` -- the Flood index: projection, sort-dimension
  refinement, and scan (Sections 3.2 and 5.2).
- :mod:`repro.core.protocol` -- the queryable-index protocol the engine
  and serving stack program against (plain, sharded, or delta-buffered).
- :mod:`repro.core.engine` -- throughput-mode batch execution of query
  workloads (vectorized plans, worker pool).
- :mod:`repro.core.shard` -- intra-query parallelism: the clustered table
  split into storage-contiguous shards so one large query's scan fans
  out across a zero-copy pool of worker processes.
- :mod:`repro.core.cost` -- the cost model Time = wp*Nc + wr*Nc + ws*Ns with
  learned weights (Section 4.1).
- :mod:`repro.core.calibration` -- weight-model training from random
  layouts (Section 4.1.1).
- :mod:`repro.core.optimizer` -- layout optimization over samples
  (Section 4.2 / Algorithm 1).

Extensions the paper sketches (Sections 6 and 8) are implemented too:
:mod:`repro.core.knn` (nearest-neighbor search over the grid),
:mod:`repro.core.delta` (inserts via a delta buffer),
:mod:`repro.core.durable` (the delta buffer made crash-safe: WAL +
snapshots + warm restart), and :mod:`repro.core.monitor` (workload-shift
detection + auto-retraining).
"""

from repro.core.calibration import calibrate, generate_training_examples
from repro.core.cost import AnalyticCostModel, CostModel, LearnedCostModel, QueryFeatures
from repro.core.delta import DeltaBufferedFlood
from repro.core.durable import DurableDeltaFlood
from repro.core.engine import BatchQueryEngine, BatchResult
from repro.core.flatten import Flattener
from repro.core.index import FloodIndex, QueryPlan
from repro.core.knn import KNNSearcher, knn
from repro.core.layout import GridLayout
from repro.core.monitor import AdaptiveFlood, WorkloadMonitor
from repro.core.optimizer import find_optimal_layout, heuristic_layout
from repro.core.protocol import (
    MutableIndex,
    QueryableIndex,
    require_queryable,
    supports_insert,
)
from repro.core.shard import ProcessBackend, ShardedFloodIndex

__all__ = [
    "ShardedFloodIndex",
    "QueryableIndex",
    "MutableIndex",
    "require_queryable",
    "supports_insert",
    "ProcessBackend",
    "DeltaBufferedFlood",
    "DurableDeltaFlood",
    "KNNSearcher",
    "knn",
    "AdaptiveFlood",
    "WorkloadMonitor",
    "calibrate",
    "generate_training_examples",
    "AnalyticCostModel",
    "CostModel",
    "LearnedCostModel",
    "QueryFeatures",
    "BatchQueryEngine",
    "BatchResult",
    "Flattener",
    "FloodIndex",
    "GridLayout",
    "QueryPlan",
    "find_optimal_layout",
    "heuristic_layout",
]
