"""repro: a reproduction of "Learning Multi-Dimensional Indexes" (Flood).

Flood (Nathan, Ding, Alizadeh, Kraska — SIGMOD 2020) is a learned,
read-optimized, in-memory multi-dimensional clustered index that jointly
optimizes its data layout and index structure for a dataset and query
workload. This package implements Flood and every substrate the paper
depends on: the column store, the learned-model zoo (RMI / PLM / random
forests), eight baseline multi-dimensional indexes, dataset and workload
generators, and a benchmark harness regenerating every table and figure of
the paper's evaluation.

Quick start::

    from repro import FloodIndex, Query, CountVisitor
    from repro.core.calibration import build_flood
    from repro.datasets import load

    bundle = load("tpch", n=100_000)
    index, result = build_flood(bundle.table, bundle.train)
    visitor = CountVisitor()
    stats = index.query(bundle.test[0], visitor)
    print(visitor.result, stats.scan_overhead)
"""

from repro.core.cost import AnalyticCostModel, LearnedCostModel
from repro.core.flatten import Flattener
from repro.core.index import FloodIndex
from repro.core.layout import GridLayout
from repro.core.shard import ShardedFloodIndex
from repro.core.optimizer import find_optimal_layout, heuristic_layout
from repro.errors import BuildError, QueryError, ReproError, SchemaError
from repro.query.predicate import Query
from repro.query.stats import QueryStats, WorkloadResult
from repro.storage.table import Table
from repro.storage.visitor import (
    AvgVisitor,
    CollectVisitor,
    CountVisitor,
    MaxVisitor,
    MinVisitor,
    SumVisitor,
)

__version__ = "1.0.0"

__all__ = [
    "AnalyticCostModel",
    "LearnedCostModel",
    "Flattener",
    "FloodIndex",
    "GridLayout",
    "ShardedFloodIndex",
    "find_optimal_layout",
    "heuristic_layout",
    "BuildError",
    "QueryError",
    "ReproError",
    "SchemaError",
    "Query",
    "QueryStats",
    "WorkloadResult",
    "Table",
    "AvgVisitor",
    "CollectVisitor",
    "CountVisitor",
    "MaxVisitor",
    "MinVisitor",
    "SumVisitor",
    "__version__",
]
