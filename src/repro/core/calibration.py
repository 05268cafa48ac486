"""Cost-model calibration (paper Section 4.1.1).

Flood trains its weight models *once per machine*: it generates random
layouts over an arbitrary (possibly synthetic) dataset, runs a query
workload on each, and measures, per query, the statistics
(:class:`~repro.core.cost.QueryFeatures`) together with the realized
weights ``wp = projection_time / Nc``, ``wr = refinement_time / Nc``,
``ws = scan_time / Ns``. A random forest per weight is then fit on these
examples. Table 3 shows the resulting model transfers across datasets.

:func:`default_cost_model` is that once-per-machine model, cached on disk,
and :func:`build_flood` learns a layout with it and builds Flood.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field

import numpy as np

from repro.core.cost import CostModel, LearnedCostModel, QueryFeatures
from repro.core.index import FloodIndex
from repro.core.layout import GridLayout
from repro.core.optimizer import find_optimal_layout
from repro.ml.forest import RandomForestRegressor
from repro.storage.visitor import CountVisitor
from repro.storage.wal import StorageIO


@dataclass
class CalibrationData:
    """Raw training examples: one row per (query, random layout) pair."""

    features: list[QueryFeatures] = field(default_factory=list)
    wp: list[float] = field(default_factory=list)
    wr: list[float] = field(default_factory=list)
    ws: list[float] = field(default_factory=list)
    #: Extra per-example measurements kept for Figure 5.
    ns: list[int] = field(default_factory=list)
    run_length: list[float] = field(default_factory=list)

    def matrix(self) -> np.ndarray:
        return np.stack([f.to_vector() for f in self.features])

    def __len__(self) -> int:
        return len(self.features)


def random_layout(
    dims, rng: np.random.Generator, max_cells: int = 4096
) -> GridLayout:
    """A random layout: random dimension ordering, random column counts
    targeting a random total cell count (Section 4.1.1)."""
    order = list(dims)
    rng.shuffle(order)
    k = len(order) - 1
    if k == 0:
        return GridLayout(tuple(order), ())
    # Log-uniform cell-count target from 2 (nearly a clustered index, long
    # scan runs) to max_cells (tiny cells): the weight models must see both
    # regimes or ws extrapolates badly at long run lengths.
    target = float(rng.uniform(np.log(2), np.log(max_cells)))
    shares = rng.dirichlet(np.ones(k)) * target
    columns = tuple(max(1, int(round(np.exp(s)))) for s in shares)
    return GridLayout(tuple(order), columns)


def generate_training_examples(
    table,
    queries,
    num_layouts: int = 10,
    seed: int = 0,
    flatten: str = "rmi",
    max_cells: int = 4096,
    repeats: int = 2,
) -> CalibrationData:
    """Run ``queries`` on ``num_layouts`` random layouts, measuring weights.

    Each query on each layout yields one training example (the paper found
    10 random layouts sufficient). Each query runs ``repeats`` times and the
    fastest run is kept — single-shot wall-clock weights are noisy enough to
    visibly perturb the learned layouts.
    """
    rng = np.random.default_rng(seed)
    data = CalibrationData()
    dims = list(table.dims)
    for _ in range(num_layouts):
        layout = random_layout(dims, rng, max_cells=max_cells)
        index = FloodIndex(layout, flatten=flatten).build(table)
        for query in queries:
            stats = index.query(query, CountVisitor())
            for _ in range(repeats - 1):
                candidate = index.query(query, CountVisitor())
                if candidate.total_time < stats.total_time:
                    stats = candidate
            nc = max(stats.cells_visited, 1)
            features = QueryFeatures(
                total_cells=layout.num_cells,
                nc=stats.cells_visited,
                ns=stats.points_scanned,
                dims_filtered=len(query),
                sort_filtered=query.filters(layout.sort_dim),
                table_rows=table.num_rows,
            )
            data.features.append(features)
            data.wp.append(stats.index_time / nc)
            data.wr.append(stats.refine_time / nc)
            data.ws.append(
                stats.scan_time / stats.points_scanned
                if stats.points_scanned
                else 0.0
            )
            data.ns.append(stats.points_scanned)
            data.run_length.append(features.avg_run_length)
    return data


def calibrate(
    table,
    queries,
    num_layouts: int = 10,
    seed: int = 0,
    n_estimators: int = 20,
    max_depth: int = 10,
) -> LearnedCostModel:
    """End-to-end calibration: examples -> three weight forests."""
    data = generate_training_examples(table, queries, num_layouts, seed=seed)
    return fit_cost_model(data, n_estimators=n_estimators, max_depth=max_depth, seed=seed)


def fit_cost_model(
    data: CalibrationData,
    n_estimators: int = 20,
    max_depth: int = 10,
    seed: int = 0,
    log_space: bool = True,
) -> LearnedCostModel:
    """Fit the three weight forests on pre-generated examples.

    ``log_space`` trains on log-weights (default): the realized weights
    span ~50x in this substrate, and raw-space regression lets the largest
    weights dominate the split criterion, mispricing long scan runs.
    """
    matrix = data.matrix()
    floor = 1e-10
    models = []
    for targets in (data.wp, data.wr, data.ws):
        targets = np.maximum(np.asarray(targets, dtype=np.float64), floor)
        if log_space:
            targets = np.log(targets)
        forest = RandomForestRegressor(
            n_estimators=n_estimators, max_depth=max_depth, seed=seed
        )
        forest.fit(matrix, targets)
        models.append(forest)
    return LearnedCostModel(*models, weight_floor=floor, log_space=log_space)


_default_model_cache: dict = {}


def _model_cache_path(seed: int) -> str:
    cache_dir = os.environ.get(
        "REPRO_CACHE_DIR", os.path.join(os.path.expanduser("~"), ".cache", "repro-flood")
    )
    return os.path.join(cache_dir, f"cost_model_v1_seed{seed}.pkl")


def default_cost_model(seed: int = 0) -> CostModel:
    """The once-per-machine calibrated weight model (Section 4.1.1).

    As in the paper, calibration runs once on an arbitrary synthetic
    dataset — here a 100k-row, 5-dim uniform table with a mixed-selectivity
    workload — and the resulting model is reused for every dataset (Table 3
    shows this transfer is sound). Persisted to ``REPRO_CACHE_DIR`` (default
    ``~/.cache/repro-flood``) so examples and benchmark runs pay the
    calibration cost once per machine, exactly as the paper intends.
    """
    if seed in _default_model_cache:
        return _default_model_cache[seed]
    path = _model_cache_path(seed)
    if os.path.exists(path):
        try:
            with open(path, "rb") as handle:
                model = pickle.load(handle)
            _default_model_cache[seed] = model
            return model
        except (pickle.UnpicklingError, EOFError, AttributeError):
            pass  # stale cache from an older version: recalibrate
    from repro.datasets.synthetic import generate_uniform, uniform_workload

    table = generate_uniform(n=100_000, d=5, seed=seed)
    queries = uniform_workload(table, num_queries=30, seed=seed + 1)
    model = calibrate(table, queries, num_layouts=12, seed=seed)
    _default_model_cache[seed] = model
    try:
        _store_model(path, model)
    except OSError:
        pass  # read-only filesystem: keep the in-process cache only
    return model


def _store_model(path: str, model: CostModel) -> None:
    """Persist the model cache; a torn file only costs a recalibration
    (:func:`default_cost_model` skips one that does not unpickle)."""
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    with open(path, "wb") as handle:
        pickle.dump(model, handle)
    StorageIO().fsync_dir(directory)


def build_flood(
    table,
    train_queries,
    cost_model: CostModel | None = None,
    data_sample_size: int = 2000,
    query_sample_size: int = 30,
    max_cells: int = 8192,
    seed: int = 0,
    **flood_kwargs,
):
    """Learn a layout on the training workload and build Flood.

    Returns ``(index, optimization_result)``; ``index.build_seconds`` is the
    paper's "loading time", ``result.learn_seconds`` the "learning time".
    """
    cost_model = cost_model or default_cost_model()
    result = find_optimal_layout(
        table,
        train_queries,
        cost_model,
        data_sample_size=data_sample_size,
        query_sample_size=query_sample_size,
        max_cells=max_cells,
        seed=seed,
    )
    index = FloodIndex(result.layout, **flood_kwargs).build(table)
    return index, result
