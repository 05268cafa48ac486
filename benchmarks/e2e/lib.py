"""The two in-process workloads: ``lib_scan`` and ``lib_index``.

Both drive ``FloodIndex(layout).build(table)``, ``index.query`` and
``BatchQueryEngine(index).run`` — nothing below that surface. They are
mirror images: ``lib_scan`` (pinned layout, selectivity 4e-2,
``SUM(quantity)``) spends its time in ``storage.scan`` /
``storage.kernels``; ``lib_index`` (layout ``.scaled(3)``, selectivity
1e-4, ``COUNT``) spends it in ``core.index`` projection and refinement.
A scan-kernel change predicts "no change" on the second, a projection,
refinement or enumeration-cache change "no change" on the first.
"""

from __future__ import annotations

import time

from oracle import Oracle, sample_ids
from outcome import REPS, Outcome, latency_summary
from pinned import (
    Scale,
    Steps,
    design_layout,
    generate_queries,
    generate_table,
    median,
    rss_mb,
)

LIB_WORKLOADS = {
    "lib_scan": {"grid_scale": 1, "selectivity": 4e-2, "agg": "sum", "dim": "quantity"},
    "lib_index": {"grid_scale": 3, "selectivity": 1e-4, "agg": "count", "dim": None},
}

#: Queries per ``engine.run`` call in the throughput part of a repetition.
CHUNK = 128
#: Share of each repetition spent on ``engine.run`` (qps); the rest times
#: single ``index.query`` calls (latency).
THROUGHPUT_SHARE = 0.6


class LibSystem:
    """One set-up: pinned layout, the run's table and pool, built index."""

    def __init__(self, name: str, scale: Scale, seed: int):
        from repro.core.engine import BatchQueryEngine
        from repro.core.index import FloodIndex
        from repro.storage.visitor import CountVisitor, SumVisitor

        spec = LIB_WORKLOADS[name]
        self.steps = Steps()
        begin = time.perf_counter()
        layout = design_layout(scale, self.steps)
        self.design_cells = layout.num_cells
        if spec["grid_scale"] != 1:
            layout = layout.scaled(spec["grid_scale"])
        self.layout = layout
        self.table = generate_table(scale.rows, seed, self.steps)
        self.pool = generate_queries(
            self.table, scale.lib_pool, spec["selectivity"], seed + 1, self.steps
        )
        with self.steps.step("core.index.build_s"):
            self.index = FloodIndex(layout).build(self.table)
        self.engine = BatchQueryEngine(self.index)
        self.setup_seconds = time.perf_counter() - begin
        agg, dim = spec["agg"], spec["dim"]
        self.agg, self.dim = agg, dim
        self.visitor = (lambda: SumVisitor(dim)) if agg == "sum" else CountVisitor
        self._cursor = 0

    def expected_answers(self) -> dict[int, int]:
        """Oracle answers for the sampled pool positions (harness cost,
        outside ``setup_s``)."""
        oracle = Oracle.from_table(self.table)
        return {
            key: oracle.answer(self.pool[key].ranges, self.agg, self.dim)
            for key in sample_ids(len(self.pool))
        }

    def take(self, count: int) -> list[int]:
        """The next ``count`` pool positions, cycling through the pool."""
        size = len(self.pool)
        keys = [(self._cursor + i) % size for i in range(count)]
        self._cursor = (self._cursor + count) % size
        return keys


def check_answers(outcome: Outcome, expected: dict, keys, visitors) -> None:
    """Count the queries; fail sampled answers that differ from the oracle."""
    outcome.attempted += len(keys)
    wrong = sum(
        1
        for key, visitor in zip(keys, visitors)
        if key in expected and visitor.result != expected[key]
    )
    outcome.fail(wrong, "answer differs from the brute-force oracle")


def run_engine(system: LibSystem, outcome, expected, seconds: float) -> tuple[int, float]:
    """``engine.run`` over chunks until ``seconds`` pass; ``(queries, wall)``."""
    done = 0
    begin = time.perf_counter()
    stop = begin + seconds
    while time.perf_counter() < stop:
        keys = system.take(CHUNK)
        batch = system.engine.run(
            [system.pool[key] for key in keys], visitor_factory=system.visitor
        )
        check_answers(outcome, expected, keys, batch.visitors)
        done += len(keys)
    return done, time.perf_counter() - begin


def run_queries(system: LibSystem, outcome, expected, seconds: float) -> list[float]:
    """Time single ``index.query`` calls until ``seconds`` pass."""
    latencies = []
    clock = time.perf_counter
    stop = clock() + seconds
    index, pool, make = system.index, system.pool, system.visitor
    while clock() < stop:
        keys = system.take(32)
        visitors = []
        for key in keys:
            visitor = make()
            start = clock()
            index.query(pool[key], visitor)
            latencies.append(clock() - start)
            visitors.append(visitor)
        check_answers(outcome, expected, keys, visitors)
    return latencies


def _warm_up(system: LibSystem, outcome, expected, quick: bool) -> None:
    run_engine(system, outcome, expected, 0.1 if quick else 0.5)
    run_queries(system, outcome, expected, 0.05 if quick else 0.25)


def run_lib(name: str, scale: Scale, seed: int, seconds: float, tracer, quick: bool) -> Outcome:
    """One run of a lib workload: untraced end-to-end, or the traced pass."""
    outcome = Outcome()
    setups = []
    system = None
    for _ in range(1 if tracer is not None else scale.setup_reps):
        system = None  # free the previous set-up before building the next
        system = LibSystem(name, scale, seed)
        setups.append(system.setup_seconds)
    expected = system.expected_answers()
    _warm_up(system, outcome, expected, quick)
    if tracer is not None:
        from probes import lib_layers

        outcome.per_layer = lib_layers(name, system, outcome, expected, seconds, tracer)
        return outcome
    reps = 1 if quick else REPS
    length = seconds / reps
    rates, latencies = [], []
    for _ in range(reps):
        done, wall = run_engine(system, outcome, expected, length * THROUGHPUT_SHARE)
        rates.append(done / wall)
        latencies.append(
            run_queries(system, outcome, expected, length * (1 - THROUGHPUT_SHARE))
        )
    outcome.end_to_end = {
        "setup_s": median(setups),
        "qps": median(rates),
        **latency_summary(latencies),
        "rss_mb": rss_mb(),
    }
    return outcome

