"""The four served workloads, driven over TCP against ``repro serve``.

Each set-up pre-builds a durable data dir with the pinned layout and
launches ``python -m repro serve --index delta --data-dir DIR --shards 1
--cache-entries N``; the server warm-restarts from the snapshot, so the
calibrated cost model never runs. All four share one small-query pool
(selectivity 1e-4, ``COUNT``) and differ in what they ask of it:

- ``serve_capacity`` — closed loop, 2 connections x window 16, every
  query distinct within the cache's horizon: wire + batcher + engine.
- ``serve_hot`` — same loop, Zipf(1.1) over a pool four times the cache:
  ``serve.cache`` answers most requests.
- ``serve_open`` — open loop on a fixed schedule, latency from each
  request's due time: the batcher's gather delay and queueing.
- ``serve_write_mix`` — one connection reads (window 8) while the other
  sends single-row inserts (window 4): WAL appends, generation bumps,
  off-loop merges and checkpoints beside reads; ends with ``kill -9``,
  a warm restart and a recount.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import time

import numpy as np

from oracle import Oracle, sample_ids
from outcome import REPS, Outcome, latency_summary, split_reps
from pinned import (
    ROW_BYTES,
    Scale,
    Steps,
    design_layout,
    generate_queries,
    generate_table,
    median,
    percentile,
)
from wire import (
    HarnessError,
    OpenLoop,
    Server,
    closed_loop,
    insert_body,
    query_body,
)

SERVED_WORKLOADS = ("serve_capacity", "serve_hot", "serve_open", "serve_write_mix")

SELECTIVITY = 1e-4
READ_WINDOW = 16  # serve_capacity / serve_hot, per connection
MIX_WINDOWS = (8, 4)  # serve_write_mix: read connection, insert connection
OPEN_RATE = 500.0  # req/s of serve_open's end-to-end windows
ZIPF_EXPONENT = 1.1
#: Queries re-checked exactly at quiesce on serve_write_mix.
QUIESCE_CHECKS = 200
#: Inserts acked right before ``kill -9``: fewer than the merge
#: threshold, so they sit in the WAL tail and recovery must replay them.
TAIL_INSERTS = 48
#: Beyond every generated value: a whole-domain range. Asked of a *grid*
#: dimension: a sort-dimension range this far outside the data makes
#: ``FloodIndex.refine_plan`` raise IndexError (found here, lives in src/).
EVERYTHING = [-(2**31), 2**31]


class ServedSystem:
    """One set-up: pinned layout, table, pool, data dir, running server."""

    def __init__(self, name: str, scale: Scale, seed: int, janitor):
        self.name = name
        self.scale = scale
        self.seed = seed
        self.janitor = janitor
        self.steps = Steps()
        self.mixed = name == "serve_write_mix"
        self.rows = scale.write_rows if self.mixed else scale.rows
        self.pool_size = scale.hot_pool if name == "serve_hot" else scale.serve_pool
        self.server: Server | None = None
        self.flags = ["--cache-entries", str(scale.cache_entries)]
        if self.mixed:
            self.flags += [
                "--merge-threshold", str(scale.merge_threshold), "--fsync", "batch",
            ]

    async def start(self) -> "ServedSystem":
        from repro.core.durable import DurableDeltaFlood

        begin = time.perf_counter()
        self.layout = design_layout(self.scale, self.steps)
        self.table = generate_table(self.rows, self.seed, self.steps)
        self.pool = generate_queries(
            self.table, self.pool_size, SELECTIVITY, self.seed + 1, self.steps
        )
        self.data_dir = self.janitor.new_dir("data")
        with self.steps.step("core.index.build_s"):
            DurableDeltaFlood(
                self.layout, self.data_dir, fsync="batch", merge_threshold=None
            ).build(self.table).close()
        with self.steps.step("serve.server.start_s"):
            await self.spawn()
        self.setup_seconds = time.perf_counter() - begin
        return self

    async def spawn(self) -> None:
        """(Re)launch the server on the data dir; the ``Layout:`` guard
        applies to every launch."""
        self.server = await Server.spawn(
            self.janitor, self.data_dir, self.flags, layout=self.layout
        )

    def prepare(self) -> None:
        """Harness-side cost kept out of ``setup_s``: encoded request
        lines and the oracle's answers for the sampled pool positions."""
        self.bodies = [query_body(query) for query in self.pool]
        self.oracle = Oracle.from_table(self.table)
        self.expected = {
            key: self.oracle.answer(self.pool[key].ranges)
            for key in sample_ids(len(self.pool))
        }
        if self.name == "serve_hot":
            shared = zipf(self.bodies, self.seed + 2)
            self.sources = [shared, shared]
        elif self.mixed:
            self.inserts = InsertRows(self)
            self.sources = [
                cycle(self.bodies, 0, len(self.bodies)),
                once([("i", key, body) for key, body in enumerate(self.inserts.bodies)]),
            ]
        else:
            half = len(self.bodies) // 2
            self.sources = [
                cycle(self.bodies, 0, half), cycle(self.bodies, half, len(self.bodies))
            ]

    def data_dir_bytes(self) -> int:
        return sum(
            os.path.getsize(os.path.join(self.data_dir, name))
            for name in os.listdir(self.data_dir)
        )


async def set_up(name: str, scale: Scale, seed: int, janitor, reps: int):
    """Set up ``reps`` times, keeping the last; returns it and the times."""
    seconds = []
    system = None
    for _ in range(reps):
        if system is not None:
            await system.server.shutdown()
            shutil.rmtree(system.data_dir, ignore_errors=True)
            system = None  # drop the table before generating the next
        system = await ServedSystem(name, scale, seed, janitor).start()
        seconds.append(system.setup_seconds)
    return system, seconds


# ---------------------------------------------------------------- sources
def cycle(bodies, first: int, last: int):
    """Requests for pool positions ``first..last-1``, round and round:
    a position returns only after ``last - first`` others, far beyond
    the result cache's LRU horizon."""
    position = first

    def source():
        nonlocal position
        key = position
        position = first if position + 1 == last else position + 1
        return "q", key, bodies[key]

    return source


def zipf(bodies, seed: int):
    """Pool positions drawn Zipf(1.1) by rank; the pool's own order is
    random, so rank r is simply position r."""
    weights = 1.0 / np.arange(1, len(bodies) + 1) ** ZIPF_EXPONENT
    draws = np.random.default_rng(seed).choice(
        len(bodies), size=1 << 17, p=weights / weights.sum()
    ).tolist()
    cursor = 0

    def source():
        nonlocal cursor
        key = draws[cursor % len(draws)]
        cursor += 1
        return "q", key, bodies[key]

    return source


def once(items):
    """Each ``(kind, key, body)`` exactly once, in order; then ``None``."""
    iterator = iter(items)
    return lambda: next(iterator, None)


class InsertRows:
    """The rows the insert connection sends, generated from the seed."""

    def __init__(self, system: ServedSystem):
        from repro.datasets.tpch import generate_lineitem

        table = generate_lineitem(system.scale.insert_rows, seed=system.seed + 3)
        self.columns = {dim: table.values(dim) for dim in table.dims}
        self.bodies = [insert_body(self.row(i)) for i in range(len(table))]

    def row(self, i: int) -> dict:
        """Row ``i`` as the wire's ``{dim: int}`` object."""
        return {dim: int(values[i]) for dim, values in self.columns.items()}

    def rows(self, keys) -> dict:
        keys = np.asarray(sorted(keys), dtype=np.int64)
        return {dim: values[keys] for dim, values in self.columns.items()}


# ------------------------------------------------------------------ phases
async def closed_phase(system, sources, windows, seconds: float, outcome, tracer=None):
    """One closed loop per source for ``seconds``, then drain.

    Returns ``(completions, begin)``; requests that never got a reply
    are counted as failed here.
    """
    log: list = []
    conns = [await system.server.connect() for _ in sources]
    begin = time.perf_counter()
    cpu = time.process_time()
    try:
        sent = await asyncio.gather(
            *[
                closed_loop(conn, source, window, begin + seconds, log, tracer, name)
                for conn, source, window, name in zip(conns, sources, windows, "ab")
            ]
        )
    finally:
        for _, writer in conns:
            writer.close()
    outcome.generator_cpu += time.process_time() - cpu
    outcome.generator_wall += time.perf_counter() - begin
    lost = sum(sent) - len(log)
    outcome.attempted += lost
    outcome.fail(lost, "request never answered")
    return log, begin


def check_reads(outcome: Outcome, completions, expected: dict, upper: dict | None = None):
    """Count every read; fail error replies and sampled wrong answers.

    With ``upper`` (serve_write_mix) a reply racing concurrent inserts is
    admissible anywhere between the base count and the count once every
    row sent is in; the exact check happens at quiesce.
    """
    errors = wrong = 0
    for item in completions:
        if not item.ok:
            errors += 1
        elif item.key in expected:
            low = expected[item.key]
            high = low if upper is None else upper[item.key]
            if not low <= item.result <= high:
                wrong += 1
    outcome.attempted += len(completions)
    outcome.fail(errors, "error / overloaded reply")
    outcome.fail(wrong, "answer differs from the brute-force oracle")


def read_metrics(windows) -> dict:
    """qps / p50 / p95 as the median over repetition windows."""
    return {
        "qps": median([completion_rate(window) for window in windows]),
        **latency_summary(
            [[item.done - item.start for item in window] for window in windows]
        ),
    }


def completion_rate(window) -> float:
    """Replies per second between a window's first and last reply."""
    first = min(item.done for item in window)
    last = max(item.done for item in window)
    return (len(window) - 1) / (last - first)


def achieved_rate(window) -> float:
    """Replies per second from the first due time to the last reply."""
    return len(window) / (
        max(item.done for item in window) - min(item.start for item in window)
    )


def open_metrics(windows) -> dict:
    """The same three for open-loop windows (latency from due time)."""
    return {
        "qps": median([achieved_rate(window) for window in windows]),
        **latency_summary([[i.done - i.start for i in window] for window in windows]),
    }


class OpenRun:
    """serve_open's two connections and schedule, shared by both passes."""

    def __init__(self, system: ServedSystem, outcome: Outcome):
        self.system = system
        self.outcome = outcome
        self.log: list = []
        self._source = cycle(system.bodies, 0, len(system.bodies))

    async def __aenter__(self):
        self.conns = [await self.system.server.connect() for _ in range(2)]
        self.loop = OpenLoop(self.conns, self.log)
        return self

    async def __aexit__(self, *exc):
        await self.loop.close()
        for _, writer in self.conns:
            writer.close()
        check_reads(self.outcome, self.log, self.system.expected)

    async def window(self, rate: float, seconds: float):
        """One schedule window; returns ``(completions, backlog)``."""
        mark = len(self.log)
        cpu, wall = time.process_time(), time.perf_counter()
        sent, backlog = await self.loop.window(
            lambda: self._source()[1:], rate, seconds
        )
        self.outcome.generator_cpu += time.process_time() - cpu
        self.outcome.generator_wall += time.perf_counter() - wall
        done = self.log[mark:]
        self.outcome.attempted += sent - len(done)
        self.outcome.fail(sent - len(done), "request never answered")
        return done, backlog


# --------------------------------------------------------------- workloads
async def run_closed(system, outcome, seconds: float, quick: bool) -> dict:
    """serve_capacity / serve_hot, untraced: warm-up then REPS windows."""
    windows = [READ_WINDOW] * 2
    warm, _ = await closed_phase(
        system, system.sources, windows, 0.2 if quick else 1.0, outcome
    )
    rss = system.server.rss_mb()
    log, begin = await closed_phase(system, system.sources, windows, seconds, outcome)
    check_reads(outcome, warm + log, system.expected)
    reps = 1 if quick else REPS
    return {"rss_mb": rss, **read_metrics(split_reps(log, begin, seconds / reps, reps))}


async def run_open(system, outcome, seconds: float, quick: bool) -> dict:
    """serve_open, untraced: warm-up then REPS windows at the base rate."""
    reps = 1 if quick else REPS
    async with OpenRun(system, outcome) as run:
        await run.window(OPEN_RATE, 0.2 if quick else 0.5)
        rss = system.server.rss_mb()
        windows = [
            (await run.window(OPEN_RATE, seconds / reps))[0] for _ in range(reps)
        ]
    return {"rss_mb": rss, **open_metrics(windows)}


async def run_write_mix(system, outcome, seconds: float, quick: bool, tracer=None) -> dict:
    """serve_write_mix: mixed phase, quiesce check, ``kill -9`` epilogue.

    Returns the end-to-end metrics plus, under ``"mix"``, what the traced
    pass derives its per-layer numbers from. With a ``tracer`` the timed
    part is an untraced half followed by a traced half.
    """
    inserts, pool = system.inserts, system.pool
    warm = 0.2 if quick else 1.0
    phases = [(warm, None)] + (
        [(seconds, None)] if tracer is None else [(seconds / 2, None), (seconds / 2, tracer)]
    )
    server = system.server
    logs, stats, rss = [], [], []
    for length, phase_tracer in phases:
        stats.append(await server.op({"op": "stats"}))
        log, _ = await closed_phase(
            system, system.sources, MIX_WINDOWS, length, outcome, phase_tracer
        )
        logs.append((log, length))
        rss.append(server.rss_mb())
    stats.append(await server.op({"op": "stats"}))
    everything = [item for log, _ in logs for item in log]
    writes = [item for item in everything if item.kind == "i"]
    acked = {item.key for item in writes if item.ok}
    outcome.attempted += len(writes)
    outcome.fail(len(writes) - len(acked), "insert not acknowledged")
    sent_rows = system.oracle.with_rows(inserts.rows(item.key for item in writes))
    upper = {
        key: sent_rows.answer(pool[key].ranges) for key in system.expected
    }
    check_reads(
        outcome, [i for i in everything if i.kind == "q"], system.expected, upper
    )

    # Quiesce: load stopped, buffer merged. Every acked row is now in the
    # one state all replies have to agree with, so the check is exact.
    merged = await server.op({"id": 0, "op": "merge"})
    outcome.attempted += 1
    outcome.fail(0 if merged.get("ok") else 1, "merge op failed")
    truth = system.oracle.with_rows(inserts.rows(acked))
    step = max(1, len(pool) // QUIESCE_CHECKS)
    quiesce = {
        key: truth.answer(pool[key].ranges) for key in range(0, len(pool), step)
    }
    log, _ = await closed_phase(
        system, [once([("q", key, system.bodies[key]) for key in quiesce])],
        [8], 0.0, outcome,
    )
    check_reads(outcome, log, quiesce)

    # Durability epilogue: a few more acked inserts stay in the WAL tail,
    # then SIGKILL, a warm restart on the same directory, and a recount.
    tail = [system.sources[1]() for _ in range(TAIL_INSERTS)]
    log, _ = await closed_phase(
        system, [once([item for item in tail if item is not None])],
        [MIX_WINDOWS[1]], 0.0, outcome,
    )
    tail_acked = sum(1 for item in log if item.ok)
    outcome.attempted += len(log)
    outcome.fail(len(log) - tail_acked, "insert not acknowledged")
    peak_rss = server.rss_mb("VmHWM")
    space = system.data_dir_bytes()
    await server.kill()
    restart = time.perf_counter()
    await system.spawn()
    recovery = time.perf_counter() - restart
    recount = await system.server.op(
        {"id": 0, "ranges": {system.layout.grid_dims[0]: EVERYTHING}}
    )
    want = system.rows + len(acked) + tail_acked
    outcome.attempted += 1
    lost_rows = 0
    if recount.get("ok"):
        lost_rows = max(0, want - recount["result"])
        outcome.fail(lost_rows, "acked row missing after kill -9 + restart")
    else:
        outcome.fail(1, f"recount after restart failed: {recount.get('error')}")

    # Pooled over the timed part, not a median of windows: merges come
    # about one window apart, so single windows alternate between
    # "merge" and "no merge" and their median flips between the two.
    timed = [item for log, _ in logs[1:] for item in log]
    reads = [item for item in timed if item.kind == "q"]
    latencies = [item.done - item.start for item in reads]
    return {
        "qps": completion_rate(reads),
        "query_p50_ms": percentile(latencies, 50) * 1e3,
        "query_p95_ms": percentile(latencies, 95) * 1e3,
        "rss_mb": rss[0],
        "mix": {
            "peak_rss_mb": peak_rss,
            "phases": logs[1:],
            "stats": (stats[1], stats[-1]),
            "recovery_s": recovery,
            "lost_rows": lost_rows,
            "space_bytes": space,
            "live_bytes": want * ROW_BYTES,
        },
    }


async def run_served(name, scale, seed, seconds, tracer, quick, janitor) -> Outcome:
    """One run of a served workload: untraced end-to-end, or the traced pass."""
    outcome = Outcome()
    reps = 1 if tracer is not None else scale.setup_reps
    system, setups = await set_up(name, scale, seed, janitor, reps)
    try:
        system.prepare()
        if tracer is not None:
            from probes import served_layers

            outcome.per_layer = await served_layers(
                system, outcome, seconds, tracer, quick
            )
            return outcome
        if system.mixed:
            metrics = await run_write_mix(system, outcome, seconds, quick)
            del metrics["mix"]
        elif name == "serve_open":
            metrics = await run_open(system, outcome, seconds, quick)
        else:
            metrics = await run_closed(system, outcome, seconds, quick)
        outcome.end_to_end = {"setup_s": median(setups), **metrics}
        return outcome
    finally:
        await system.server.shutdown()


def run_served_sync(name, scale, seed, seconds, tracer, quick, janitor) -> Outcome:
    """``asyncio.run`` under a watchdog: a hung server fails the run
    instead of hanging the benchmark."""

    async def guarded():
        try:
            return await asyncio.wait_for(
                run_served(name, scale, seed, seconds, tracer, quick, janitor),
                timeout=150,
            )
        except asyncio.TimeoutError:
            raise HarnessError(f"{name} did not finish within 150 s") from None

    return asyncio.run(guarded())
