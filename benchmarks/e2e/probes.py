"""The traced pass: per-layer metrics from spans, counters and probes.

Three sources, all on the harness's side of each module's public
surface (nothing under ``src/`` is edited or patched):

- *spans* the harness records around its own calls into a layer, reduced
  to self time (span minus children);
- *counters* the wire already returns — the ``stats`` op, per-reply
  ``stats``, the structured insert acks;
- *probes*: short in-process timings of one public function on real
  inputs of the workload (``scan_runs`` per kernel tier, ``ResultCache``
  calls, WAL appends through a counting ``StorageIO``, ...).

A probe whose target no longer exists reports ``None`` (printed as
``n/a``) and never fails the run: a refactor breaks a probe, not the
benchmark.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback

import numpy as np

from lib import CHUNK, check_answers, run_queries
from pinned import ROW_BYTES, median, percentile
from served import (
    OPEN_RATE,
    READ_WINDOW,
    OpenRun,
    achieved_rate,
    check_reads,
    closed_phase,
    run_write_mix,
)

#: Further rungs of serve_open's traced rate ladder (req/s), each held
#: for LADDER_SECONDS; a rung passes with p95-from-due-time at most the
#: limit and every reply in within 1 s of the window's end.
OPEN_LADDER = (1000.0, 1500.0, 2000.0, 3000.0)
LADDER_SECONDS = 1.0
OPEN_P95_LIMIT_MS = 50.0
#: Queries a micro-probe samples from the workload's pool.
PROBE_QUERIES = 64


def safe(probe, *args) -> dict:
    """Run one probe; a probe that breaks reports nothing, loudly."""
    try:
        return probe(*args)
    except Exception:  # a broken probe must not fail the benchmark
        print(f"probe {probe.__name__} failed:", file=sys.stderr)
        traceback.print_exc()
        return {}


def timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def setup_layers(system, cells: int) -> dict:
    """Where ``setup_s`` went, plus the layout fingerprint."""
    return {**system.steps.seconds, "core.optimizer.layout_cells": cells}


def overhead_pct(untraced_rate: float, traced_rate: float) -> float:
    return (untraced_rate - traced_rate) / untraced_rate * 100.0


def tail_latency_ms(latencies: list[float]) -> dict:
    """The tail figures that do not repeat within a tenth."""
    return {
        "client.query_p99_ms": percentile(latencies, 99) * 1e3,
        "client.query_max_ms": max(latencies) * 1e3,
    }


# ------------------------------------------------------------ lib workloads
def traced_queries(system, outcome, expected, seconds: float, tracer) -> dict:
    """The three stages of ``FloodIndex.query``, each under its own span."""
    from repro.query.stats import QueryStats

    clock = time.perf_counter
    index, pool, make = system.index, system.pool, system.visitor
    latencies = []
    cells = runs = scanned = matched = request = 0
    begin = clock()
    while clock() < begin + seconds:
        keys = system.take(32)
        visitors = []
        for key in keys:
            query, visitor, stats = pool[key], make(), QueryStats()
            start = clock()
            with tracer.span("lib.query", request):
                with tracer.span("core.index.plan", request):
                    plan = index.plan(query)
                with tracer.span("core.index.refine", request):
                    index.refine_plan(plan)
                with tracer.span("core.index.execute", request):
                    spans = plan.coalesced_runs()
                    index.execute_plan(plan, query, visitor, stats, runs=spans)
            latencies.append(clock() - start)
            visitors.append(visitor)
            cells += plan.cells_enumerated
            runs += len(spans)
            scanned += stats.points_scanned
            matched += stats.points_matched
            request += 1
        check_answers(outcome, expected, keys, visitors)
    wall = clock() - begin
    own = {name: float(np.mean(times)) for name, times in tracer.self_times().items()}
    stages = own["core.index.plan"] + own["core.index.refine"] + own["core.index.execute"]
    return {
        "rate": request / wall,
        "latencies": latencies,
        "layers": {
            "core.index.plan_us": own["core.index.plan"] * 1e6,
            "core.index.refine_us": own["core.index.refine"] * 1e6,
            "core.index.execute_us": own["core.index.execute"] * 1e6,
            "core.index.scan_share": own["core.index.execute"] / stages,
            "core.index.cells_per_query": cells / request,
            "core.index.runs_per_query": runs / request,
            "core.index.scan_overhead": scanned / max(matched, 1),
            # Computed, not measured: rows scanned x 8-byte values of the
            # aggregated and the filtered columns is an upper bound here.
            "storage.scan.bytes_per_query": scanned / request * 8
            * float(np.mean([len(q) for q in pool])),
        },
    }


def engine_probe(system, outcome, expected, seconds: float, tracer) -> dict:
    """``engine.run`` wall per query minus the queries' own time."""
    before = system.engine.cache_stats()
    overheads = []
    stop = time.perf_counter() + seconds
    while time.perf_counter() < stop:
        keys = system.take(CHUNK)
        with tracer.span("core.engine.run") as span:
            batch = system.engine.run(
                [system.pool[key] for key in keys], visitor_factory=system.visitor
            )
        outcome.attempted += len(keys)
        inside = sum(stats.total_time for stats in batch.stats)
        overheads.append((span[2] - span[1] - inside) / len(keys))
    after = system.engine.cache_stats()
    lookups = after["hits"] + after["misses"] - before["hits"] - before["misses"]
    return {
        "core.engine.run_overhead_us": float(np.mean(overheads)) * 1e6,
        "core.engine.enum_cache_hit_rate": (after["hits"] - before["hits"])
        / max(lookups, 1),
        "core.engine.enum_cache_evictions": after["evictions"] - before["evictions"],
    }


def _scan_groups(system):
    """``(bounds, runs)`` groups exactly as ``execute_plan`` hands them
    to ``scan_runs``, for a sample of the pool."""
    groups = []
    for query in system.pool[:PROBE_QUERIES]:
        plan = system.index.plan(query)
        system.index.refine_plan(plan)
        by_code: dict[int, list] = {}
        for start, stop, code in plan.coalesced_runs():
            by_code.setdefault(code, []).append((start, stop))
        for code, spans in by_code.items():
            bounds = [(dim, *query.bounds(dim)) for dim in plan.checks_for(code)]
            groups.append((bounds, spans))
    return groups


def scan_probe(system) -> dict:
    """``scan_runs`` per kernel tier on the workload's own run groups."""
    from repro.query.stats import QueryStats
    from repro.storage.kernels import get_kernel, numba_available
    from repro.storage.scan import scan_runs

    groups = _scan_groups(system)
    table = system.index.table
    out = {"storage.kernels.numba_ns_per_row": None}
    tiers = [
        ("storage.scan.classic_ns_per_row", None),
        ("storage.kernels.numpy_ns_per_row", get_kernel("numpy")),
    ]
    if numba_available():
        tiers.append(("storage.kernels.numba_ns_per_row", get_kernel("numba")))
    filtered = sum(1 for bounds, _ in groups if bounds)
    for name, kernel in tiers:
        best = None
        for _ in range(3):
            stats = QueryStats()
            rows = 0
            begin = time.perf_counter()
            for bounds, spans in groups:
                rows += scan_runs(
                    table, bounds, spans, system.visitor(), kernel=kernel, stats=stats
                )[0]
            elapsed = time.perf_counter() - begin
            best = elapsed if best is None else min(best, elapsed)
        out[name] = best / max(rows, 1) * 1e9
        if name == "storage.kernels.numpy_ns_per_row":
            out["storage.kernels.fused_group_share"] = stats.kernel_groups / max(
                filtered, 1
            )
    return out


def shard_probe(system) -> dict:
    """A 2-shard ``ShardedFloodIndex`` over the same index: serial vs
    thread backend. Nothing end-to-end runs sharded (``--shards 1``);
    kept so "does ThreadBackend earn its keep" has a number."""
    from repro.core.shard import ShardedFloodIndex

    out = {}
    queries = system.pool[:PROBE_QUERIES]
    for name, backend in (
        ("core.shard.serial_ms_per_query", "serial"),
        ("core.shard.thread2_ms_per_query", "thread"),
    ):
        sharded = ShardedFloodIndex.wrap(system.index, num_shards=2, backend=backend)
        for query in queries[:8]:
            sharded.query(query, system.visitor())
        begin = time.perf_counter()
        for query in queries:
            sharded.query(query, system.visitor())
        out[name] = (time.perf_counter() - begin) / len(queries) * 1e3
    return out


def lib_layers(name, system, outcome, expected, seconds: float, tracer) -> dict:
    """The traced pass of a lib workload."""
    begin = time.perf_counter()
    untraced = run_queries(system, outcome, expected, seconds / 4)
    wall = time.perf_counter() - begin
    traced = traced_queries(system, outcome, expected, seconds / 4, tracer)
    layers = setup_layers(system, system.design_cells)
    layers.update(traced["layers"])
    layers.update(tail_latency_ms(traced["latencies"]))
    layers["trace.overhead_pct"] = overhead_pct(len(untraced) / wall, traced["rate"])
    # No generator here, the harness *is* the caller: its share is the
    # part of the loop spent outside ``index.query``.
    layers["loadgen.cpu_share"] = 1.0 - sum(untraced) / wall
    layers["core.index.size_bytes_per_row"] = system.index.size_bytes() / len(system.table)
    layers.update(safe(engine_probe, system, outcome, expected, seconds / 4, tracer))
    if name == "lib_scan":
        layers.update(safe(scan_probe, system))
        layers.update(safe(shard_probe, system))
    return layers


# --------------------------------------------------------- served workloads
def batcher_layers(before: dict, after: dict, seconds: float) -> dict:
    """Deltas of the ``stats`` op over ``seconds`` of load."""

    def delta(*path):
        a, b = after, before
        for key in path:
            a = (a or {}).get(key)
            b = (b or {}).get(key)
        return (a or 0) - (b or 0)

    batches = delta("batches_dispatched")
    hits, misses = delta("cache", "hits"), delta("cache", "misses")
    enum_hits, enum_misses = delta("engine_cache", "hits"), delta("engine_cache", "misses")
    return {
        "serve.batcher.mean_batch_size": delta("queries_served") / max(batches, 1),
        "serve.batcher.largest_batch": after.get("largest_batch", 0),
        "serve.batcher.batches_per_s": batches / seconds,
        "serve.batcher.queries_rejected": delta("queries_rejected")
        + delta("queries_rejected_client"),
        "serve.batcher.writes_applied": delta("writes_applied"),
        "serve.cache.hit_rate": hits / max(hits + misses, 1),
        "serve.cache.evictions": delta("cache", "evictions"),
        "core.engine.enum_cache_hit_rate": enum_hits / max(enum_hits + enum_misses, 1),
        "core.engine.enum_cache_evictions": delta("engine_cache", "evictions"),
    }


async def unloaded_probe(system) -> dict:
    """One connection, window 1: the round trip with nothing queued,
    real request / reply lines for the codec probe on the way."""
    from repro.jsonutil import dumps_strict, loads_strict

    reader, writer = await system.server.connect()
    requests, replies, trips, inside = [], [], [], []
    try:
        for request, body in enumerate(system.bodies[-PROBE_QUERIES:]):
            line = b'{"id":%d,' % request + body
            start = time.perf_counter()
            writer.write(line)
            reply = await reader.readline()
            trips.append(time.perf_counter() - start)
            requests.append(line)
            replies.append(reply)
            inside.append(json.loads(reply)["stats"]["total_time"])
    finally:
        writer.close()
    parsed = [loads_strict(reply) for reply in replies]
    decode = timed(lambda: [loads_strict(line) for line in requests]) / len(requests)
    encode = timed(lambda: [dumps_strict(reply) for reply in parsed]) / len(parsed)
    return {
        "serve.batcher.unloaded_rtt_p50_ms": percentile(trips, 50) * 1e3,
        "serve.server.overhead_p50_ms": percentile(
            [trip - server for trip, server in zip(trips, inside)], 50
        ) * 1e3,
        "serve.server.decode_us": decode * 1e6,
        "serve.server.encode_us": encode * 1e6,
        "serve.server.request_bytes": float(np.mean([len(r) for r in requests])),
        "serve.server.reply_bytes": float(np.mean([len(r) for r in replies])),
    }


def cache_probe(system) -> dict:
    """``ResultCache`` calls in-process, on the workload's own queries."""
    from repro.query.stats import QueryStats
    from repro.serve.cache import ResultCache

    pool = system.pool
    begin = time.perf_counter()
    keys = [ResultCache.make_key(query, "count", None, generation=0) for query in pool]
    make_key = (time.perf_counter() - begin) / len(pool)
    cache = ResultCache(system.scale.cache_entries)
    value = (1, QueryStats())
    put = timed(lambda: [cache.put(key, value) for key in keys]) / len(keys)
    get = timed(lambda: [cache.get(key) for key in keys]) / len(keys)
    return {
        "serve.cache.make_key_us": make_key * 1e6,
        "serve.cache.put_us": put * 1e6,
        "serve.cache.get_us": get * 1e6,
    }


def delta_probe(system) -> dict:
    """``DeltaBufferedFlood.insert`` and the brute-force buffer scan."""
    from repro.core.delta import DeltaBufferedFlood
    from repro.storage.table import Table
    from repro.storage.visitor import CountVisitor

    columns = system.oracle.columns
    small = Table({dim: values[:20_000] for dim, values in columns.items()})
    delta = DeltaBufferedFlood(system.layout, merge_threshold=None).build(small)
    queries = system.pool[:PROBE_QUERIES]

    def scan():
        for query in queries:
            delta.query(query, CountVisitor())

    scan()
    empty = min(timed(scan) for _ in range(3))
    rows = [system.inserts.row(i) for i in range(2048)]
    insert = timed(lambda: [delta.insert(row) for row in rows]) / len(rows)
    loaded = min(timed(scan) for _ in range(3))
    return {
        "core.delta.insert_us": insert * 1e6,
        "core.delta.buffer_scan_us_per_krow": (loaded - empty)
        / len(queries) / (len(rows) / 1000) * 1e6,
    }


def wal_probe(system) -> dict:
    """Single-row WAL appends under ``--fsync batch``, bytes and fsyncs
    counted through a ``StorageIO`` subclass passed as ``io=``; plus one
    snapshot write of the workload's table."""
    from repro.storage.snapshot import snapshot_path, write_snapshot
    from repro.storage.wal import KIND_INSERT, StorageIO, WriteAheadLog

    class CountingIO(StorageIO):
        def __init__(self):
            self.bytes_written = 0
            self.fsyncs = 0

        def write(self, handle, data):
            self.bytes_written += len(data)
            super().write(handle, data)

        def fsync(self, handle):
            self.fsyncs += 1
            super().fsync(handle)

    directory = system.janitor.new_dir("wal-probe")
    os.makedirs(directory)
    rows = [
        {dim: values[i:i + 1] for dim, values in system.inserts.columns.items()}
        for i in range(2048)
    ]
    io = CountingIO()
    wal = WriteAheadLog(directory, fsync="batch", io=io)
    try:
        begin = time.perf_counter()
        for start, row in enumerate(rows):
            wal.append(KIND_INSERT, row, start)
        append = (time.perf_counter() - begin) / len(rows)
    finally:
        wal.close()
    write = timed(
        lambda: write_snapshot(
            directory, table=system.table, layout=system.layout,
            generation=0, merges=0, retrains=0, rows_merged_total=0,
        )
    )
    return {
        "storage.wal.append_us": append * 1e6,
        "storage.wal.bytes_per_row": io.bytes_written / len(rows),
        "storage.wal.fsyncs_per_krow": io.fsyncs / (len(rows) / 1000),
        "storage.snapshot.write_s": write,
        "snapshot_bytes": os.path.getsize(snapshot_path(directory)),
    }


def mix_layers(mix: dict) -> dict:
    """serve_write_mix's write side, from the structured insert acks."""
    items = [item for log, _ in mix["phases"] for item in log]
    seconds = sum(length for _, length in mix["phases"])
    acks = [item for item in items if item.kind == "i" and item.ok]
    latencies = [item.done - item.start for item in acks]
    merges = {item.extra[0]: item.extra[1] for item in acks}
    first = min(merges)
    merge_seconds = [value for count, value in merges.items() if count > first]
    stalls = [
        np.diff(sorted(item.done for item in log if item.kind == "q")).max()
        for log, _ in mix["phases"]
    ]
    return {
        "client.insert_ack_per_s": len(acks) / seconds,
        "client.insert_p50_ms": percentile(latencies, 50) * 1e3,
        "client.insert_p95_ms": percentile(latencies, 95) * 1e3,
        "client.insert_p99_ms": percentile(latencies, 99) * 1e3,
        "serve.mutable.merges": max(merges) - first,
        "serve.mutable.merge_s_p50": median(merge_seconds) if merge_seconds else None,
        "serve.mutable.max_stall_ms": float(max(stalls)) * 1e3,
        "core.delta.buffered_rows_mean": float(np.mean([i.extra[2] for i in acks])),
        "core.durable.checkpoints": max(i.extra[3] for i in acks)
        - min(i.extra[3] for i in acks),
        "core.durable.recovery_s": mix["recovery_s"],
        "core.durable.acked_rows_lost": mix["lost_rows"],
        "core.durable.space_amp": mix["space_bytes"] / mix["live_bytes"],
        "serve.server.rss_peak_mb": mix["peak_rss_mb"],
    }


def wire_layers(items, seconds: float, layers: dict) -> dict:
    """Tail latency and the server-busy share of one traced phase.

    A cache hit replays the ``stats`` of the execution that filled the
    entry, so the summed per-reply ``total_time`` is scaled by the miss
    rate to count only work the engine did in this phase.
    """
    reads = [item for item in items if item.kind == "q"]
    latencies = [item.done - item.start for item in reads]
    busy = sum(item.server_seconds or 0.0 for item in reads)
    busy *= 1.0 - layers["serve.cache.hit_rate"]
    return {
        **layers,
        **tail_latency_ms(latencies),
        "serve.server.engine_busy_share": busy / seconds,
    }


async def closed_layers(system, outcome, seconds, tracer, quick) -> dict:
    """serve_capacity / serve_hot: untraced half, traced half."""
    windows = [READ_WINDOW] * 2
    log, _ = await closed_phase(
        system, system.sources, windows, 0.2 if quick else 1.0, outcome
    )
    before = await system.server.op({"op": "stats"})
    half = seconds / 2
    plain, _ = await closed_phase(system, system.sources, windows, half, outcome)
    traced, _ = await closed_phase(system, system.sources, windows, half, outcome, tracer)
    after = await system.server.op({"op": "stats"})
    check_reads(outcome, log + plain + traced, system.expected)
    return {
        **wire_layers(traced, half, batcher_layers(before, after, seconds)),
        "trace.overhead_pct": overhead_pct(len(plain), len(traced)),
    }


async def open_layers(system, outcome, seconds, tracer, quick) -> dict:
    """serve_open: base-rate windows, then the rate ladder."""
    quarter = seconds / 4
    async with OpenRun(system, outcome) as run:
        await run.window(OPEN_RATE, 0.2 if quick else 0.5)
        before = await system.server.op({"op": "stats"})
        plain, backlog = await run.window(OPEN_RATE, quarter)
        run.loop.tracer = tracer
        traced, _ = await run.window(OPEN_RATE, quarter)
        run.loop.tracer = None
        after = await system.server.op({"op": "stats"})
        rungs = [(OPEN_RATE, plain, backlog)]
        for rate in () if quick else OPEN_LADDER:
            rungs.append((rate, *await run.window(rate, LADDER_SECONDS)))
    passed = 0.0
    for rate, done, backlog in rungs:
        p95 = percentile([item.done - item.start for item in done], 95) * 1e3
        if backlog or p95 > OPEN_P95_LIMIT_MS:
            break
        passed = rate
    return {
        **wire_layers(traced, quarter, batcher_layers(before, after, 2 * quarter)),
        "loadgen.max_rate_ok": passed,
        "loadgen.late_p95_ms": percentile([item.extra for item in traced], 95) * 1e3,
        "trace.overhead_pct": overhead_pct(achieved_rate(plain), achieved_rate(traced)),
    }


async def write_mix_layers(system, outcome, seconds, tracer, quick) -> dict:
    """serve_write_mix: untraced half, traced half, then the epilogue."""
    mix = (await run_write_mix(system, outcome, seconds, quick, tracer))["mix"]
    (plain, half), (traced, _) = mix["phases"]
    reads = [sum(1 for item in log if item.kind == "q") for log in (plain, traced)]
    return {
        **wire_layers(traced, half, batcher_layers(*mix["stats"], seconds)),
        **mix_layers(mix),
        "trace.overhead_pct": overhead_pct(*reads),
    }


async def served_layers(system, outcome, seconds, tracer, quick) -> dict:
    """The traced pass of a served workload."""
    if system.mixed:
        layers = await write_mix_layers(system, outcome, seconds, tracer, quick)
    elif system.name == "serve_open":
        layers = await open_layers(system, outcome, seconds, tracer, quick)
    else:
        layers = await closed_layers(system, outcome, seconds, tracer, quick)
    layers["loadgen.cpu_share"] = outcome.generator_cpu / outcome.generator_wall
    # serve_write_mix read its peak right before the kill -9.
    layers.setdefault("serve.server.rss_peak_mb", system.server.rss_mb("VmHWM"))
    layers.update(setup_layers(system, system.layout.num_cells))
    layers.update(await unloaded_probe(system))
    if system.name == "serve_hot":
        layers.update(safe(cache_probe, system))
    if system.mixed:
        layers.update(safe(delta_probe, system))
        wal = safe(wal_probe, system)
        snapshot_bytes = wal.pop("snapshot_bytes", None)
        layers.update(wal)
        if snapshot_bytes and layers["client.insert_ack_per_s"]:
            # Computed from the probes' sizes and the run's counts: each
            # checkpoint rewrites the whole snapshot, each insert appends
            # one WAL frame.
            acks = layers["client.insert_ack_per_s"] * seconds
            written = (
                layers["core.durable.checkpoints"] * snapshot_bytes
                + acks * wal["storage.wal.bytes_per_row"]
            )
            layers["core.durable.write_amp"] = written / (acks * ROW_BYTES)
    return layers
