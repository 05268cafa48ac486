"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``
    The quickstart flow: generate a dataset, learn a layout, compare Flood
    against a full scan on held-out queries.
``bench ARTIFACT``
    Regenerate one paper artifact (e.g. ``fig7``, ``table2``,
    ``ablation_flatten``) or ``all``; writes under ``results/``.
``datasets``
    List available dataset generators with their bench-scale sizes.
``calibrate``
    Force (re)calibration of the machine's cost model and print where it
    was cached.
``throughput``
    Serve a generated workload through the batch query engine (throughput
    mode) and report queries/second, optionally against the seed's
    per-cell reference loop.
``serve``
    Build an index over a generated dataset and serve it to concurrent
    clients over TCP (JSON lines), with micro-batching, optional table
    sharding (``--shards``, scanned on worker processes), result caching
    (``--cache-entries`` / ``--cache-ttl``), admission control
    (``--max-queue-depth``), and per-connection fairness
    (``--max-client-depth``); pair with :mod:`repro.serve.client`.
    ``--index delta`` serves a mutable delta-buffered index accepting
    wire ``insert`` ops, with off-loop merges at ``--merge-threshold``
    buffered rows (0 = never) and, with ``--adaptive``, live layout
    replacement when the workload shifts. ``--data-dir PATH`` makes the
    mutable index durable: every insert is WAL-appended before its ack
    (``--fsync always|batch|never``), merges snapshot the clustered
    table, and a restart on the same PATH recovers warm — snapshot plus
    WAL tail, no dataset regeneration or layout re-learning.
``bench-diff``
    Compare this run's ``results/BENCH_*.json`` perf points against a
    previous run's artifact directory and flag >20% regressions —
    the CI trajectory check.
``check``
    Run the project's static invariant rules (loop-safety,
    resource-release, generation-discipline, strict-json,
    visitor-protocol, write-barrier, durability-ack) over
    ``src/`` + ``benchmarks/``
    (or given paths); ``--format json`` for the machine-readable CI
    gate, ``--list-rules`` to see what is enforced. Exit 0 clean,
    1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

#: CLI artifact name -> experiments-module driver function name.
BENCH_DRIVERS = {
    "table1": "table1_datasets",
    "table2": "table2_breakdown",
    "table3": "table3_robustness",
    "table4": "table4_creation",
    "fig5": "fig5_weights",
    "fig7": "fig7_overall",
    "fig8": "fig8_pareto",
    "fig9": "fig9_mixes",
    "fig10": "fig10_shifting",
    "fig11": "fig11_ablation",
    "fig12": "fig12_scaling",
    "fig13": "fig13_dimensions",
    "fig14": "fig14_costmodel",
    "fig15": "fig15_data_sampling",
    "fig16": "fig16_query_sampling",
    "fig17": "fig17_percell",
    "ablation_refinement": "ablation_refinement",
    "ablation_flatten": "ablation_flatten",
    "ablation_conditional": "ablation_conditional",
    "monetdb": "monetdb_parity",
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Learning Multi-Dimensional Indexes' (Flood).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="quickstart: learn a layout and query it")
    demo.add_argument("--dataset", default="tpch", help="dataset name")
    demo.add_argument("--rows", type=int, default=100_000, help="row count")
    demo.add_argument("--seed", type=int, default=7)

    bench = sub.add_parser("bench", help="regenerate a paper artifact")
    bench.add_argument(
        "artifact",
        choices=sorted(BENCH_DRIVERS) + ["all"],
        help="which table/figure to regenerate",
    )

    sub.add_parser("datasets", help="list dataset generators")
    sub.add_parser("calibrate", help="(re)calibrate the cost model")

    throughput = sub.add_parser(
        "throughput", help="batch-engine throughput on a generated workload"
    )
    throughput.add_argument("--dataset", default="tpch", help="dataset name")
    throughput.add_argument("--rows", type=int, default=100_000, help="row count")
    throughput.add_argument(
        "--queries", type=int, default=200, help="workload size (test queries)"
    )
    throughput.add_argument(
        "--workers", type=int, default=1, help="engine worker threads"
    )
    throughput.add_argument(
        "--repeats", type=int, default=3, help="timed passes over the workload"
    )
    throughput.add_argument(
        "--grid-scale",
        type=float,
        default=1.0,
        help="scale the learned grid's column counts (restores paper-scale "
        "cells-per-query at bench-scale row counts; see Fig. 14)",
    )
    throughput.add_argument(
        "--compare-legacy",
        action="store_true",
        help="also time the seed's per-cell loop and verify identical results",
    )
    throughput.add_argument("--seed", type=int, default=7)

    serve = sub.add_parser(
        "serve", help="serve an index to concurrent clients over TCP"
    )
    serve.add_argument("--dataset", default="tpch", help="dataset name")
    serve.add_argument("--rows", type=int, default=100_000, help="row count")
    serve.add_argument("--host", default="127.0.0.1", help="listen address")
    serve.add_argument(
        "--port", type=int, default=0, help="listen port (0 picks a free one)"
    )
    serve.add_argument(
        "--workers", type=int, default=1, help="engine worker threads"
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="table shards for intra-query parallelism: large queries scan "
        "them on a zero-copy worker-process pool (1 = unsharded, the "
        "default; 0 = one per core; needs --index flood)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=64, help="micro-batch size bound"
    )
    serve.add_argument(
        "--max-delay-ms",
        type=float,
        default=2.0,
        help="micro-batch latency bound (ms the first request may wait)",
    )
    serve.add_argument(
        "--cache-entries",
        type=int,
        default=0,
        help="result-cache capacity: repeated (query, aggregate) requests "
        "are answered without re-scanning (0 disables caching)",
    )
    serve.add_argument(
        "--cache-ttl",
        type=float,
        default=0.0,
        help="result-cache entry lifetime in seconds (0 = never expire; "
        "only meaningful with --cache-entries > 0)",
    )
    serve.add_argument(
        "--max-queue-depth",
        type=int,
        default=0,
        help="admission bound on in-flight requests; excess requests get "
        'the structured {"error": "overloaded", "retry": true} reply '
        "(0 = unbounded)",
    )
    serve.add_argument(
        "--max-client-depth",
        type=int,
        default=0,
        help="per-connection fairness bound: in-flight requests one "
        "connection may hold before its excess is shed, so a greedy "
        "pipelined client cannot monopolize --max-queue-depth "
        "(0 = unbounded)",
    )
    serve.add_argument(
        "--grid-scale",
        type=float,
        default=1.0,
        help="scale the learned grid's column counts (see `throughput`)",
    )
    serve.add_argument(
        "--index",
        choices=["flood", "delta"],
        default="flood",
        help="flood (default) serves a read-only index; delta serves a "
        "mutable delta-buffered index accepting insert/insert_many/merge "
        "ops over the wire",
    )
    serve.add_argument(
        "--merge-threshold",
        type=int,
        default=0,
        help="buffered rows that trigger an off-loop merge of the delta "
        "index (0 = never merge automatically; the merge op still works; "
        "needs --index delta)",
    )
    serve.add_argument(
        "--adaptive",
        action="store_true",
        help="monitor served query times and replace the layout off-loop "
        "when the workload shifts (paper §8; needs --index delta)",
    )
    serve.add_argument(
        "--data-dir",
        default=None,
        metavar="PATH",
        help="durable serving: WAL-append every insert before its ack and "
        "snapshot the clustered table after each merge under PATH; if PATH "
        "already holds a snapshot the server warm-restarts from it (plus "
        "the WAL tail) instead of regenerating the dataset and re-learning "
        "the layout (needs --index delta)",
    )
    serve.add_argument(
        "--fsync",
        choices=["always", "batch", "never"],
        default="batch",
        help="WAL durability policy with --data-dir: 'always' fsyncs every "
        "append (durable against OS/power loss, slowest), 'batch' (default) "
        "flushes per append and fsyncs periodically (durable against "
        "process crash per acknowledged row), 'never' only flushes "
        "(fastest, same process-crash guarantee, unbounded OS-crash window)",
    )
    serve.add_argument(
        "--group-commit",
        action="store_true",
        help="WAL group commit with --data-dir: appends from concurrent "
        "inserts are coalesced and fsynced once per micro-batch on a "
        "dedicated flusher thread, and each ack still waits for the sync "
        "covering its row (same log-before-ack contract, one fsync "
        "amortized over the batch instead of one per insert)",
    )
    serve.add_argument(
        "--readers",
        type=int,
        default=0,
        metavar="N",
        help="serving fleet: spawn N reader processes, each with its own "
        "event loop + server bound to the same port via SO_REUSEPORT, "
        "serving the writer's published generations from shared memory; "
        "this process stays the single writer (WAL, merges, checkpoints) "
        "and readers proxy write ops to it (0 = single process; needs "
        "--index delta and --data-dir)",
    )
    serve.add_argument("--seed", type=int, default=7)

    bench_diff = sub.add_parser(
        "bench-diff",
        help="diff results/BENCH_*.json against a previous run's artifact",
    )
    bench_diff.add_argument(
        "--current", default="results", help="this run's results directory"
    )
    bench_diff.add_argument(
        "--previous",
        default="previous-results",
        help="directory holding the previous run's BENCH_*.json artifact",
    )
    bench_diff.add_argument(
        "--threshold",
        type=float,
        default=0.2,
        help="relative change on a directional metric that counts as a "
        "regression (default 0.2 = 20%%)",
    )
    bench_diff.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit non-zero when any metric regressed beyond the threshold "
        "(default: warn only — shared CI runners are noisy)",
    )
    bench_diff.add_argument(
        "--all",
        action="store_true",
        dest="all_rows",
        help="show every numeric leaf, not just throughput/time metrics",
    )

    check = sub.add_parser(
        "check",
        help="run the static invariant rules (AST checks) over the tree",
    )
    check.add_argument(
        "paths",
        nargs="*",
        help="files or directories to check (default: src benchmarks)",
    )
    check.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        dest="fmt",
        help="output format (json is the stable CI schema; sarif is the "
        "SARIF 2.1.0 exchange form for code-scanning upload)",
    )
    check.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="NAME",
        help="run only this rule (repeatable)",
    )
    check.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules with their descriptions and exit",
    )
    check.add_argument(
        "--baseline",
        metavar="FILE",
        help="waive findings whose fingerprints are recorded in FILE; "
        "only findings absent from the baseline fail the check",
    )
    check.add_argument(
        "--write-baseline",
        metavar="FILE",
        dest="write_baseline",
        help="record the current findings' fingerprints to FILE and exit 0",
    )
    check.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="fan rule execution out over N worker processes (default 1)",
    )
    check.add_argument(
        "--stats",
        action="store_true",
        help="print per-rule wall-clock timings after the report",
    )
    return parser


def _cmd_demo(args) -> int:
    import time

    from repro.baselines import FullScanIndex
    from repro.core.calibration import build_flood
    from repro.datasets import load
    from repro.storage.visitor import CountVisitor

    print(f"Loading {args.dataset} at {args.rows} rows...")
    bundle = load(args.dataset, n=args.rows, num_queries=100, seed=args.seed)
    flood, opt = build_flood(bundle.table, bundle.train, seed=args.seed)
    print(f"Learned layout: {opt.layout.describe()} "
          f"({opt.learn_seconds:.2f}s learning, {flood.build_seconds:.2f}s loading)")
    scan = FullScanIndex().build(bundle.table)
    for index in (flood, scan):
        start = time.perf_counter()
        for query in bundle.test:
            index.query(query, CountVisitor())
        elapsed = (time.perf_counter() - start) / len(bundle.test) * 1e3
        print(f"  {index.name:10s} {elapsed:8.3f} ms/query")
    return 0


def _cmd_bench(args) -> int:
    from repro.bench import experiments

    names = sorted(BENCH_DRIVERS) if args.artifact == "all" else [args.artifact]
    for name in names:
        driver = getattr(experiments, BENCH_DRIVERS[name])
        driver()
    return 0


def _cmd_throughput(args) -> int:
    import time

    from repro.core.calibration import build_flood
    from repro.core.engine import BatchQueryEngine
    from repro.datasets import load
    from repro.storage.kernels import resolve_kernel
    from repro.storage.visitor import CountVisitor

    if args.queries < 1:
        print("throughput needs --queries >= 1", file=sys.stderr)
        return 2
    print(f"Loading {args.dataset} at {args.rows} rows...")
    bundle = load(
        args.dataset, n=args.rows, num_queries=max(args.queries, 50), seed=args.seed
    )
    queries = (bundle.test + bundle.train)[: args.queries]
    flood, opt = build_flood(bundle.table, bundle.train, seed=args.seed)
    layout = opt.layout
    if args.grid_scale != 1.0:
        from repro.core.index import FloodIndex

        layout = layout.scaled(args.grid_scale)
        flood = FloodIndex(layout).build(bundle.table)
    print(f"Layout: {layout.describe()} ({layout.num_cells} cells)")
    print(f"Scan kernels: {resolve_kernel('auto')} tier")
    engine = BatchQueryEngine(flood, workers=args.workers)
    engine.run(queries[: min(20, len(queries))])  # warmup
    best = None
    for _ in range(max(args.repeats, 1)):
        batch = engine.run(queries)
        if best is None or batch.wall_seconds < best.wall_seconds:
            best = batch
    print(
        f"  engine ({args.workers} worker{'s' if args.workers != 1 else ''}): "
        f"{best.queries_per_second:10.1f} queries/s "
        f"({best.wall_seconds / len(queries) * 1e3:.3f} ms/query)"
    )
    if args.compare_legacy:
        legacy_counts = []
        start = time.perf_counter()
        for query in queries:
            visitor = CountVisitor()
            flood.query_percell(query, visitor)
            legacy_counts.append(visitor.result)
        legacy_seconds = time.perf_counter() - start
        print(
            f"  per-cell loop:  {len(queries) / legacy_seconds:10.1f} queries/s "
            f"({legacy_seconds / len(queries) * 1e3:.3f} ms/query)"
        )
        print(f"  speedup: {legacy_seconds / best.wall_seconds:.2f}x")
        if legacy_counts != best.results:
            print("  MISMATCH: engine and per-cell results differ!")
            return 1
        print(f"  results identical across {len(queries)} queries")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.core.calibration import default_cost_model
    from repro.core.engine import BatchQueryEngine
    from repro.core.index import FloodIndex
    from repro.core.optimizer import find_optimal_layout
    from repro.core.shard import ShardedFloodIndex
    from repro.datasets import load
    from repro.serve.server import FloodServer

    if args.shards < 0:
        print("serve needs --shards >= 0 (0 = one per core)", file=sys.stderr)
        return 2
    if args.shards != 1 and args.index == "delta":
        print("--shards needs --index flood (delta serves unsharded)", file=sys.stderr)
        return 2
    if args.cache_entries < 0:
        print("serve needs --cache-entries >= 0 (0 disables)", file=sys.stderr)
        return 2
    if args.cache_ttl < 0:
        print("serve needs --cache-ttl >= 0 (0 = never expire)", file=sys.stderr)
        return 2
    if args.max_queue_depth < 0:
        print("serve needs --max-queue-depth >= 0 (0 = unbounded)", file=sys.stderr)
        return 2
    if args.max_client_depth < 0:
        print("serve needs --max-client-depth >= 0 (0 = unbounded)", file=sys.stderr)
        return 2
    if args.merge_threshold < 0:
        print("serve needs --merge-threshold >= 0 (0 = never)", file=sys.stderr)
        return 2
    if args.index != "delta" and (
        args.merge_threshold or args.adaptive or args.data_dir
    ):
        print(
            "--merge-threshold/--adaptive/--data-dir need --index delta",
            file=sys.stderr,
        )
        return 2
    if args.readers < 0:
        print("serve needs --readers >= 0 (0 = single process)", file=sys.stderr)
        return 2
    if args.readers and (args.index != "delta" or not args.data_dir):
        print("--readers needs --index delta and --data-dir", file=sys.stderr)
        return 2
    if args.group_commit and not args.data_dir:
        print("--group-commit needs --data-dir", file=sys.stderr)
        return 2
    if args.readers:
        import socket

        if not hasattr(socket, "SO_REUSEPORT"):
            print(
                "--readers needs SO_REUSEPORT, which this platform lacks",
                file=sys.stderr,
            )
            return 2
    from repro.core.durable import DurableDeltaFlood
    from repro.storage.kernels import warmup_kernels

    # Warm restart: a data dir with a snapshot already holds the
    # clustered table AND the learned layout — skip the dataset
    # regeneration and the layout search entirely.
    recovering = bool(args.data_dir) and DurableDeltaFlood.has_state(
        args.data_dir
    )
    cost_model = None
    if not recovering:
        print(f"Loading {args.dataset} at {args.rows} rows...")
        bundle = load(args.dataset, n=args.rows, num_queries=50, seed=args.seed)
        # Learn the layout first, then build the served index exactly once
        # (a mutable or grid-scaled index must not pay for a throwaway
        # build).
        cost_model = default_cost_model()
        opt = find_optimal_layout(
            bundle.table, bundle.train, cost_model, seed=args.seed
        )
        layout = opt.layout
        if args.grid_scale != 1.0:
            layout = layout.scaled(args.grid_scale)
    if args.index == "delta":
        from repro.core.delta import DeltaBufferedFlood

        # The controller owns the merge threshold (merges must run
        # off-loop), so the index's own blocking auto-merge stays off.
        if recovering:
            flood = DurableDeltaFlood.open(
                args.data_dir,
                fsync=args.fsync,
                merge_threshold=None,
                group_commit=args.group_commit,
            )
            layout = flood.layout
            print(
                f"Recovered from {args.data_dir}: {len(flood.table)} merged "
                f"+ {flood.recovered_rows} replayed rows, "
                f"generation {flood.generation} (fsync {args.fsync})",
                flush=True,
            )
            if not flood.recovery_clean:
                print(
                    "WARNING: recovery was unclean "
                    f"({flood.recovery_reason}); a torn WAL tail was "
                    "repaired, and rows unsynced at the crash (possible "
                    "under fsync batch/never) may be absent",
                    flush=True,
                )
        elif args.data_dir:
            flood = DurableDeltaFlood(
                layout,
                args.data_dir,
                fsync=args.fsync,
                merge_threshold=None,
                group_commit=args.group_commit,
            ).build(bundle.table)
            print(f"Durable data dir: {args.data_dir} (fsync {args.fsync})")
        else:
            flood = DeltaBufferedFlood(layout, merge_threshold=None).build(
                bundle.table
            )
        print("Mutable delta index (unsharded)")
        if args.merge_threshold:
            print(f"Off-loop merge at {args.merge_threshold} buffered rows")
        if args.adaptive:
            print("Adaptive re-layout: on")
    else:
        flood = FloodIndex(layout).build(bundle.table)
        if args.shards != 1:
            flood = ShardedFloodIndex.wrap(flood, num_shards=args.shards or None)
            print(
                f"Sharded into {flood.effective_shards} storage shards "
                "(large queries scan them on worker processes)"
            )
    print(f"Layout: {layout.describe()} ({layout.num_cells} cells)")
    if args.group_commit:
        print(
            f"WAL group commit: on (one fsync per micro-batch, "
            f"fsync {args.fsync})"
        )
    if args.readers:
        # The fleet path owns its own socket, engine, server, and reader
        # lifecycle; this process becomes the fleet's writer.
        from repro.serve.fleet import run_fleet

        return run_fleet(args, flood, cost_model)
    # One long-lived pool shared across every micro-batch (the engine
    # would otherwise spin up and tear down a pool per batch).
    pool = None
    if args.workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(
            max_workers=args.workers, thread_name_prefix="repro-serve"
        )
    engine = BatchQueryEngine(flood, workers=args.workers, executor=pool)
    server = FloodServer(
        engine,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_delay=args.max_delay_ms / 1e3,
        max_queue_depth=args.max_queue_depth,
        max_client_depth=args.max_client_depth,
        cache_entries=args.cache_entries,
        cache_ttl=args.cache_ttl,
        merge_threshold=args.merge_threshold,
        adaptive=args.adaptive,
        cost_model=cost_model,
        seed=args.seed,
    )
    if args.cache_entries:
        ttl = f", ttl {args.cache_ttl:g}s" if args.cache_ttl else ", no expiry"
        print(f"Result cache: {args.cache_entries} entries{ttl}")
    if args.max_queue_depth:
        print(f"Admission control: max {args.max_queue_depth} requests in flight")
    if args.max_client_depth:
        print(
            f"Per-connection fairness: max {args.max_client_depth} "
            "requests in flight per connection"
        )
    # Pre-warm before the loop exists: first-call JIT compilation takes
    # seconds under numba and must never run inside a serving coroutine
    # (the loop-safety checker flags warmup_kernels on the loop).
    warm = warmup_kernels()
    print(
        f"Scan kernels: {warm['tier']} tier "
        f"(pre-warmed in {warm['seconds'] * 1e3:.0f} ms)"
    )

    async def main() -> None:
        import signal

        host, port = await server.start()
        # SIGTERM/SIGINT request a graceful shutdown so the final
        # checkpoint and worker/shm release in the finally blocks
        # actually run when the process is killed (not just on EOF).
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, server.request_shutdown)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # platforms/loops without signal-handler support
        # The smoke tests (and scripted clients) parse this exact line.
        print(f"repro-serve listening on {host}:{port}", flush=True)
        try:
            await server.serve_until_shutdown()
        finally:
            await server.stop()
        print("repro-serve stopped")

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("\nrepro-serve interrupted")
    finally:
        if pool is not None:
            pool.shutdown()
        if hasattr(flood, "shutdown"):
            flood.shutdown()  # sharded: workers + shm; durable: checkpoint + WAL
    return 0


def _cmd_check(args) -> int:
    from repro.analysis.runner import main_check

    return main_check(
        args.paths,
        fmt=args.fmt,
        rule_names=args.rules,
        list_rules=args.list_rules,
        baseline=args.baseline,
        write_baseline_path=args.write_baseline,
        jobs=args.jobs,
        stats=args.stats,
    )


def _cmd_bench_diff(args) -> int:
    from repro.bench.diff import run_diff

    return run_diff(
        current_dir=args.current,
        previous_dir=args.previous,
        threshold=args.threshold,
        fail_on_regression=args.fail_on_regression,
        all_rows=args.all_rows,
    )


def _cmd_datasets(_args) -> int:
    from repro.bench.experiments import BENCH_ROWS
    from repro.datasets import DATASET_NAMES
    from repro.datasets.base import _DEFAULT_ROWS

    print(f"{'name':10s} {'default rows':>12s} {'bench rows':>11s}")
    for name in DATASET_NAMES:
        bench = BENCH_ROWS.get(name, "-")
        print(f"{name:10s} {_DEFAULT_ROWS[name]:>12,} {bench:>11}")
    return 0


def _cmd_calibrate(_args) -> int:
    import os
    import time

    from repro.core.calibration import _model_cache_path, default_cost_model

    path = _model_cache_path(0)
    if os.path.exists(path):
        os.remove(path)
        print(f"Removed stale cache {path}")
    start = time.perf_counter()
    default_cost_model()
    print(f"Calibrated in {time.perf_counter() - start:.1f}s -> {path}")
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "demo": _cmd_demo,
        "bench": _cmd_bench,
        "datasets": _cmd_datasets,
        "calibrate": _cmd_calibrate,
        "throughput": _cmd_throughput,
        "serve": _cmd_serve,
        "bench-diff": _cmd_bench_diff,
        "check": _cmd_check,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
