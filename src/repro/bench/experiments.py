"""One driver per paper artifact (Tables 1-4, Figures 5, 7-17).

Every driver runs at a laptop-friendly scale (row counts ~1000x below the
paper's; see DESIGN.md), prints the same rows/series the paper reports, and
persists them under ``results/`` for EXPERIMENTS.md. Shapes — who wins, by
roughly what factor, where crossovers fall — are the reproduction target,
not absolute times.
"""

from __future__ import annotations

import time

import numpy as np

from repro.baselines import SimpleGridIndex
from repro.bench.harness import (
    build_flood,
    build_tuned_baselines,
    run_workload,
    summarize,
)
from repro.bench.report import format_table, write_result
from repro.core.calibration import fit_cost_model, generate_training_examples
from repro.core.cost import AnalyticCostModel
from repro.core.index import FloodIndex
from repro.core.optimizer import find_optimal_layout, heuristic_layout
from repro.datasets import load
from repro.datasets.synthetic import generate_uniform, uniform_workload
from repro.ml.plm import PiecewiseLinearModel
from repro.ml.rmi import RecursiveModelIndex
from repro.workloads.mixes import WORKLOAD_MIXES, build_mix
from repro.workloads.query_gen import split_train_test
from repro.workloads.random_shift import random_workload

#: Bench-scale dataset sizes (paper sizes in DESIGN.md). Large enough that
#: scan costs dominate fixed per-query interpreter overhead (the regime the
#: paper's comparisons live in) while keeping the full suite laptop-fast.
BENCH_ROWS = {"sales": 100_000, "tpch": 150_000, "osm": 120_000, "perfmon": 120_000}
BENCH_QUERIES = 120
PAPER_DATASETS = ("sales", "tpch", "osm", "perfmon")

_bundle_cache: dict = {}
_results_cache: dict = {}


def get_bundle(name: str, n: int | None = None, num_queries: int = BENCH_QUERIES,
               seed: int = 0):
    """Cached dataset bundle at bench scale."""
    key = (name, n, num_queries, seed)
    if key not in _bundle_cache:
        _bundle_cache[key] = load(
            name, n=n or BENCH_ROWS.get(name), num_queries=num_queries, seed=seed
        )
    return _bundle_cache[key]


def dataset_results(name: str, tune_pages: bool = True):
    """Cached (bundle, indexes, workload results, flood optimization) for
    the Figure 7 configuration — shared by Figures 7/8 and Tables 2/4."""
    if name in _results_cache:
        return _results_cache[name]
    bundle = get_bundle(name)
    indexes = build_tuned_baselines(
        bundle.table, bundle.train, tune_pages=tune_pages
    )
    flood, opt = build_flood(bundle.table, bundle.train, seed=1)
    indexes["Flood"] = flood
    results = {
        idx_name: (run_workload(index, bundle.test) if index else None)
        for idx_name, index in indexes.items()
    }
    _results_cache[name] = (bundle, indexes, results, opt)
    return _results_cache[name]


# --------------------------------------------------------------------- Table 1
def table1_datasets() -> str:
    """Table 1: dataset and query characteristics."""
    rows = []
    for name in PAPER_DATASETS:
        bundle = get_bundle(name)
        size_mb = bundle.table.size_bytes() / 1e6
        rows.append(
            [
                name,
                bundle.num_rows,
                len(bundle.train) + len(bundle.test),
                len(bundle.dims),
                round(size_mb, 2),
            ]
        )
    text = format_table(
        ["dataset", "records", "queries", "dimensions", "size (MB)"],
        rows,
        title="Table 1: dataset and query characteristics (bench scale)",
    )
    write_result("table1_datasets", text)
    return text


# -------------------------------------------------------------------- Figure 5
def fig5_weights(n: int = 10_000, num_queries: int = 30) -> str:
    """Figure 5: ws is non-constant and non-linear in Ns and run length.

    Also reports the paper's Section 4.1.2 comparison: prediction error of
    the learned weight model vs. fine-tuned constants.
    """
    bundle = get_bundle("tpch", n=n, num_queries=num_queries, seed=3)
    data = generate_training_examples(
        bundle.table, bundle.train, num_layouts=8, seed=4
    )
    ns = np.asarray(data.ns, dtype=np.float64)
    ws = np.asarray(data.ws, dtype=np.float64) * 1e9  # ns per point
    run = np.asarray(data.run_length, dtype=np.float64)
    ok = ns > 0
    rows = []
    edges = np.quantile(ns[ok], np.linspace(0, 1, 6))
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = ok & (ns >= lo) & (ns <= hi)
        if sel.any():
            rows.append([f"{lo:.0f}-{hi:.0f}", round(float(np.median(ws[sel])), 2),
                         round(float(np.median(run[sel])), 1)])
    spread = float(ws[ok].max() / max(ws[ok][ws[ok] > 0].min(), 1e-9))
    # Section 4.1.2 accuracy comparison: learned weights vs constants.
    model = fit_cost_model(data, seed=4)
    constant = AnalyticCostModel(
        wp=float(np.median(data.wp)), wr=float(np.median(data.wr)),
        ws=float(np.median(data.ws)),
    )
    measured, learned_err, const_err = [], [], []
    for features, wp, wr, ws_t in zip(data.features, data.wp, data.wr, data.ws):
        truth = wp * features.nc + (wr * features.nc if features.sort_filtered else 0) \
            + ws_t * features.ns
        measured.append(truth)
        learned_err.append(abs(model.predict_time(features) - truth))
        const_err.append(abs(constant.predict_time(features) - truth))
    ratio = float(np.mean(const_err) / max(np.mean(learned_err), 1e-12))
    text = format_table(
        ["Ns bucket", "median ws (ns/point)", "median run length"],
        rows,
        title=(
            "Figure 5: ws varies with scanned points / run length "
            f"(max/min spread {spread:.1f}x)\n"
            f"Constant-weight model error is {ratio:.1f}x the learned model's "
            "(paper: 9x)"
        ),
    )
    write_result("fig5_weights", text)
    return text


# -------------------------------------------------------------------- Figure 7
def fig7_overall() -> str:
    """Figure 7: average query time, Flood vs tuned baselines, 4 datasets."""
    sections = []
    for name in PAPER_DATASETS:
        _, _, results, _ = dataset_results(name)
        rows = summarize(results)
        flood_ms = results["Flood"].avg_total_time * 1e3
        for row in rows:
            if isinstance(row[1], float) and row[0] != "Flood" and flood_ms > 0:
                row[3] = f"{row[1] / flood_ms:.1f}x vs Flood"
        sections.append(
            format_table(
                ["index", "avg query time (ms)", "scan overhead", "note"],
                rows,
                title=f"Figure 7 [{name}]: query time",
            )
        )
    text = "\n\n".join(sections)
    write_result("fig7_overall", text)
    return text


# -------------------------------------------------------------------- Figure 8
def fig8_pareto() -> str:
    """Figure 8: index size vs query time (Pareto frontier)."""
    sections = []
    for name in PAPER_DATASETS:
        _, indexes, results, _ = dataset_results(name)
        rows = []
        for idx_name, index in indexes.items():
            result = results[idx_name]
            if index is None or result is None:
                rows.append([idx_name, "N/A", "N/A"])
                continue
            rows.append(
                [
                    idx_name,
                    round(index.size_bytes() / 1e3, 2),
                    round(result.avg_total_time * 1e3, 4),
                ]
            )
        sections.append(
            format_table(
                ["index", "index size (kB)", "avg query time (ms)"],
                rows,
                title=f"Figure 8 [{name}]: size vs time",
            )
        )
    text = "\n\n".join(sections)
    write_result("fig8_pareto", text)
    return text


# -------------------------------------------------------------------- Figure 9
def fig9_mixes(datasets=("tpch", "osm"), num_queries: int = 60) -> str:
    """Figure 9: representative workloads; baselines stay tuned for the
    original OLAP workload, Flood retrains per workload (its advantage)."""
    sections = []
    for name in datasets:
        bundle, indexes, _, _ = dataset_results(name)
        rows = []
        for mix in WORKLOAD_MIXES:
            queries = build_mix(bundle.table, mix, num_queries=num_queries, seed=7)
            train, test = split_train_test(queries, seed=8)
            flood, _ = build_flood(bundle.table, train, seed=9)
            row = [mix, round(run_workload(flood, test).avg_total_time * 1e3, 4)]
            for idx_name in ("Z Order", "UB tree", "Hyperoctree", "K-d tree",
                             "Grid File"):
                index = indexes.get(idx_name)
                if index is None:
                    row.append("N/A")
                else:
                    row.append(round(run_workload(index, test).avg_total_time * 1e3, 4))
            rows.append(row)
        sections.append(
            format_table(
                ["workload", "Flood", "Z Order", "UB tree", "Hyperoctree",
                 "K-d tree", "Grid File"],
                rows,
                title=f"Figure 9 [{name}]: representative workloads (ms)",
            )
        )
    text = "\n\n".join(sections)
    write_result("fig9_mixes", text)
    return text


# ------------------------------------------------------------------- Figure 10
def fig10_shifting(num_workloads: int = 6, num_queries: int = 50) -> str:
    """Figure 10: randomly shifting workloads on TPC-H. Baselines stay fixed
    (tuned for the Figure 7 workload); Flood retrains at each shift, briefly
    running the new queries on its stale layout first (the paper's spike)."""
    bundle, indexes, _, _ = dataset_results("tpch")
    flood = indexes["Flood"]
    rows = []
    for round_id in range(num_workloads):
        queries = random_workload(
            bundle.table, num_queries=num_queries, max_dims=6, seed=100 + round_id
        )
        train, test = split_train_test(queries, seed=round_id)
        stale_ms = run_workload(flood, test).avg_total_time * 1e3
        flood, opt = build_flood(bundle.table, train, seed=200 + round_id)
        adapted_ms = run_workload(flood, test).avg_total_time * 1e3
        row = [round_id, round(stale_ms, 4), round(adapted_ms, 4),
               round(opt.learn_seconds, 2)]
        for idx_name in ("Z Order", "UB tree", "Hyperoctree", "K-d tree"):
            index = indexes.get(idx_name)
            row.append(
                "N/A" if index is None
                else round(run_workload(index, test).avg_total_time * 1e3, 4)
            )
        rows.append(row)
    text = format_table(
        ["workload", "Flood stale (ms)", "Flood adapted (ms)", "retrain (s)",
         "Z Order", "UB tree", "Hyperoctree", "K-d tree"],
        rows,
        title="Figure 10: shifting workloads (TPC-H); Flood retrains, others fixed",
    )
    write_result("fig10_shifting", text)
    return text


# ------------------------------------------------------------------- Figure 11
def fig11_ablation() -> str:
    """Figure 11: Simple Grid -> +Sort Dim -> +Flattening -> +Learning."""
    sections = []
    for name in PAPER_DATASETS:
        bundle = get_bundle(name)
        dims = bundle.dims
        # Simple Grid over all d dims, columns by filter frequency.
        freq = {
            d: 1 + sum(1 for q in bundle.train if q.filters(d)) for d in dims
        }
        total = sum(freq.values())
        # At Python's per-cell overhead the break-even cell count is far
        # lower than in C++; 64 target cells keeps the middle rungs in the
        # regime where the paper's incremental story is visible.
        target = 64
        columns = {
            d: max(1, int(round(target ** (freq[d] / total)))) for d in dims
        }
        simple = SimpleGridIndex(columns).build(bundle.table)
        heur = heuristic_layout(bundle.table, bundle.train, target_cells=target)
        sort_dim = FloodIndex(heur, flatten="none").build(bundle.table)
        flattened = FloodIndex(heur, flatten="rmi").build(bundle.table)
        learned, _ = build_flood(bundle.table, bundle.train, seed=11)
        rows = []
        for label, index in [
            ("Simple Grid", simple),
            ("+Sort Dim", sort_dim),
            ("+Flattening", flattened),
            ("+Learning", learned),
        ]:
            result = run_workload(index, bundle.test)
            rows.append([label, round(result.avg_total_time * 1e3, 4),
                         round(result.scan_overhead, 2)])
        sections.append(
            format_table(
                ["variant", "avg query time (ms)", "scan overhead"],
                rows,
                title=f"Figure 11 [{name}]: incremental ablation",
            )
        )
    text = "\n\n".join(sections)
    write_result("fig11_ablation", text)
    return text


# ------------------------------------------------------------------- Figure 12
def fig12_scaling(sizes=(5_000, 10_000, 20_000, 40_000, 80_000),
                  selectivities=(1e-4, 1e-3, 1e-2, 1e-1)) -> str:
    """Figure 12: scaling with dataset size and query selectivity (TPC-H)."""
    size_rows = []
    for n in sizes:
        bundle = get_bundle("tpch", n=n, seed=12)
        flood, _ = build_flood(bundle.table, bundle.train, seed=13)
        clustered = build_tuned_baselines(
            bundle.table, bundle.train, include=("Clustered", "Full Scan")
        )
        flood_ms = run_workload(flood, bundle.test).avg_total_time * 1e3
        clustered_ms = run_workload(clustered["Clustered"], bundle.test).avg_total_time * 1e3
        scan_ms = run_workload(clustered["Full Scan"], bundle.test).avg_total_time * 1e3
        size_rows.append([n, round(flood_ms, 4), round(clustered_ms, 4),
                          round(scan_ms, 4)])
    bundle = get_bundle("tpch", n=40_000, seed=14)
    sel_rows = []
    from repro.datasets.tpch import tpch_workload

    for sel in selectivities:
        queries = tpch_workload(bundle.table, num_queries=60, selectivity=sel,
                                seed=15)
        train, test = split_train_test(queries, seed=16)
        flood, _ = build_flood(bundle.table, train, seed=17)
        others = build_tuned_baselines(
            bundle.table, train, include=("Clustered", "Full Scan")
        )
        sel_rows.append([
            sel,
            round(run_workload(flood, test).avg_total_time * 1e3, 4),
            round(run_workload(others["Clustered"], test).avg_total_time * 1e3, 4),
            round(run_workload(others["Full Scan"], test).avg_total_time * 1e3, 4),
        ])
    text = "\n\n".join([
        format_table(["records", "Flood (ms)", "Clustered (ms)", "Full Scan (ms)"],
                     size_rows, title="Figure 12a: varying dataset size (TPC-H)"),
        format_table(["selectivity", "Flood (ms)", "Clustered (ms)", "Full Scan (ms)"],
                     sel_rows, title="Figure 12b: varying query selectivity (TPC-H)"),
    ])
    write_result("fig12_scaling", text)
    return text


# ------------------------------------------------------------------- Figure 13
def fig13_dimensions(dims=(4, 6, 8, 10, 12), n: int = 20_000,
                     num_queries: int = 60) -> str:
    """Figure 13: scaling the number of dimensions on uniform data, plus the
    ratio of each index's time to a full scan (the curse of dimensionality).
    The paper sweeps to d=18; we cap at 12 (the hyperoctree's 2^d fanout is
    intractable in Python beyond that), which covers the crossovers."""
    rows = []
    ratio_rows = []
    for d in dims:
        table = generate_uniform(n=n, d=d, seed=18)
        queries = uniform_workload(table, num_queries=num_queries, seed=19)
        train, test = split_train_test(queries, seed=20)
        flood, _ = build_flood(table, train, seed=21)
        include = ("Full Scan", "Clustered", "Z Order", "Hyperoctree", "K-d tree")
        others = build_tuned_baselines(table, train, include=include)
        times = {"Flood": run_workload(flood, test).avg_total_time * 1e3}
        for idx_name in include:
            index = others[idx_name]
            times[idx_name] = (
                run_workload(index, test).avg_total_time * 1e3 if index else None
            )
        order = ["Flood", "Clustered", "Z Order", "Hyperoctree", "K-d tree",
                 "Full Scan"]
        rows.append([d] + [round(times[k], 4) if times[k] else "N/A" for k in order])
        scan_ms = times["Full Scan"]
        ratio_rows.append(
            [d]
            + [
                round(times[k] / scan_ms, 4) if times[k] else "N/A"
                for k in order
            ]
        )
    header = ["d", "Flood", "Clustered", "Z Order", "Hyperoctree", "K-d tree",
              "Full Scan"]
    text = "\n\n".join([
        format_table(header, rows, title="Figure 13a: query time (ms) vs dimensions"),
        format_table(header, ratio_rows,
                     title="Figure 13b: ratio of query time to full scan"),
    ])
    write_result("fig13_dimensions", text)
    return text


# ------------------------------------------------------------------- Figure 14
def fig14_costmodel(factors=(0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)) -> str:
    """Figure 14: the scan-time / index-time trade-off as the learned layout
    is scaled around the optimizer's choice (factor 1.0)."""
    bundle, indexes, _, opt = dataset_results("tpch")
    rows = []
    best_factor, best_ms = None, float("inf")
    for factor in factors:
        layout = opt.layout.scaled(factor)
        index = FloodIndex(layout).build(bundle.table)
        result = run_workload(index, bundle.test)
        total_ms = result.avg_total_time * 1e3
        rows.append([
            layout.num_cells,
            round(factor, 3),
            round(total_ms, 4),
            round(result.avg_scan_time * 1e3, 4),
            round(result.avg_index_time * 1e3, 4),
            round(result.scan_overhead, 2),
            round(result.time_per_scan * 1e9, 2),
        ])
        if total_ms < best_ms:
            best_factor, best_ms = factor, total_ms
    note = (
        f"learned optimum at factor 1.0; empirical best at factor {best_factor} "
        "(within noise of 1.0 reproduces the paper's red star)"
    )
    text = format_table(
        ["cells", "scale", "total (ms)", "scan (ms)", "index (ms)",
         "scan overhead", "ns/point"],
        rows,
        title=f"Figure 14: cost trade-off vs number of cells (TPC-H)\n{note}",
    )
    write_result("fig14_costmodel", text)
    return text


# --------------------------------------------------------------------- Table 2
def table2_breakdown() -> str:
    """Table 2: SO, TPS, ST, IT, TT per index per dataset."""
    sections = []
    for name in PAPER_DATASETS:
        _, _, results, _ = dataset_results(name)
        rows = []
        for idx_name, result in results.items():
            if result is None:
                rows.append([idx_name, "N/A", "N/A", "N/A", "N/A", "N/A"])
                continue
            row = result.summary_row()
            rows.append([row["index"], row["SO"], row["TPS_ns"], row["ST_ms"],
                         row["IT_ms"], row["TT_ms"]])
        sections.append(
            format_table(
                ["index", "SO", "TPS (ns)", "ST (ms)", "IT (ms)", "TT (ms)"],
                rows,
                title=f"Table 2 [{name}]: performance breakdown",
            )
        )
    text = "\n\n".join(sections)
    write_result("table2_breakdown", text)
    return text


# --------------------------------------------------------------------- Table 3
def table3_robustness(n: int = 10_000, num_layouts: int = 5,
                      num_queries: int = 50) -> str:
    """Table 3: weight models trained on dataset A, layouts learned for B."""
    bundles = {
        name: get_bundle(name, n=n, num_queries=num_queries, seed=30)
        for name in PAPER_DATASETS
    }
    models = {}
    for name, bundle in bundles.items():
        data = generate_training_examples(
            bundle.table, bundle.train[:20], num_layouts=num_layouts, seed=31
        )
        models[name] = fit_cost_model(data, seed=31)
    rows = []
    diag = {}
    matrix = {}
    for trained_on, model in models.items():
        for target, bundle in bundles.items():
            result = find_optimal_layout(
                bundle.table, bundle.train, model,
                data_sample_size=1500, query_sample_size=25, seed=32,
            )
            index = FloodIndex(result.layout).build(bundle.table)
            ms = run_workload(index, bundle.test).avg_total_time * 1e3
            matrix[(trained_on, target)] = ms
            if trained_on == target:
                diag[target] = ms
    for trained_on in PAPER_DATASETS:
        row = [trained_on]
        for target in PAPER_DATASETS:
            ms = matrix[(trained_on, target)]
            base = diag[target]
            delta = (ms - base) / base * 100 if base else 0.0
            row.append(f"{ms:.3f} ({delta:+.0f}%)")
        rows.append(row)
    text = format_table(
        ["trained on \\ layout for"] + list(PAPER_DATASETS),
        rows,
        title="Table 3: cost-model robustness across datasets (ms, % vs diagonal)",
    )
    write_result("table3_robustness", text)
    return text


# --------------------------------------------------------------------- Table 4
def table4_creation() -> str:
    """Table 4: index creation time (Flood learning + loading vs baselines)."""
    sections = []
    for name in PAPER_DATASETS:
        _, indexes, _, opt = dataset_results(name)
        rows = [
            ["Flood Learning", round(opt.learn_seconds, 3)],
            ["Flood Loading", round(indexes["Flood"].build_seconds, 3)],
            ["Flood Total", round(opt.learn_seconds + indexes["Flood"].build_seconds, 3)],
        ]
        for idx_name, index in indexes.items():
            if idx_name == "Flood":
                continue
            rows.append(
                [idx_name, "N/A" if index is None else round(index.build_seconds, 3)]
            )
        sections.append(
            format_table(
                ["index", "creation time (s)"],
                rows,
                title=f"Table 4 [{name}]: index creation time",
            )
        )
    text = "\n\n".join(sections)
    write_result("table4_creation", text)
    return text


# ------------------------------------------------------------------- Figure 15
def fig15_data_sampling(samples=(200, 1_000, 5_000, 20_000)) -> str:
    """Figure 15: learning time and query time vs dataset sample size."""
    bundle = get_bundle("tpch", seed=40)
    rows = []
    for sample in samples:
        start = time.perf_counter()
        flood, opt = build_flood(
            bundle.table, bundle.train, data_sample_size=sample, seed=41
        )
        learn = time.perf_counter() - start
        ms = run_workload(flood, bundle.test).avg_total_time * 1e3
        rows.append([sample, round(opt.learn_seconds, 3), round(learn, 3),
                     round(ms, 4)])
    text = format_table(
        ["sample rows", "optimize (s)", "learn+build (s)", "avg query (ms)"],
        rows,
        title="Figure 15: sampling the dataset (TPC-H)",
    )
    write_result("fig15_data_sampling", text)
    return text


# ------------------------------------------------------------------- Figure 16
def fig16_query_sampling(samples=(5, 10, 25, 60)) -> str:
    """Figure 16: learning time and query time vs query sample size."""
    bundle = get_bundle("tpch", seed=42)
    rows = []
    for sample in samples:
        flood, opt = build_flood(
            bundle.table, bundle.train,
            data_sample_size=2_000, query_sample_size=sample, seed=43,
        )
        ms = run_workload(flood, bundle.test).avg_total_time * 1e3
        rows.append([sample, round(opt.learn_seconds, 3), round(ms, 4)])
    text = format_table(
        ["sample queries", "optimize (s)", "avg query (ms)"],
        rows,
        title="Figure 16: sampling the query workload (TPC-H)",
    )
    write_result("fig16_query_sampling", text)
    return text


# ------------------------------------------------------------------- Figure 17
def fig17_percell(n: int = 100_000, num_probes: int = 2_000,
                  deltas=(5, 20, 50, 200, 1000)) -> str:
    """Figure 17: per-cell model shoot-out (PLM vs RMI vs binary search) on
    OSM-like timestamps and staggered uniform data, plus the delta
    size/speed trade-off."""
    rng = np.random.default_rng(44)
    osm_ts = np.sort(get_bundle("osm", n=n, seed=45).table.values("timestamp"))
    stagger = np.sort(
        np.concatenate([
            rng.integers(k * 10**7, k * 10**7 + 10**5, size=n // 5)
            for k in range(5)
        ])
    )
    rows = []
    for label, values in (("OSM timestamps", osm_ts), ("Staggered", stagger)):
        probes = values[rng.integers(0, values.size, size=num_probes)]
        plm = PiecewiseLinearModel(values, delta=50)
        rmi = RecursiveModelIndex(values, num_leaves=max(64, int(np.sqrt(values.size))))
        timings = {}
        for model_name, lookup in (
            ("PLM", plm.search_left),
            ("RMI", rmi.search_left),
            ("Binary", lambda v: int(np.searchsorted(values, v, side="left"))),
        ):
            start = time.perf_counter()
            for probe in probes:
                lookup(probe)
            timings[model_name] = (time.perf_counter() - start) / num_probes * 1e9
        rows.append([label] + [round(timings[k], 1) for k in ("PLM", "RMI", "Binary")])
    delta_rows = []
    for delta in deltas:
        plm = PiecewiseLinearModel(osm_ts, delta=delta)
        probes = osm_ts[rng.integers(0, osm_ts.size, size=num_probes)]
        start = time.perf_counter()
        for probe in probes:
            plm.search_left(probe)
        lookup_ns = (time.perf_counter() - start) / num_probes * 1e9
        delta_rows.append([delta, plm.num_segments,
                           round(plm.size_bytes() / 1e3, 2), round(lookup_ns, 1)])
    text = "\n\n".join([
        format_table(["dataset", "PLM (ns)", "RMI (ns)", "Binary (ns)"], rows,
                     title="Figure 17a: per-cell CDF model lookup time"),
        format_table(["delta", "segments", "size (kB)", "lookup (ns)"], delta_rows,
                     title="Figure 17b: PLM delta size/speed trade-off"),
    ])
    write_result("fig17_percell", text)
    return text


# ------------------------------------------------------------- extra ablations
def ablation_refinement() -> str:
    """Beyond the paper: PLM refinement vs binary search vs none inside
    Flood (DESIGN.md design-choice check).

    The ``binary`` row is the default refinement, which includes the
    priced choice between key probes and the rank order per query
    (:meth:`FloodIndex.refine_plan`); the ``plm`` row always probes.
    """
    bundle = get_bundle("tpch", seed=50)
    result = find_optimal_layout(
        bundle.table, bundle.train, AnalyticCostModel(),
        data_sample_size=2000, query_sample_size=30, seed=51,
    )
    rows = []
    for refinement in ("plm", "binary", "none"):
        index = FloodIndex(result.layout, refinement=refinement).build(bundle.table)
        wl = run_workload(index, bundle.test)
        rows.append([refinement, round(wl.avg_total_time * 1e3, 4),
                     round(wl.scan_overhead, 2),
                     round(wl.avg_index_time * 1e3, 4)])
    text = format_table(
        ["refinement", "avg query (ms)", "scan overhead", "index+refine (ms)"],
        rows,
        title="Ablation: refinement strategy inside Flood (TPC-H)",
    )
    write_result("ablation_refinement", text)
    return text


def ablation_flatten() -> str:
    """Beyond the paper: RMI flattening vs exact quantiles vs none (OSM)."""
    bundle = get_bundle("osm", seed=52)
    result = find_optimal_layout(
        bundle.table, bundle.train, AnalyticCostModel(),
        data_sample_size=2000, query_sample_size=30, seed=53,
    )
    rows = []
    for flatten in ("rmi", "quantile", "none"):
        index = FloodIndex(result.layout, flatten=flatten).build(bundle.table)
        wl = run_workload(index, bundle.test)
        rows.append([flatten, round(wl.avg_total_time * 1e3, 4),
                     round(wl.scan_overhead, 2),
                     round(index.size_bytes() / 1e3, 2)])
    text = format_table(
        ["flattening", "avg query (ms)", "scan overhead", "index size (kB)"],
        rows,
        title="Ablation: flattening model inside Flood (OSM)",
    )
    write_result("ablation_flatten", text)
    return text


def ablation_conditional(n: int = 60_000, num_queries: int = 60) -> str:
    """Beyond the paper's measurements (but matching its Section 6 claim):
    conditional CDFs on correlated TPC-H dates vs independent flattening —
    "conditional CDFs did not significantly improve performance in our
    benchmarks, but did significantly increase index size"."""
    bundle = get_bundle("tpch", n=n, num_queries=num_queries, seed=60)
    # Force both correlated dates into the grid so conditioning can fire.
    from repro.core.layout import GridLayout

    layout = GridLayout(
        ("ship_date", "receipt_date", "quantity", "order_key"), (8, 8, 1)
    )
    rows = []
    for flatten in ("rmi", "conditional"):
        index = FloodIndex(layout, flatten=flatten).build(bundle.table)
        wl = run_workload(index, bundle.test)
        rows.append([
            flatten,
            round(wl.avg_total_time * 1e3, 4),
            round(wl.scan_overhead, 2),
            round(index.size_bytes() / 1e3, 2),
        ])
    text = format_table(
        ["flattening", "avg query (ms)", "scan overhead", "index size (kB)"],
        rows,
        title=(
            "Ablation: conditional CDFs on correlated dims (TPC-H dates)\n"
            "Paper's Section 6 claim: similar performance, much larger index"
        ),
    )
    write_result("ablation_conditional", text)
    return text


def monetdb_parity(n: int = 50_000, num_queries: int = 30) -> str:
    """Section 7.1 sanity check: our column store's full-scan throughput vs
    a raw numpy scan (standing in for MonetDB; target: within ~5-25%)."""
    bundle = get_bundle("tpch", n=n, num_queries=num_queries, seed=54)
    from repro.baselines import FullScanIndex

    store = FullScanIndex().build(bundle.table)
    store_s = run_workload(store, bundle.test).avg_total_time
    raw = {dim: bundle.table.values(dim) for dim in bundle.dims}
    start = time.perf_counter()
    for query in bundle.test:
        mask = np.ones(n, dtype=bool)
        for dim, (lo, hi) in query.ranges.items():
            mask &= (raw[dim] >= lo) & (raw[dim] <= hi)
        int(np.count_nonzero(mask))
    raw_s = (time.perf_counter() - start) / len(bundle.test)
    text = format_table(
        ["engine", "avg full-scan time (ms)"],
        [["column store (compressed)", round(store_s * 1e3, 4)],
         ["raw numpy arrays", round(raw_s * 1e3, 4)],
         ["overhead", f"{(store_s / raw_s - 1) * 100:.1f}%"]],
        title="Section 7.1: column-store scan parity check",
    )
    write_result("monetdb_parity", text)
    return text
