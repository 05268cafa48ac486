"""Compare two sets of flood-e2e runs, metric by metric.

    python3 benchmarks/e2e/compare.py A.json B.json

One row per (workload, end-to-end metric): each side's median and
quartiles over its runs, the spread (distance between the first and
third quartile as a share of the median, ``statistics.quantiles(values,
n=4)``), the metric's bound from ``BENCHMARK.json`` and a verdict:

- ``regressed``  — B's median is worse than A's by more than the bound;
- ``unresolved`` — a side's spread is wider than the bound, so "no
  change" cannot be told from "changed" (``setup_s`` is exempt: it is
  judged on medians alone);
- ``ok``         — neither.

Per-layer metrics have no bound; they are listed with ``--layers``.
Exits 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from run import load_spec


def load_set(path: str) -> dict:
    """``{(workload, metric): [values]}`` of one set file."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    values: dict = {}
    for run in document["runs"]:
        for name, metric in run["result"]["metrics"].items():
            values.setdefault((run["workload"], name), []).append(metric["value"])
    return values


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, spread)``."""
    middle = statistics.median(values)
    if len(values) < 2:
        return middle, middle, middle, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return middle, q1, q3, (q3 - q1) / abs(middle) if middle else 0.0


def cell(stats) -> str:
    return f"{stats[0]:.5g} [{stats[1]:.5g}, {stats[2]:.5g}]"


def verdict(entry: dict, a, b) -> str:
    bound = entry["bound"]
    worse = (b[0] - a[0]) / abs(a[0]) if a[0] else 0.0
    if entry["better"] == "higher":
        worse = -worse
    if worse > bound:
        return "regressed"
    if entry["name"] != "setup_s" and max(a[3], b[3]) > bound:
        return "unresolved"
    return "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--layers", action="store_true", help="per-layer metrics instead")
    args = parser.parse_args(argv)
    spec = load_spec()
    set_a, set_b = load_set(args.a), load_set(args.b)
    declared = spec["per_layer"] if args.layers else spec["end_to_end"]
    print(f"{'workload':<16}{'metric':<38}{'A median [q1, q3]':>34}"
          f"{'B median [q1, q3]':>34}{'spread A/B':>16}{'bound':>7}  verdict")
    regressed = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for entry in declared:
            key = (workload, entry["name"])
            if key not in set_a or key not in set_b:
                continue
            a, b = summary(set_a[key]), summary(set_b[key])
            outcome = verdict(entry, a, b) if "bound" in entry else ""
            regressed += outcome == "regressed"
            bound = f"{entry['bound']:.2f}" if "bound" in entry else "-"
            print(f"{workload:<16}{entry['name']:<38}{cell(a):>34}{cell(b):>34}"
                  f"{a[3]:>8.3f}{b[3]:>8.3f}{bound:>7}  {outcome}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
