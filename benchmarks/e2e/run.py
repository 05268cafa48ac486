"""flood-e2e: the repo's end-to-end benchmark (see README.md beside it).

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace [0|1]] [--quick]

Prints every metric by name with its unit, checks results against the
brute-force oracle, and exits non-zero on any mismatch, failed operation
or lost acked row. With ``--workload`` the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``
holding every end-to-end metric (``--trace 0``) or every per-layer
metric (``--trace 1``) that ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from pinned import OUT_DIR, REPO_ROOT, SRC_DIR


def load_spec() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """One workload, one pass; returns the stamped result document."""
    from lib import LIB_WORKLOADS, run_lib
    from pinned import FULL, QUICK, environment
    from served import run_served_sync
    from tracing import Tracer
    from wire import Janitor

    scale = QUICK if quick else FULL
    tracer = Tracer() if trace else None
    janitor = Janitor()
    try:
        if name in LIB_WORKLOADS:
            outcome = run_lib(name, scale, seed, seconds, tracer, quick)
        else:
            outcome = run_served_sync(name, scale, seed, seconds, tracer, quick, janitor)
    finally:
        janitor.close()
    leftovers = janitor.leftovers()
    outcome.fail(len(leftovers), f"left behind: {', '.join(leftovers)}")
    os.makedirs(OUT_DIR, exist_ok=True)
    if tracer is not None:
        tracer.dump(os.path.join(OUT_DIR, f"trace-{name}.json"))
    result = {
        "workload": name,
        "seconds": seconds,
        "trace": int(trace),
        "quick": quick,
        "environment": environment(seed),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "notes": outcome.notes,
        "values": outcome.per_layer if trace else outcome.end_to_end,
    }
    kind = "layers" if trace else "e2e"
    with open(os.path.join(OUT_DIR, f"result-{name}-{kind}.json"), "w") as handle:
        json.dump(result, handle, indent=1)
    return result


def contract_line(result: dict, declared: list[dict]) -> tuple[dict, list[str]]:
    """The driver's result object (every declared metric, as a number)
    and what kept it from being correct beyond failed operations.

    A per-layer metric this workload does not exercise, or whose probe
    could not run here (numba absent), reads 0; an end-to-end metric is
    never allowed to be missing.
    """
    metrics = {}
    problems = []
    for entry in declared:
        value = result["values"].get(entry["name"])
        if value is None:
            if not result["trace"]:
                problems.append(f"end-to-end metric {entry['name']} missing")
            value = 0.0
        elif not math.isfinite(value):
            problems.append(f"metric {entry['name']} is not finite")
            value = 0.0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return {
        "correct": result["failed"] == 0 and not problems,
        "attempted": max(int(result["attempted"]), 1),
        "failed": int(result["failed"]) + len(problems),
        "metrics": metrics,
    }, problems


def print_table(result: dict, declared: list[dict]) -> None:
    units = {entry["name"]: entry["unit"] for entry in declared}
    kind = "per-layer (traced pass)" if result["trace"] else "end-to-end"
    print(f"== {result['workload']}: {kind}, seed {result['environment']['seed']}, "
          f"{result['seconds']:g} s ==")
    for name in sorted(result["values"]):
        value = result["values"][name]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<40} {shown:>14} {units.get(name, '')}")
    print(f"  operations attempted {result['attempted']}, failed {result['failed']}")
    for note in result["notes"]:
        print(f"  FAILED: {note}")


def main(argv=None) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="default: all six")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="length of the timed part of one pass",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
        help="1: the traced pass (per-layer metrics); 0: end-to-end metrics",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke mode: 20 k rows, one 0.5 s repetition",
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC_DIR, "repro", "__init__.py")):
        print("flood-e2e needs the repro package under src/", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC_DIR)
    seconds = 0.5 if args.quick else args.seconds
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    status = 0
    line = None
    for name in [args.workload] if args.workload else names:
        result = run_workload(name, args.seed, seconds, bool(args.trace), args.quick)
        print_table(result, declared)
        line, problems = contract_line(result, declared)
        for problem in problems:
            print(f"  FAILED: {problem}")
        if not line["correct"]:
            status = 1
        if not args.workload:
            print(json.dumps({"workload": name, **line}))
    if args.workload:
        print(json.dumps(line))
    return status


if __name__ == "__main__":
    sys.exit(main())
