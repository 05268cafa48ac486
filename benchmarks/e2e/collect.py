"""Collect one *set* of flood-e2e runs, the way the driver makes them.

    python3 benchmarks/e2e/collect.py OUT.json [--runs 10] [--first-seed 1]
        [--workload NAME ...] [--trace 0|1]

Runs ``BENCHMARK.json``'s command once per (workload, seed) in a fresh
process — ``--workload W --seed S --seconds run_seconds --trace T`` —
keeps each run's last line of output, and writes them to ``OUT.json``
with the environment fingerprint. ``compare.py`` reads two such sets.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

from pinned import REPO_ROOT, SRC_DIR
from run import load_spec


def main(argv=None) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="set file to write")
    parser.add_argument("--runs", type=int, default=10, help="seeds per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC_DIR)
    from pinned import environment

    runs = []
    for name in args.workload or names:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = [
                *spec["command"], "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
            ]
            begin = time.perf_counter()
            done = subprocess.run(
                command, cwd=REPO_ROOT, capture_output=True, text=True, timeout=900
            )
            wall = time.perf_counter() - begin
            if done.returncode != 0:
                print(done.stdout[-2000:], done.stderr[-2000:], file=sys.stderr)
                print(f"{name} seed {seed}: exit code {done.returncode}", file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs.append(
                {"workload": name, "seed": seed, "trace": args.trace,
                 "wall_s": wall, "result": result}
            )
            print(f"{name} seed {seed}: {wall:.1f} s", flush=True)
    stamp = environment(seed=None)
    del stamp["seed"]
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(
            {"benchmark": "flood-e2e", "run_seconds": spec["run_seconds"],
             "environment": stamp, "runs": runs},
            handle, indent=1,
        )
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
