"""Benchmark harness: tuned index construction, workload execution, and
paper-style reporting for every table and figure in Section 7.

- :mod:`repro.bench.harness` -- build tuned baselines for a dataset
  bundle (learned Flood comes from :func:`repro.core.calibration.build_flood`);
  execute workloads with full statistics.
- :mod:`repro.bench.report` -- plain-text tables/series matching the
  paper's rows, written to stdout and ``results/``.
- :mod:`repro.bench.experiments` -- one driver per paper artifact
  (Tables 1-4, Figures 5 and 7-17) plus two extra ablations.
"""

from repro.bench.harness import build_tuned_baselines, run_workload
from repro.bench.report import format_series, format_table, write_result
from repro.core.calibration import build_flood, default_cost_model

__all__ = [
    "build_flood",
    "build_tuned_baselines",
    "default_cost_model",
    "run_workload",
    "format_series",
    "format_table",
    "write_result",
]
