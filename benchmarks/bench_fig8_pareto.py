"""Figure 8: index size vs query time (Flood pushes the Pareto frontier).

Regenerates the size/time table per dataset and times Flood's size
accounting (cell table + flattening RMIs + refinement key).
"""

from repro.bench import experiments


def test_fig8_pareto(benchmark, tpch_results):
    experiments.fig8_pareto()
    _, indexes, _, _ = tpch_results
    flood = indexes["Flood"]
    benchmark(flood.size_bytes)
