"""Range predicates on block-delta codes, and one visit per run group.

Two contracts of the classic scan path are pinned here:

- :meth:`CompressedColumn.range_mask` (through :meth:`Table.range_mask`)
  equals comparing the decoded values, for every delta width, partial
  blocks, bounds outside the column's domain and past ±2^63, and raw
  float columns holding NaN;
- ``scan_runs`` feeds the exact built-in visitors one ``visit_rows``
  call per run group, and that equals the per-run loop that subclasses
  (which may override ``visit``) still get: same results, bit for bit on
  int aggregates, and the same scan counters.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.storage.column as column
from repro.core.index import FloodIndex
from repro.core.layout import GridLayout
from repro.query.predicate import Query
from repro.storage.scan import gather_runs, scan_runs
from repro.storage.table import Table
from repro.storage.visitor import (
    AvgVisitor,
    CollectVisitor,
    CountVisitor,
    MaxVisitor,
    MinVisitor,
    SumVisitor,
)

INT64_MAX = int(np.iinfo(np.int64).max)
INT64_MIN = int(np.iinfo(np.int64).min)


# ------------------------------------------------------------ codes mask
def _column_values(kind, n, rng):
    """Values whose block-delta encoding has the delta width ``kind``
    (``wide`` has uint8 deltas but blocks spread over most of int64).
    Block minima vary, so a range cuts some blocks, spans some and
    misses others; the first block uses the whole delta width."""
    if kind == "wide":
        width = 200
        top = 2**62 + 2**61  # block minima ±top differ by more than 2**63
        offsets = np.where(np.arange(n // 128 + 1) % 2 == 0, -top, top)
    else:
        width = {"uint8": 200, "uint16": 60_000, "uint32": 2**31, "uint64": 2**40}[kind]
        offsets = rng.integers(-4 * width, 4 * width, size=n // 128 + 1)
    values = np.repeat(offsets, 128)[:n] + rng.integers(0, width, size=n)
    if n >= 2:
        values[:2] = offsets[0], offsets[0] + width - 1
    return values


def _expected(values, start, stop, low, high):
    """Exact comparison in Python ints, NaN matching nothing."""
    return np.array(
        [low <= v <= high for v in values[start:stop].tolist()], dtype=bool
    )


@pytest.fixture
def codes_everywhere(monkeypatch):
    """Compare on codes however short the range."""
    monkeypatch.setattr(column, "_CODES_MIN_ROWS", 0)


BOUND = st.one_of(
    st.integers(-300, 300),
    st.sampled_from(
        [-(2**40), 2**40, -(2**62), 2**62, INT64_MIN, INT64_MAX,
         INT64_MIN - 1, INT64_MAX + 1, -(10**300), 10**300]
    ),
)


class TestRangeMask:
    @pytest.mark.parametrize(
        "kind,dtype",
        [("uint8", "uint8"), ("uint16", "uint16"), ("uint32", "uint32"),
         ("uint64", "uint64"), ("wide", "uint8")],
    )
    def test_delta_width(self, kind, dtype):
        values = _column_values(kind, 1_000, np.random.default_rng(0))
        assert str(column.CompressedColumn(values)._deltas.dtype) == dtype

    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["uint8", "uint16", "uint32", "uint64", "wide"]),
        n=st.integers(0, 700),
        edges=st.tuples(st.integers(0, 700), st.integers(0, 700)),
        low=BOUND,
        high=BOUND,
        relative=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_codes_equal_decoded_comparison(
        self, seed, kind, n, edges, low, high, relative
    ):
        rng = np.random.default_rng(seed)
        values = _column_values(kind, n, rng)
        if relative and n:
            # Bounds inside the domain, near two of the column's values.
            low, high = sorted(int(v) + d for v, d in zip(
                rng.choice(values, size=2), rng.integers(-2, 3, size=2)
            ))
        start, stop = sorted(edges)
        col = column.CompressedColumn(values)
        expected = _expected(values, start, min(stop, n), low, high)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(column, "_CODES_MIN_ROWS", 0)
            assert np.array_equal(col.range_mask(start, stop, low, high), expected)
        assert np.array_equal(col.range_mask(start, stop, low, high), expected)

    @pytest.mark.parametrize("kind", ["uint8", "uint16", "uint32", "uint64", "wide"])
    def test_extreme_bounds(self, kind, codes_everywhere):
        """Every pair of bounds at the int64 edges, past them, and at the
        column's own values; a mid-block range and the whole column."""
        values = _column_values(kind, 1_000, np.random.default_rng(5))
        col = column.CompressedColumn(values)
        inside = np.sort(values)[[0, 1, 300, 700, -2, -1]].tolist()
        edges = [-(10**300), INT64_MIN - 1, INT64_MIN, -(2**62), 0,
                 2**62, INT64_MAX, INT64_MAX + 1, 10**300]
        for low in edges + inside:
            for high in edges + inside:
                for start, stop in [(0, 1_000), (130, 990)]:
                    mask = col.range_mask(start, stop, low, high)
                    expected = _expected(values, start, stop, low, high)
                    assert np.array_equal(mask, expected), (low, high, start)

    def test_long_range_takes_the_codes_path(self, monkeypatch):
        # Past the crossover the decode must not run at all.
        values = _column_values("uint16", 40_000, np.random.default_rng(3))
        col = column.CompressedColumn(values)

        def no_decode(*_args):
            raise AssertionError("decoded a range past the crossover")

        monkeypatch.setattr(column.CompressedColumn, "slice", no_decode)
        start, stop = 77, 77 + column._CODES_MIN_ROWS + 300  # mid-block ends
        mask = col.range_mask(start, stop, -1_000, 9_000)
        assert np.array_equal(mask, _expected(values, start, stop, -1_000, 9_000))

    def test_partial_last_block(self, codes_everywhere):
        values = _column_values("uint8", 1_000, np.random.default_rng(4))
        col = column.CompressedColumn(values)  # 1000 = 7 blocks + 104 rows
        for start, stop in [(0, 1_000), (900, 1_000), (999, 1_000), (130, 990)]:
            mask = col.range_mask(start, stop, -30, 40)
            assert np.array_equal(mask, _expected(values, start, stop, -30, 40))

    def test_non_integer_bounds_compare_decoded(self, codes_everywhere):
        values = np.arange(500)
        col = column.CompressedColumn(values)
        mask = col.range_mask(0, 500, 10.5, 20.5)
        assert np.flatnonzero(mask).tolist() == list(range(11, 21))

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 400),
        nan_count=st.integers(0, 40),
        edges=st.tuples(st.integers(0, 400), st.integers(0, 400)),
        low=BOUND,
        high=BOUND,
    )
    @settings(max_examples=100, deadline=None)
    def test_raw_float_column_with_nan(self, seed, n, nan_count, edges, low, high):
        rng = np.random.default_rng(seed)
        values = rng.uniform(-400, 400, size=n)
        if n:
            values[rng.integers(0, n, size=nan_count)] = np.nan
        table = Table({"f": values, "i": np.arange(n)})
        start, stop = sorted(edges)
        stop = min(stop, n)
        mask = table.range_mask("f", start, stop, low, high)
        assert np.array_equal(mask, _expected(values, start, stop, low, high))


# ------------------------------------------------- one visit per group
#: Per-run twins: a subclass misses the exact-type match, so it takes the
#: classic per-run ``visit`` loop with the same aggregate code.
class RunCount(CountVisitor):
    pass


class RunSum(SumVisitor):
    pass


class RunAvg(AvgVisitor):
    pass


class RunMin(MinVisitor):
    pass


class RunMax(MaxVisitor):
    pass


class RunCollect(CollectVisitor):
    pass


PAIRS = [
    (CountVisitor, RunCount, False),
    (SumVisitor, RunSum, True),
    (AvgVisitor, RunAvg, True),
    (MinVisitor, RunMin, True),
    (MaxVisitor, RunMax, True),
    (CollectVisitor, RunCollect, False),
]


def _same(a, b):
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-9)
    return type(a) is type(b) and a == b


def _lib_table(n, seed, cumulative=False):
    rng = np.random.default_rng(seed)
    table = Table(
        {
            "x": rng.integers(0, 200, size=n),  # uint8 deltas
            "y": rng.integers(0, 50_000, size=n),  # uint16 deltas
            "v": rng.integers(-(2**40), 2**40, size=n),  # uint64 deltas
            "f": rng.uniform(-1, 1, size=n),
        }
    )
    if cumulative:
        table.add_cumulative("v")
        table.add_cumulative("f")
    return table


RUN_SHAPES = {
    "gathered": [(s, s + 37) for s in range(0, 40_000, 400)],
    "long": [(0, 9_000), (9_000, 9_000), (11_111, 30_000), (30_500, 40_000)],
    "short": [(5, 200), (1_000, 1_300), (2_000, 2_001)],
}
BOUNDS = {
    "none": [],
    "one": [("y", 10_000, 30_000)],
    "two": [("x", 20, 150), ("y", 5_000, 45_000)],
    "nothing": [("x", 300, 400)],
}


class TestGroupVisit:
    @pytest.mark.parametrize("shape", sorted(RUN_SHAPES))
    @pytest.mark.parametrize("bounds", sorted(BOUNDS))
    @pytest.mark.parametrize("cumulative", [False, True])
    def test_group_equals_per_run_loop(self, shape, bounds, cumulative):
        table = _lib_table(40_000, 9, cumulative)
        runs, filters = RUN_SHAPES[shape], BOUNDS[bounds]
        assert (gather_runs(runs) is not None) == (shape == "gathered")
        for group_cls, run_cls, reads in PAIRS:
            for dim in ("v", "f") if reads else (None,):
                args = (dim,) if reads else ()
                group, per_run = group_cls(*args), run_cls(*args)
                out = scan_runs(table, filters, runs, group)
                assert scan_runs(table, filters, runs, per_run) == out
                assert _same(group.result, per_run.result), (
                    group_cls.__name__, dim, group.result, per_run.result,
                )
                if dim == "v":  # int column: bit for bit
                    assert group.result == per_run.result
                if group_cls is SumVisitor:
                    assert group.cumulative_hits == per_run.cumulative_hits

    def test_subclasses_see_every_visit(self):
        table = _lib_table(40_000, 10)
        filters = BOUNDS["one"]
        (dim, low, high), = filters
        passes = (table.values(dim) >= low) & (table.values(dim) <= high)

        class TracingSum(SumVisitor):
            def __init__(self, dim):
                super().__init__(dim)
                self.calls = []

            def visit(self, table, start, stop, mask):
                self.calls.append((start, stop))
                super().visit(table, start, stop, mask)

        class DoubleCount(CountVisitor):
            def visit(self, table, start, stop, mask):
                super().visit(table, start, stop, mask)
                super().visit(table, start, stop, mask)

        for shape, runs in RUN_SHAPES.items():
            for bounds in (filters, []):
                tracing, double, plain = TracingSum("v"), DoubleCount(), CountVisitor()
                scan_runs(table, bounds, runs, tracing)
                scan_runs(table, bounds, runs, double)
                scan_runs(table, bounds, runs, plain)
                # Exact runs are all visited, empty ones too; masked runs
                # when at least one row matches.
                hit = [
                    (start, stop)
                    for start, stop in runs
                    if not bounds or passes[start:stop].any()
                ]
                assert tracing.calls == hit, shape
                assert double.result == 2 * plain.result

    @pytest.mark.parametrize("sort_dim", ["v", "f"])
    def test_index_counters_unchanged(self, sort_dim):
        """Through ``FloodIndex.query``: group visitors and their per-run
        twins answer alike and report the same scan counters."""
        table = _lib_table(60_000, 11)
        index = FloodIndex(GridLayout(("x", "y", sort_dim), (4, 3))).build(table)
        rng = np.random.default_rng(12)
        queries = [Query({"x": (30, 170)}), Query({sort_dim: (-(10**300), 0)})]
        for _ in range(10):
            ranges = {}
            for dim, top in (("x", 200), ("y", 50_000)):
                if rng.random() < 0.7:
                    a, b = sorted(rng.integers(0, top, size=2).tolist())
                    ranges[dim] = (a, b)
            queries.append(Query(ranges or {"x": (0, 199)}))
        for query in queries:
            for group_cls, run_cls, reads in PAIRS:
                args = ("v",) if reads else ()
                group, per_run = group_cls(*args), run_cls(*args)
                stats = index.query(query, group)
                reference = index.query(query, per_run)
                assert _same(group.result, per_run.result)
                for counter in (
                    "points_scanned", "points_matched", "exact_points", "cells_visited",
                ):
                    assert getattr(stats, counter) == getattr(reference, counter)
