"""Fused scan kernels: dispatch rules, tier resolution, and identity.

The contract under test is the fallback guarantee of
:mod:`repro.storage.kernels`: a fused scan either produces *exactly* the
classic per-run path's results (visitor state and counters alike) or
declines (``None``) and the caller runs the classic path.

Without numba the kernel bodies are plain functions, so ``ScanKernel()``
runs them as Python and every test here exercises them on every
install; with numba the same tests run the compiled bodies. Identity is
checked at the ``scan_runs`` level (against a brute-force oracle and
against the classic path: property tests over random tables, runs and
bounds — including empty runs, all-pass/all-fail residual masks,
NaN-bearing float columns, bounds past the int64 range, and both the
gather and the slice decode) and at the index level against the seed's
``query_percell``, with the scan path pinned per test and through the
sharded index's worker processes.

Float SUM/AVG are the one documented exception: the kernel accumulates
sequentially where numpy sums pairwise per run, so they agree to ~1e-9
relative tolerance instead of bit-for-bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.storage.kernels as kernels
from repro.core.index import FloodIndex
from repro.core.layout import GridLayout
from repro.core.shard import ShardedFloodIndex
from repro.errors import QueryError
from repro.query.predicate import Query
from repro.query.stats import QueryStats
from repro.storage.kernels import (
    ScanKernel,
    get_kernel,
    numba_available,
    resolve_kernel,
    stats_payload,
    warmup_kernels,
)
from repro.storage.scan import gather_runs, scan_runs
from repro.storage.table import Table
from repro.storage.visitor import (
    AvgVisitor,
    CollectVisitor,
    CountVisitor,
    MaxVisitor,
    MinVisitor,
    RecordingVisitor,
    SumVisitor,
    fold_max,
    fold_min,
)

from tests.helpers import make_table, random_query

#: The two scan paths: ``numpy`` is the classic ``scan_runs`` path,
#: ``fused`` the kernel bodies (plain Python where numba is missing).
TIERS = ["numpy", "fused"]
PATHS = {"numpy": None, "fused": ScanKernel()}

VISITORS = [
    ("count", CountVisitor, ()),
    ("sum", SumVisitor, ("v",)),
    ("avg", AvgVisitor, ("v",)),
    ("min", MinVisitor, ("v",)),
    ("max", MaxVisitor, ("v",)),
    ("collect", CollectVisitor, ()),
]

INT64_MAX = int(np.iinfo(np.int64).max)
INT64_MIN = int(np.iinfo(np.int64).min)


def _pin_scan_path(monkeypatch, tier):
    """Make ``get_kernel()`` serve ``tier`` for the rest of the test."""
    monkeypatch.setattr(kernels, "_HAVE_NUMBA", tier == "fused")


def _results_equal(a, b, rel=1e-9):
    """Result identity with the documented float-accumulation tolerance."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(np.asarray(a), np.asarray(b))
    if a is None or b is None:
        return a is b
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)
    return a == b


# ------------------------------------------------------------ resolution
class TestResolution:
    def test_auto_resolves_to_an_available_tier(self):
        tier = resolve_kernel("auto")
        assert tier == ("numba" if numba_available() else "numpy")

    def test_numpy_always_resolves(self):
        assert resolve_kernel("numpy") == "numpy"

    def test_unknown_spec_is_a_query_error(self):
        with pytest.raises(QueryError, match="unknown scan kernel"):
            resolve_kernel("fortran")

    @pytest.mark.skipif(numba_available(), reason="needs a numba-less install")
    def test_explicit_numba_without_numba_is_loud(self):
        # Silent degradation of an explicitly requested tier would hide a
        # 2x+ perf regression; the error names the extras tag.
        with pytest.raises(QueryError, match=r"repro\[kernels\]"):
            resolve_kernel("numba")

    def test_get_kernel_is_a_singleton_per_tier(self, monkeypatch):
        assert get_kernel("numpy") is None  # the classic path
        assert get_kernel("auto") is get_kernel(resolve_kernel("auto"))
        _pin_scan_path(monkeypatch, "fused")
        kernel = get_kernel()
        assert isinstance(kernel, ScanKernel)
        assert get_kernel("numba") is kernel


# -------------------------------------------------------------- dispatch
class TestDispatch:
    """fused_scan declines exactly when the classic path must run."""

    def _table(self):
        rng = np.random.default_rng(7)
        return Table(
            {
                "x": rng.integers(0, 100, size=400),
                "v": rng.integers(0, 100, size=400),
            }
        )

    def test_recording_visitor_falls_back(self):
        # RecordingVisitor must see every (start, stop, mask) verbatim.
        table = self._table()
        out = ScanKernel().fused_scan(
            table, [("x", 10, 50)], [(0, 400)], RecordingVisitor()
        )
        assert out is None

    def test_visitor_subclass_falls_back(self):
        # Subclasses may override visit(); exact-type dispatch only.
        class TracingSum(SumVisitor):
            pass

        out = ScanKernel().fused_scan(
            self._table(), [("x", 10, 50)], [(0, 400)], TracingSum("v")
        )
        assert out is None

    def test_exact_runs_fall_back(self):
        # Empty bounds = exact runs: the cumulative-aggregate path's job.
        out = ScanKernel().fused_scan(self._table(), [], [(0, 400)], CountVisitor())
        assert out is None

    def test_unsupported_dtype_falls_back(self):
        # Table itself coerces to int64/float64; only duck-typed tables
        # can surface other dtypes, and the kernel must decline them.
        class Int32Table:
            num_rows = 50

            def __contains__(self, dim):
                return True

            def values(self, dim, start=None, stop=None):
                return np.arange(50, dtype=np.int32)[start:stop]

            def take(self, dim, indices):
                return self.values(dim)[indices]

        out = ScanKernel().fused_scan(
            Int32Table(), [("x", 0, 10)], [(0, 50)], CountVisitor()
        )
        assert out is None

    def test_missing_aggregate_dim_falls_back(self):
        # The classic path lets the visitor raise; the kernel must not
        # preempt that with its own error.
        out = ScanKernel().fused_scan(
            self._table(), [("x", 10, 50)], [(0, 400)], SumVisitor("nope")
        )
        assert out is None

    def test_all_empty_runs_short_circuit(self):
        visitor = CountVisitor()
        out = ScanKernel().fused_scan(
            self._table(), [("x", 10, 50)], [(5, 5), (9, 9)], visitor
        )
        assert out == (0, 0)
        assert visitor.result == 0


# ----------------------------------------------------- scan_runs identity
def _runs_partition(n, rng, pieces):
    """Random disjoint (start, stop) runs in storage order, with some
    zero-length runs mixed in."""
    if n == 0:
        return [(0, 0)]
    cuts = sorted(rng.integers(0, n + 1, size=pieces * 2).tolist())
    runs = []
    for lo, hi in zip(cuts[::2], cuts[1::2]):
        runs.append((lo, hi))  # zero-length when lo == hi: tolerated
    return runs or [(0, n)]


def _brute(table, bounds, runs):
    mask_all = np.zeros(table.num_rows, dtype=bool)
    for start, stop in runs:
        mask_all[start:stop] = True
    for dim, lo, hi in bounds:
        vals = table.values(dim)
        mask_all &= (vals >= lo) & (vals <= hi)
    return mask_all


def _oracle(cls, args, table, bounds, runs):
    """The visitor fed every match in one masked visit, and the match count."""
    visitor = cls(*args)
    mask = _brute(table, bounds, runs)
    if mask.any():
        visitor.visit(table, 0, table.num_rows, mask)
    return visitor, int(mask.sum())


def _assert_matches_classic(table, bounds, runs, agg="v"):
    """Every fusable visitor through the kernel bodies equals the classic
    ``scan_runs``."""
    for name, cls, args in VISITORS:
        baseline = cls(*(agg,) * len(args))
        fused = baseline.fresh()
        stats = QueryStats()
        out0 = scan_runs(table, bounds, runs, baseline)
        out1 = scan_runs(
            table, bounds, runs, fused, kernel=PATHS["fused"], stats=stats
        )
        assert out1 == out0, name
        assert stats.kernel_groups == 1, name
        assert _results_equal(fused.result, baseline.result), (
            name, fused.result, baseline.result,
        )


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("name,cls,args", VISITORS, ids=[v[0] for v in VISITORS])
@pytest.mark.parametrize("dtype", ["int64", "float64"])
def test_scan_runs_kernel_identity(tier, name, cls, args, dtype):
    rng = np.random.default_rng(17)
    n = 3000
    data = {
        "x": rng.integers(0, 100, size=n).astype(dtype),
        "y": rng.integers(0, 100, size=n).astype(dtype),
        "v": rng.integers(0, 100, size=n).astype(dtype),
    }
    if dtype == "float64":
        data["v"][rng.integers(0, n, size=30)] = np.nan
    table = Table(data, compress=False)
    bounds = [("x", 20, 70), ("y", 10, 90)]
    runs = _runs_partition(n, rng, pieces=6)

    expected, expected_matches = _oracle(cls, args, table, bounds, runs)
    stats = QueryStats()
    visitor = cls(*args)
    scanned, matched = scan_runs(
        table, bounds, runs, visitor, kernel=PATHS[tier], stats=stats
    )

    assert scanned == sum(stop - start for start, stop in runs)
    assert matched == expected_matches
    assert stats.kernel_groups == (1 if tier == "fused" else 0)
    assert _results_equal(visitor.result, expected.result), (
        tier, name, dtype, visitor.result, expected.result,
    )


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("edge", ["all_pass", "all_fail", "empty_runs"])
def test_scan_runs_kernel_edges(tier, edge):
    rng = np.random.default_rng(5)
    n = 500
    table = Table(
        {
            "x": rng.integers(0, 100, size=n),
            "v": rng.integers(0, 100, size=n),
        },
        compress=False,
    )
    if edge == "all_pass":
        bounds, runs = [("x", 0, 99)], [(0, n)]
    elif edge == "all_fail":
        bounds, runs = [("x", 1000, 2000)], [(0, n)]
    else:
        bounds, runs = [("x", 20, 70)], [(0, 0), (10, 10), (499, 499)]
    for name, cls, args in VISITORS:
        expected, expected_matches = _oracle(cls, args, table, bounds, runs)
        visitor = cls(*args)
        out = scan_runs(table, bounds, runs, visitor, kernel=PATHS[tier])
        assert out == (sum(stop - start for start, stop in runs), expected_matches)
        assert _results_equal(visitor.result, expected.result), (tier, edge, name)


def _mixed_table(n, rng):
    """int64 and float64 filter and aggregate columns, NaN in the floats."""
    data = {
        "i": rng.integers(0, 100, size=n),
        "f": rng.integers(0, 100, size=n).astype(np.float64),
        "vi": rng.integers(-50, 50, size=n),
        "vf": rng.uniform(-50, 50, size=n),
    }
    data["f"][rng.integers(0, n, size=n // 20)] = np.nan
    data["vf"][rng.integers(0, n, size=n // 50)] = np.nan
    return Table(data, compress=False)


@pytest.mark.parametrize("agg", ["vi", "vf"])
@pytest.mark.parametrize("decode", ["slice", "gather"])
def test_fused_scan_matches_classic(decode, agg):
    """The kernel bodies against classic ``scan_runs``: int and float
    filters in one batch, NaN filter and aggregate values, an empty run,
    and both decode strategies."""
    rng = np.random.default_rng(29)
    n = 2000
    table = _mixed_table(n, rng)
    if decode == "slice":
        runs = [(0, 700), (900, 900), (900, 1500), (1600, n)]
    else:
        runs = [(s, s + 17) for s in range(0, n, 50)] + [(n, n)]
    live = [(start, stop) for start, stop in runs if stop > start]
    assert (gather_runs(live) is not None) == (decode == "gather")
    _assert_matches_classic(table, [("i", 20, 70), ("f", 10, 90)], runs, agg)


@pytest.mark.parametrize(
    "low,high",
    [
        (0, 10**300),  # the wire's [0, 1e300]: admits every value above 0
        (-(10**300), 10**300),
        (10**300, 10**301),  # entirely above int64: admits nothing
        (-(10**301), -(10**300)),  # entirely below int64: admits nothing
        (INT64_MAX + 1, 10**300),
        (-(10**300), INT64_MIN - 1),
        (INT64_MAX, 10**300),  # only INT64_MAX itself
        (-(10**300), INT64_MIN),  # only INT64_MIN itself
    ],
    ids=[
        "upper_huge", "both_huge", "above_int64", "below_int64",
        "max_plus_one", "min_minus_one", "only_max", "only_min",
    ],
)
def test_fused_scan_int_bounds_past_int64(low, high):
    """Bounds past the int64 range admit every value or none — never the
    range edge itself, which a clip onto INT64_MAX/MIN would admit."""
    rng = np.random.default_rng(41)
    n = 600
    ints = rng.integers(-1000, 1000, size=n)
    ints[::7] = INT64_MAX
    ints[3::11] = INT64_MIN
    table = Table({"i": ints, "v": rng.integers(0, 100, size=n)}, compress=False)
    bounds = [("i", low, high)]
    runs = [(0, 250), (300, n)]
    _assert_matches_classic(table, bounds, runs)
    _assert_matches_classic(table, bounds, [(s, s + 9) for s in range(0, n, 20)])
    expected = _brute(table, bounds, runs).sum()
    assert scan_runs(table, bounds, runs, CountVisitor())[1] == expected


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 250),
    dtype=st.sampled_from(["int64", "float64"]),
    lo=st.integers(-5, 110),
    width=st.integers(0, 120),
    pieces=st.integers(1, 24),
    nan_count=st.integers(0, 20),
)
@settings(max_examples=60, deadline=None)
def test_scan_runs_kernel_identity_property(
    seed, n, dtype, lo, width, pieces, nan_count
):
    """Fused == unfused on arbitrary tables, runs, and residual bounds.

    ``lo``/``width`` extremes produce all-pass and all-fail masks; the
    runs partition mixes zero-length runs, and many pieces of a short
    table gather; float tables get NaN injected into both the filter and
    the aggregate columns (a NaN filter value matches nothing; a NaN
    aggregate value poisons MIN/MAX to NaN).
    """
    rng = np.random.default_rng(seed)
    data = {
        "x": rng.integers(0, 100, size=n).astype(dtype),
        "v": rng.integers(0, 100, size=n).astype(dtype),
    }
    if dtype == "float64" and n and nan_count:
        data["x"][rng.integers(0, n, size=nan_count)] = np.nan
        data["v"][rng.integers(0, n, size=nan_count)] = np.nan
    table = Table(data, compress=False)
    bounds = [("x", lo, lo + width)]
    runs = _runs_partition(n, rng, pieces)

    expected_matches = int(_brute(table, bounds, runs).sum())
    for tier in TIERS:
        for name, cls, args in VISITORS:
            baseline, fused = cls(*args), cls(*args)
            out0 = scan_runs(table, bounds, runs, baseline)
            out1 = scan_runs(table, bounds, runs, fused, kernel=PATHS[tier])
            assert out1 == out0
            assert out1[1] == expected_matches
            assert _results_equal(fused.result, baseline.result), (
                tier, name, fused.result, baseline.result,
            )


def test_fold_min_max_nan_is_order_independent():
    """Regression: Python's min/max keep or drop NaN depending on
    argument order, so NaN MIN/MAX results used to depend on run
    boundaries. The folds propagate NaN from either side."""
    nan = float("nan")
    assert math.isnan(fold_min(nan, 3.0))
    assert math.isnan(fold_min(3.0, nan))
    assert math.isnan(fold_max(nan, 3.0))
    assert math.isnan(fold_max(3.0, nan))
    assert fold_min(None, 2.0) == 2.0
    assert fold_max(None, 2.0) == 2.0
    assert fold_min(1.0, 2.0) == 1.0
    assert fold_max(1.0, 2.0) == 2.0


# -------------------------------------------------------- index identity
DIMS = ("x", "y", "z")


@pytest.fixture(scope="module")
def kernel_table():
    rng = np.random.default_rng(23)
    n = 5000
    data = {dim: rng.integers(0, 1000, size=n) for dim in DIMS}
    values = rng.uniform(0, 1000, size=n)
    values[rng.integers(0, n, size=50)] = np.nan
    data["f"] = values
    data["w"] = rng.integers(0, 1000, size=n)  # unindexed: always checked
    return Table(data)


def _int_dim_query(rng):
    """A random query over the int dims (the NaN-bearing float column is
    an aggregate target, not a filter — its min/max is NaN)."""
    ranges = {}
    for dim in rng.choice(DIMS, size=int(rng.integers(1, len(DIMS) + 1)), replace=False):
        a, b = sorted(rng.integers(0, 1000, size=2).tolist())
        ranges[dim] = (a, b)
    return Query(ranges)


def _index_visitors():
    out = []
    for agg in ("z", "f"):
        out += [
            SumVisitor(agg), AvgVisitor(agg), MinVisitor(agg), MaxVisitor(agg),
        ]
    return out + [CountVisitor(), CollectVisitor()]


@pytest.mark.parametrize("tier", TIERS)
def test_index_kernel_matches_query_percell(kernel_table, tier, monkeypatch):
    _pin_scan_path(monkeypatch, tier)
    layout = GridLayout(order=DIMS, columns=(7, 5))
    index = FloodIndex(layout).build(kernel_table)
    rng = np.random.default_rng(3)
    for qi in range(8):
        query = _int_dim_query(rng)
        for visitor in _index_visitors():
            visitor.reset()
            reference = visitor.fresh()
            stats = index.query(query, visitor)
            ref_stats = index.query_percell(query, reference)
            assert stats.points_scanned == ref_stats.points_scanned
            assert stats.points_matched == ref_stats.points_matched
            result, expected = visitor.result, reference.result
            if isinstance(result, np.ndarray):
                # collect order follows visit order, which differs between
                # the vectorized and per-cell paths by design — compare
                # sorted (the CollectVisitor contract).
                result, expected = np.sort(result), np.sort(expected)
            assert _results_equal(result, expected), (
                tier, qi, type(visitor).__name__,
            )


def test_index_kernel_stats_and_swap(kernel_table, monkeypatch):
    """``kernel_groups`` counts fused groups, and the scan path follows
    the platform at query time: a built index needs no rebuild."""
    layout = GridLayout(order=DIMS, columns=(7, 5))
    index = FloodIndex(layout).build(kernel_table)
    query = Query({"x": (100, 800)})
    _pin_scan_path(monkeypatch, "fused")
    fused = CountVisitor()
    stats = index.query(query, fused)
    assert stats.kernel_groups >= 1
    _pin_scan_path(monkeypatch, "numpy")
    classic = CountVisitor()
    stats = index.query(query, classic)
    assert stats.kernel_groups == 0
    assert fused.result == classic.result


@pytest.mark.parametrize(
    "ranges",
    [
        {"w": (0, 10**300)},
        {"w": (10**300, 10**301)},
        {"w": (-(10**300), 500), "x": (100, 800)},
    ],
    ids=["upper_huge", "above_int64", "lower_huge"],
)
def test_index_huge_int_bound_matches_brute_force(kernel_table, ranges, monkeypatch):
    """Regression: a residual-checked int bound past ±2^63 (the wire query
    ``[0, 1e300]``) raised OverflowError on the fused path."""
    _pin_scan_path(monkeypatch, "fused")
    index = FloodIndex(GridLayout(order=DIMS, columns=(7, 5))).build(kernel_table)
    query = Query(ranges)
    visitor = CountVisitor()
    stats = index.query(query, visitor)
    assert stats.kernel_groups >= 1
    assert visitor.result == int(query.match_mask(index.table).sum())


# ------------------------------------------------ process fan-out identity
def test_process_backend_kernel_identity():
    # Workers pick their scan path from their own platform, like serving.
    table = make_table(n=6000, dims=DIMS, seed=37)
    flood = FloodIndex(GridLayout(DIMS, (6, 5))).build(table)
    sharded = ShardedFloodIndex.wrap(flood, num_shards=4, min_parallel_points=0)
    try:
        rng = np.random.default_rng(6)
        for _ in range(4):
            query = random_query(table, rng)
            for visitor in (CountVisitor(), SumVisitor("z"), CollectVisitor()):
                reference = visitor.fresh()
                stats = sharded.query(query, visitor)
                flood.query_percell(query, reference)
                # worker-side fusions are shipped back per query
                assert (stats.kernel_groups >= 1) == numba_available()
                result = visitor.result
                expected = reference.result
                if isinstance(result, np.ndarray):
                    result, expected = np.sort(result), np.sort(expected)
                assert _results_equal(result, expected)
    finally:
        sharded.shutdown()


# --------------------------------------------------- warm-up + stats block
class TestWarmupAndStats:
    def test_warmup_records_tier_and_time(self):
        out = warmup_kernels()
        assert out["tier"] == resolve_kernel("auto")
        assert out["seconds"] >= 0.0

    def test_warmup_numpy_is_a_cheap_noop(self, monkeypatch):
        _pin_scan_path(monkeypatch, "numpy")
        out = warmup_kernels()
        assert out["tier"] == "numpy"
        assert out["seconds"] < 1.0

    def test_stats_payload_shape(self):
        out = warmup_kernels()
        payload = stats_payload()
        assert set(payload) == {
            "tier", "numba_available", "warmup_seconds",
            "fused_groups", "fused_rows",
        }
        assert payload["tier"] == resolve_kernel("auto")
        assert payload["numba_available"] == numba_available()
        assert payload["warmup_seconds"] == out["seconds"]
        assert payload["fused_groups"] >= 0

    def test_fused_counters_advance(self, monkeypatch):
        _pin_scan_path(monkeypatch, "fused")
        before = stats_payload()
        rng = np.random.default_rng(11)
        table = Table(
            {
                "x": rng.integers(0, 100, size=800),
                "v": rng.integers(0, 100, size=800),
            }
        )
        out = get_kernel().fused_scan(
            table, [("x", 10, 60)], [(0, 800)], CountVisitor()
        )
        assert out is not None
        after = stats_payload()
        assert after["fused_groups"] == before["fused_groups"] + 1
        assert after["fused_rows"] == before["fused_rows"] + 800
