"""Unit and property tests for the Flood index itself."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.index import FloodIndex
from repro.core.layout import GridLayout
from repro.errors import BuildError, SchemaError
from repro.query.predicate import Query
from repro.storage.visitor import CountVisitor

from tests.helpers import brute_force_rows, collected_rows, make_table, random_query

DIMS = ("x", "y", "z")


def _flood(table, columns=(4, 5), **kwargs):
    layout = GridLayout(DIMS, columns)
    return FloodIndex(layout, **kwargs).build(table)


class TestFloodBuild:
    def test_cells_partition_rows(self):
        index = _flood(make_table(n=700, seed=0))
        assert index._cell_starts[-1] == 700

    def test_sorted_within_cells(self):
        index = _flood(make_table(n=900, seed=1))
        starts = index._cell_starts
        values = index.table.values(index.layout.sort_dim)
        for cell in range(index.layout.num_cells):
            section = values[starts[cell] : starts[cell + 1]]
            assert np.all(np.diff(section) >= 0)
        # The refinement key orders the whole table: cell id in the high
        # bits, the sort value's rank among distinct values in the low.
        key = index._refine_key
        assert np.all(np.diff(key) >= 0)
        cells = np.repeat(np.arange(index.layout.num_cells), np.diff(starts))
        assert np.array_equal(key >> index._rank_bits, cells)
        ranks = key & ((1 << index._rank_bits) - 1)
        assert np.array_equal(index._sort_unique[ranks], values)
        assert np.array_equal(
            index._nonempty, np.flatnonzero(np.diff(starts))
        )

    def test_unknown_dim_raises(self):
        layout = GridLayout(("nope", "x"), (2,))
        with pytest.raises(SchemaError):
            FloodIndex(layout).build(make_table())

    def test_bad_refinement_rejected(self):
        with pytest.raises(BuildError):
            FloodIndex(GridLayout(DIMS, (2, 2)), refinement="quantum")

    def test_build_before_query(self):
        index = FloodIndex(GridLayout(DIMS, (2, 2)))
        with pytest.raises(BuildError):
            index.query(Query({"x": (0, 1)}), CountVisitor())

    def test_refinement_key_overflow_rejected(self):
        # 2**62 cells leave one bit for ~600 distinct sort values.
        with pytest.raises(BuildError):
            _flood(make_table(n=200, seed=2), columns=(2**31, 2**31))

    def test_plm_models_built_per_nonempty_cell(self):
        index = _flood(make_table(n=500, seed=2), refinement="plm")
        nonempty = int((np.diff(index._cell_starts) > 0).sum())
        built = sum(1 for m in index._cell_models if m is not None)
        assert built == nonempty

    def test_size_dominated_by_cell_models(self):
        index = _flood(make_table(n=5000, seed=3), columns=(8, 8), refinement="plm")
        assert index.refinement_model_bytes() > 0
        assert index.refinement_model_bytes() <= index.size_bytes()

    def test_size_counts_refinement_key_and_plms_only_under_plm(self):
        table = make_table(n=5000, seed=3)
        binary = _flood(table, columns=(8, 8))
        plm = _flood(table, columns=(8, 8), refinement="plm")
        assert binary.refinement_model_bytes() == 0
        assert binary.size_bytes() > binary._refine_key.nbytes
        assert plm.size_bytes() - binary.size_bytes() == plm.refinement_model_bytes()


class TestFloodCorrectness:
    @pytest.mark.parametrize("flatten", ["rmi", "quantile", "none"])
    @pytest.mark.parametrize("refinement", ["plm", "binary", "none"])
    def test_variants_match_brute_force(self, flatten, refinement):
        table = make_table(n=500, seed=4, skew=True)
        index = _flood(table, flatten=flatten, refinement=refinement)
        rng = np.random.default_rng(5)
        for _ in range(8):
            query = random_query(table, rng)
            assert np.array_equal(
                collected_rows(index, query), brute_force_rows(index, query)
            ), f"flatten={flatten} refinement={refinement} {query}"

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_query_property(self, qseed):
        table = make_table(n=400, seed=6, skew=True)
        index = _flood(table, columns=(3, 4))
        query = random_query(table, np.random.default_rng(qseed))
        assert np.array_equal(
            collected_rows(index, query), brute_force_rows(index, query)
        )

    @pytest.mark.parametrize("refinement", ["binary", "plm", "none"])
    def test_sort_range_outside_data(self, refinement):
        """Regression: a sort-dimension range far outside the data used to
        drive the PLM prediction below its segment and out of bounds
        (IndexError) once a plan held enough cells."""
        table = make_table(n=3000, seed=3)
        index = _flood(table, columns=(8, 8), refinement=refinement)
        for bounds, expected in (
            ((-(10**12), -(10**11)), 0),
            ((10**11, 10**12), 0),
            ((int(-1e300), int(-1e299)), 0),
            ((int(1e299), int(1e300)), 0),
            ((-(10**12), 10**12), 3000),
        ):
            visitor = CountVisitor()
            index.query(Query({"z": bounds}), visitor)
            assert visitor.result == expected, bounds

    def test_query_on_unindexed_dim(self):
        # A dim in the table but not the layout must still be filtered.
        table = make_table(n=400, dims=("x", "y", "z", "w"), seed=7)
        layout = GridLayout(("x", "y"), (4,))
        index = FloodIndex(layout).build(table)
        query = Query({"w": (0, 300)})
        assert np.array_equal(
            collected_rows(index, query), brute_force_rows(index, query)
        )

    def test_single_dimension_layout(self):
        table = make_table(n=300, seed=8)
        index = FloodIndex(GridLayout(("x",), ())).build(table)
        query = Query({"x": (100, 400)})
        assert np.array_equal(
            collected_rows(index, query), brute_force_rows(index, query)
        )

    def test_duplicate_heavy_sort_dim(self):
        from repro.storage.table import Table

        rng = np.random.default_rng(9)
        table = Table(
            {"g": rng.integers(0, 5, size=600), "s": rng.integers(0, 3, size=600)}
        )
        index = FloodIndex(GridLayout(("g", "s"), (3,))).build(table)
        query = Query({"s": (1, 1)})
        assert np.array_equal(
            collected_rows(index, query), brute_force_rows(index, query)
        )


class TestFloodBehavior:
    def test_sort_dim_query_has_no_scan_overhead(self):
        table = make_table(n=2000, seed=10)
        index = _flood(table, columns=(4, 4))
        stats = index.query(Query({"z": (100, 300)}), CountVisitor())
        # Refinement guarantees scanned sort values are in range; with no
        # other filters every scanned point matches.
        assert stats.points_scanned == stats.points_matched
        assert stats.exact_points == stats.points_scanned

    def test_refinement_reduces_scanned_points(self):
        table = make_table(n=3000, seed=11)
        layout = GridLayout(DIMS, (4, 4))
        refined = FloodIndex(layout, refinement="plm").build(table)
        unrefined = FloodIndex(layout, refinement="none").build(table)
        query = Query({"x": (0, 500), "z": (100, 200)})
        r = refined.query(query, CountVisitor())
        u = unrefined.query(query, CountVisitor())
        assert r.points_scanned < u.points_scanned
        assert r.points_matched == u.points_matched

    def test_interior_columns_skip_checks(self):
        table = make_table(n=4000, seed=12)
        index = _flood(table, columns=(10, 1))
        lo, hi = table.min_max("x")
        stats = index.query(Query({"x": (lo, hi)}), CountVisitor())
        # The whole domain is covered: every cell interior, all exact.
        assert stats.exact_points == stats.points_scanned

    def test_cells_visited_counts_projection(self):
        table = make_table(n=1000, seed=13)
        index = _flood(table, columns=(5, 5))
        stats = index.query(Query({"x": (-10**6, 10**6)}), CountVisitor())
        assert stats.cells_visited == 25

    def test_flattening_improves_skewed_scan_overhead(self):
        table = make_table(n=8000, seed=14, skew=True)
        layout = GridLayout(DIMS, (16, 4))
        flat = FloodIndex(layout, flatten="rmi").build(table)
        unflat = FloodIndex(layout, flatten="none").build(table)
        rng = np.random.default_rng(15)
        values = np.sort(table.values("x"))
        flat_scanned = unflat_scanned = 0
        for _ in range(12):
            # Ranges between random data quantiles: realistically selective
            # on the skewed dimension.
            a, b = sorted(rng.integers(0, len(values), size=2).tolist())
            query = Query({"x": (int(values[a]), int(values[b]))})
            flat_scanned += flat.query(query, CountVisitor()).points_scanned
            unflat_scanned += unflat.query(query, CountVisitor()).points_scanned
        assert flat_scanned < unflat_scanned


#: How a property-test query treats one dimension.
_RANGE_SHAPES = ("skip", "domain", "wide", "inner", "sub", "point", "below", "above")


def _shaped_range(shape, values, rng):
    lo, hi = int(np.floor(values.min())), int(np.ceil(values.max()))
    if shape == "domain":  # full range, no boundary checks
        return lo, hi
    if shape == "wide":
        return lo - 5, hi + 5
    if shape == "inner":  # usually every column, boundary checks on
        return (lo + 1, hi - 1) if hi - lo >= 2 else (lo, hi)
    if shape == "sub":
        a, b = sorted(rng.integers(lo, hi + 1, size=2).tolist())
        return a, b
    if shape == "point":
        value = int(values[rng.integers(values.size)])
        return value, value
    if shape == "below":
        return -(10**12), -(10**11)
    return 10**11, 10**12  # "above"


class TestPlanRefineProperty:
    """``plan`` + ``refine_plan`` + ``execute_plan`` against the per-cell
    reference loop: same rows, same counters, on every variant."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 400),
        columns=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        flatten=st.sampled_from(["rmi", "quantile", "none", "conditional"]),
        refinement=st.sampled_from(["binary", "plm", "none"]),
        float_sort=st.booleans(),
        shapes=st.lists(st.sampled_from(_RANGE_SHAPES), min_size=4, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_percell(
        self, n, columns, flatten, refinement, float_sort, shapes, seed
    ):
        from repro.query.stats import QueryStats
        from repro.storage.table import Table
        from repro.storage.visitor import CollectVisitor

        rng = np.random.default_rng(seed)
        # Skewed, correlated grid dims leave most cells of a fine grid empty.
        x = rng.lognormal(mean=4, sigma=1.2, size=n).astype(np.int64)
        y = x + rng.integers(0, 40, size=n)
        if float_sort:
            z = rng.normal(500.0, 200.0, size=n)
        else:
            z = rng.integers(0, 60, size=n)  # duplicate-heavy
        w = rng.integers(0, 1000, size=n)
        table = Table({"x": x, "y": y, "z": z, "w": w})
        index = FloodIndex(
            GridLayout(DIMS, columns), flatten=flatten, refinement=refinement
        ).build(table)
        ranges = {
            dim: _shaped_range(shape, table.values(dim), rng)
            for dim, shape in zip(("x", "y", "z", "w"), shapes)
            if shape != "skip"
        }
        query = Query(ranges or {"x": _shaped_range("domain", x, rng)})

        plan = index.plan(query)
        index.refine_plan(plan)
        fast, stats = CollectVisitor(), QueryStats()
        index.execute_plan(plan, query, fast, stats)
        slow = CollectVisitor()
        reference = index.query_percell(query, slow)

        assert np.array_equal(np.sort(fast.result), np.sort(slow.result))
        assert plan.cells_enumerated == reference.cells_visited
        for attr in ("points_scanned", "points_matched", "exact_points"):
            assert getattr(stats, attr) == getattr(reference, attr), attr


    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 600),
        columns=st.tuples(st.integers(16, 48), st.integers(16, 48)),
        refinement=st.sampled_from(["binary", "plm", "none"]),
        forced=st.sampled_from([None, "key", "rank"]),
        float_sort=st.booleans(),
        grid_shapes=st.lists(
            st.sampled_from(("skip", "skip", "inner", "sub", "below", "above")),
            min_size=2,
            max_size=2,
        ),
        sort_shape=st.sampled_from(("point", "sub", "inner", "below", "domain")),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rank_first_plans_match_percell(
        self, n, columns, refinement, forced, float_sort, grid_shapes, sort_shape, seed
    ):
        """Fine grids, where sort-only plans span most non-empty cells and
        ``plan`` may refine by rank itself (priced, or forced either way);
        grid bounds outside the data leave the cell-id slice empty. A plan
        that comes back refined is left alone by ``refine_plan``."""
        import copy

        from repro.query.stats import QueryStats
        from repro.storage.table import Table
        from repro.storage.visitor import CollectVisitor

        rng = np.random.default_rng(seed)
        x = rng.integers(0, 500, size=n)
        y = rng.integers(0, 500, size=n)
        if float_sort:
            z = rng.normal(500.0, 200.0, size=n)
        else:
            z = rng.integers(0, 30, size=n)
        table = Table({"x": x, "y": y, "z": z})
        layout = GridLayout(DIMS, columns)
        index = FloodIndex(layout, refinement=refinement).build(table)
        ranges = {
            dim: _shaped_range(shape, table.values(dim), rng)
            for dim, shape in zip(("x", "y"), grid_shapes)
            if shape != "skip"
        }
        ranges["z"] = _shaped_range(sort_shape, z, rng)
        query = Query(ranges)
        if forced is None:
            plan = index.plan(query)
        else:
            plan = _forced_plan(index, query, forced)
        if refinement == "plm" or (refinement == "binary" and forced == "key"):
            assert plan.refine
        if refinement == "none":
            assert not plan.refine
        refined = not plan.refine
        before = copy.copy(plan)
        index.refine_plan(plan)
        if refined:
            for attr in ("cells", "starts", "stops", "codes"):
                assert getattr(plan, attr) is getattr(before, attr), attr
        fast, stats = CollectVisitor(), QueryStats()
        index.execute_plan(plan, query, fast, stats)
        slow = CollectVisitor()
        reference = index.query_percell(query, slow)
        assert np.array_equal(np.sort(fast.result), np.sort(slow.result))
        assert plan.cells_enumerated == reference.cells_visited
        for attr in ("points_scanned", "points_matched", "exact_points"):
            assert getattr(stats, attr) == getattr(reference, attr), attr


class TestBoundsBeyondFloatRange:
    """Integer bounds past the float range (a wire client may send a JSON
    integer such as 10**400) answer like brute force on grid, sort and
    unindexed dims under every flattening. Projecting such a grid bound
    used to raise ``OverflowError`` inside the CDF model."""

    BIG = 10**400
    BOUNDS = (
        (-BIG, BIG),
        (0, BIG),
        (-BIG, 500),
        (BIG, BIG + 1),
        (-BIG - 1, -BIG),
    )

    @pytest.mark.parametrize("flatten", ["rmi", "quantile", "none", "conditional"])
    def test_matches_brute_force(self, flatten):
        table = make_table(n=3000, dims=("x", "y", "z", "w"), seed=8)
        index = FloodIndex(GridLayout(DIMS, (6, 5)), flatten=flatten).build(table)
        for dim in ("x", "y", "z", "w"):
            for bounds in self.BOUNDS:
                narrowed = {dim: bounds, "y": (100, 800)}
                for query in (Query({dim: bounds}), Query(narrowed)):
                    visitor = CountVisitor()
                    index.query(query, visitor)
                    expected = int(query.match_mask(index.table).sum())
                    assert visitor.result == expected, (dim, bounds)


#: Sort-dimension bounds of the identity property: data-relative shapes of
#: ``_shaped_range`` plus bounds far outside any data.
_SORT_SHAPES = _RANGE_SHAPES[1:] + ("huge", "tiny", "all")


def _forced_plan(index, query, path):
    """``index.plan(query)`` with the refinement path forced through its
    prices: ``"key"`` prices the rank path beyond any plan (the plan comes
    back unrefined), ``"rank"`` at nothing (it comes back refined)."""
    from unittest import mock

    from repro.core import index as flood_index

    prices = {
        "key": {"_RANK_BASE_NS": 10**18},
        "rank": {"_RANK_BASE_NS": 0, "_RANK_ROW_NS": 0},
    }[path]
    with mock.patch.multiple(flood_index, **prices):
        return index.plan(query)


class TestRankRefinementIdentity:
    """Both exact refinements, forced on the same query, give equal arrays."""

    def test_rank_permutation_orders_rows_by_rank(self):
        index = _flood(make_table(n=900, seed=1))
        values = index.table.values("z")
        assert np.array_equal(index._sort_unique, np.unique(values))
        ranks = np.searchsorted(index._sort_unique, values)
        rows = np.arange(900)
        assert index._by_rank.dtype == np.int32
        assert np.array_equal(index._by_rank, np.lexsort((rows, ranks)))
        assert np.array_equal(
            index._rank_starts, np.concatenate(([0], np.cumsum(np.bincount(ranks))))
        )
        assert index.size_bytes() - index._refine_key.nbytes > index._by_rank.nbytes

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(1, 600),
        columns=st.tuples(st.integers(1, 40), st.integers(1, 40)),
        flatten=st.sampled_from(["rmi", "quantile", "none"]),
        float_sort=st.booleans(),
        grid_shapes=st.lists(st.sampled_from(_RANGE_SHAPES), min_size=2, max_size=2),
        sort_shape=st.sampled_from(_SORT_SHAPES),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_key_and_rank_refinements_agree(
        self, n, columns, flatten, float_sort, grid_shapes, sort_shape, seed
    ):
        import copy

        from repro.storage.table import Table

        rng = np.random.default_rng(seed)
        x = rng.lognormal(mean=4, sigma=1.2, size=n).astype(np.int64)
        y = x + rng.integers(0, 40, size=n)
        if float_sort:
            z = rng.normal(500.0, 200.0, size=n)
        else:
            z = rng.integers(0, 8, size=n)  # duplicate-heavy
        table = Table({"x": x, "y": y, "z": z})
        index = FloodIndex(GridLayout(DIMS, columns), flatten=flatten).build(table)
        ranges = {
            dim: _shaped_range(shape, table.values(dim), rng)
            for dim, shape in zip(("x", "y"), grid_shapes)
            if shape != "skip"
        }
        if sort_shape == "huge":
            ranges["z"] = (int(1e299), int(1e300))
        elif sort_shape == "tiny":
            ranges["z"] = (int(-1e300), int(-1e299))
        elif sort_shape == "all":
            ranges["z"] = (-(10**12), 10**12)
        else:
            ranges["z"] = _shaped_range(sort_shape, z, rng)
        query = Query(ranges)
        unrefined = _forced_plan(index, query, "key")
        assert unrefined.refine
        by_key = copy.copy(unrefined)
        index.refine_plan(by_key)
        by_rank = _forced_plan(index, query, "rank")
        assert not by_rank.refine or by_rank.cells.size == 0
        for attr in ("cells", "starts", "stops", "codes"):
            expected, actual = getattr(by_key, attr), getattr(by_rank, attr)
            assert np.array_equal(expected, actual), attr
            assert expected.dtype == actual.dtype, attr
        assert by_key.coalesced_runs() == by_rank.coalesced_runs()
