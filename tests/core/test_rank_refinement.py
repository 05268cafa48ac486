"""The rank refinement: when ``plan`` takes it, and that every way of
obtaining a built index carries the rank permutation it reads."""

import numpy as np
import pytest

from repro.core import index as flood_index
from repro.core.delta import DeltaBufferedFlood
from repro.core.durable import DurableDeltaFlood
from repro.core.index import FloodIndex
from repro.core.layout import GridLayout
from repro.core.shard import ShardedFloodIndex
from repro.datasets.tpch import generate_lineitem
from repro.query.predicate import Query
from repro.storage.shm import SharedMemoryTable
from repro.storage.table import Table
from repro.storage.visitor import CountVisitor, SumVisitor

from tests.helpers import make_table

#: The grid ``benchmarks/e2e/pinned.py`` learns at full scale (192 cells,
#: sort dimension ``order_key``): the layout of ``lib_scan`` and of every
#: ``serve_*`` workload.
PINNED = GridLayout(
    ("ship_date", "receipt_date", "quantity", "discount", "supp_key", "order_key"),
    (16, 3, 2, 2, 1),
)
#: A fine grid: thousands of non-empty cells, so sort-only queries plan
#: them all and a narrow sort range is cheaper to refine by rank.
FINE = GridLayout(("x", "y", "z"), (48, 48))


@pytest.fixture
def rank_calls(monkeypatch):
    """The planned cell counts of the plans refined by rank (the
    refinement itself still runs)."""
    calls = []
    original = FloodIndex._rank_first

    def spy(self, num_cells, low, high):
        ranks = original(self, num_cells, low, high)
        if ranks is not None:
            calls.append(num_cells)
        return ranks

    monkeypatch.setattr(FloodIndex, "_rank_first", spy)
    return calls


def _sort_ranges(values, widths):
    """Sort-dimension ranges covering about ``width`` rows each."""
    ordered = np.sort(values)
    start = ordered.size // 3
    for width in widths:
        stop = min(start + width - 1, ordered.size - 1)
        yield int(ordered[start]), int(ordered[stop])


def _answers(index, ranges):
    out = []
    for bounds in ranges:
        count, total = CountVisitor(), SumVisitor("x")
        index.query(Query({"z": bounds}), count)
        index.query(Query({"z": bounds}), total)
        out.append((count.result, total.result))
    return out


class TestPricedChoice:
    def test_pinned_layout_never_refines_by_rank(self, rank_calls):
        table = generate_lineitem(100_000, seed=7)
        index = FloodIndex(PINNED).build(table)
        # A sort-only query plans every non-empty cell: no plan is larger,
        # and even that one costs less to probe than the rank path's base.
        nonempty = index._nonempty.size
        assert nonempty * flood_index._KEY_CELL_NS <= flood_index._RANK_BASE_NS
        widths = (1, 41, 1_000, 16_000, 100_000)
        for bounds in _sort_ranges(table.values("order_key"), widths):
            stats = index.query(Query({"order_key": bounds}), CountVisitor())
            assert stats.cells_visited == PINNED.num_cells
        assert rank_calls == []

    def test_fine_grid_refines_narrow_sort_ranges_by_rank(self, rank_calls):
        table = make_table(n=20_000, seed=3)
        index = FloodIndex(FINE).build(table)
        assert index._nonempty.size >= 1_000
        values = table.values("z")
        for bounds in _sort_ranges(values, (1, 50)):
            visitor = CountVisitor()
            index.query(Query({"z": bounds}), visitor)
            assert visitor.result == int(
                ((values >= bounds[0]) & (values <= bounds[1])).sum()
            )
        assert rank_calls == [index._nonempty.size] * 2
        # A range over most rows prices the key probes lower again.
        index.query(Query({"z": (0, 10**6)}), CountVisitor())
        assert len(rank_calls) == 2

    def test_plm_refinement_never_refines_by_rank(self, rank_calls):
        index = FloodIndex(FINE, refinement="plm").build(make_table(n=20_000, seed=3))
        index.query(Query({"z": (500, 500)}), CountVisitor())
        assert rank_calls == []


class TestCarriedState:
    """Every route to a built index answers rank-refined queries like a
    fresh build."""

    RANGES = ((500, 500), (100, 104), (990, 1_000), (-(10**12), -(10**11)))

    @pytest.fixture
    def table(self):
        return make_table(n=20_000, seed=5, compress=False)

    def test_sharded_wrap(self, table, rank_calls):
        fresh = FloodIndex(FINE).build(table)
        sharded = ShardedFloodIndex.wrap(fresh, num_shards=2)
        try:
            for attr in ("_by_rank", "_rank_starts"):
                assert getattr(sharded, attr) is getattr(fresh, attr)
            assert _answers(sharded, self.RANGES) == _answers(fresh, self.RANGES)
        finally:
            sharded.shutdown()
        assert rank_calls

    def test_build_clustered_over_shared_memory(self, table, rank_calls):
        fresh = FloodIndex(FINE).build(table)
        shared = SharedMemoryTable.from_table(fresh.table)
        try:
            attached = SharedMemoryTable.attach(shared.handle)
            reader = FloodIndex(FINE).build_clustered(attached)
            assert np.array_equal(reader._by_rank, fresh._by_rank)
            assert np.array_equal(reader._rank_starts, fresh._rank_starts)
            assert _answers(reader, self.RANGES) == _answers(fresh, self.RANGES)
            attached.close()
        finally:
            shared.unlink()
        assert rank_calls

    def test_delta_merge(self, table, rank_calls):
        rng = np.random.default_rng(6)
        extra = {dim: rng.integers(0, 1000, size=500) for dim in table.dims}
        delta = DeltaBufferedFlood(FINE, merge_threshold=None).build(table)
        delta.insert_many(extra)
        delta.merge()
        combined = Table(
            {dim: np.concatenate([table.values(dim), extra[dim]]) for dim in table.dims}
        )
        fresh = FloodIndex(FINE).build(combined)
        assert delta.index._by_rank.size == combined.num_rows
        assert _answers(delta, self.RANGES) == _answers(fresh, self.RANGES)
        assert rank_calls

    def test_durable_warm_restart(self, table, tmp_path, rank_calls):
        durable = DurableDeltaFlood(
            FINE, str(tmp_path), fsync="never", merge_threshold=None
        ).build(table)
        before = _answers(durable, self.RANGES)
        durable.close()
        reopened = DurableDeltaFlood.open(str(tmp_path), fsync="never")
        try:
            assert reopened.recovered
            assert _answers(reopened, self.RANGES) == before
            assert _answers(FloodIndex(FINE).build(table), self.RANGES) == before
        finally:
            reopened.shutdown()
        assert rank_calls


class TestNanSortValues:
    """NaN sort values sort last among the distinct values and match no
    range; a sort bound past the float range used to rank beyond them, so
    the refined plan kept (and counted) every NaN row."""

    @pytest.fixture(scope="class")
    def table(self):
        rng = np.random.default_rng(12)
        n = 5_000
        sort = rng.uniform(-100, 100, size=n)
        sort[rng.choice(n, size=600, replace=False)] = np.nan
        return Table(
            {
                "x": rng.integers(0, 1000, size=n),
                "y": rng.integers(0, 1000, size=n),
                "z": sort,
            }
        )

    QUERIES = (
        {"z": (-(10**300), 10**300)},
        {"z": (0, 10**300)},
        {"z": (-(10**300), -50)},
        {"x": (100, 700), "z": (-(10**300), 10**300)},
        {"z": (-20, 30)},
    )

    @pytest.mark.parametrize("path", ["key", "rank"])
    def test_refinement_skips_nan_rows(self, table, path, monkeypatch):
        prefers_rank = path == "rank"
        # Price the rank path at nothing, or beyond any plan.
        if prefers_rank:
            monkeypatch.setattr(flood_index, "_RANK_BASE_NS", 0)
            monkeypatch.setattr(flood_index, "_RANK_ROW_NS", 0)
        else:
            monkeypatch.setattr(flood_index, "_RANK_BASE_NS", 10**18)
        index = FloodIndex(FINE).build(table)
        calls = []
        original = FloodIndex._plan_by_rank
        monkeypatch.setattr(
            FloodIndex,
            "_plan_by_rank",
            lambda self, *args: calls.append(1) or original(self, *args),
        )
        for ranges in self.QUERIES:
            query = Query(ranges)
            expected = int(query.match_mask(index.table).sum())
            count = CountVisitor()
            index.query(query, count)
            assert count.result == expected, ranges
            reference = CountVisitor()
            index.query_percell(query, reference)
            assert reference.result == expected, ranges
        assert bool(calls) == prefers_rank
        assert int(np.isnan(index.table.values("z")).sum()) == 600
