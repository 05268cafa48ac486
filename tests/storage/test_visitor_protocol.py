"""The visitor contract: mergeable protocol, dtype preservation, reset.

Three regressions pinned here:

- SUM/MIN/MAX used to coerce through ``int(...)``, silently truncating
  aggregates over float-valued tables;
- ``Visitor.reset``'s default re-invoked ``__init__()`` with no
  arguments, blowing up with a bare ``TypeError`` for any subclass with
  required constructor args that forgot to override (``MinVisitor`` /
  ``MaxVisitor`` did exactly that);
- the mergeable protocol must agree exactly with a single-visitor scan,
  since sharded scans rely on it for partial-aggregate shipping.
"""

import numpy as np
import pytest

from repro.storage.visitor import (
    AvgVisitor,
    CollectVisitor,
    CountVisitor,
    MaxVisitor,
    MinVisitor,
    RecordingVisitor,
    SumVisitor,
    Visitor,
    is_mergeable,
)

from tests.helpers import make_table


class FloatTable:
    """A Table-shaped stand-in with float64 columns (visitors only need
    ``values`` / ``has_cumulative``)."""

    def __init__(self, **cols):
        self._cols = {k: np.asarray(v, dtype=np.float64) for k, v in cols.items()}
        self.num_rows = len(next(iter(self._cols.values())))

    def values(self, name, start=0, stop=None):
        stop = self.num_rows if stop is None else stop
        return self._cols[name][start:stop]

    def has_cumulative(self, name):
        return False

    def __contains__(self, name):
        return name in self._cols


class TestFloatDtypePreserved:
    def test_sum_not_truncated(self):
        table = FloatTable(v=[0.25, 0.5, 0.75, 1.5])
        visitor = SumVisitor("v")
        visitor.visit(table, 0, 4, None)
        assert visitor.result == pytest.approx(3.0)
        assert isinstance(visitor.result, float)

    def test_sum_masked_not_truncated(self):
        table = FloatTable(v=[0.1, 0.2, 0.3, 0.4])
        visitor = SumVisitor("v")
        visitor.visit(table, 0, 4, np.array([True, False, True, False]))
        assert visitor.result == pytest.approx(0.4)

    def test_min_max_keep_fractional_part(self):
        table = FloatTable(v=[2.5, -1.25, 7.75])
        lo, hi = MinVisitor("v"), MaxVisitor("v")
        lo.visit(table, 0, 3, None)
        hi.visit(table, 0, 3, None)
        assert lo.result == -1.25  # int() truncation would give -1
        assert hi.result == 7.75  # ... and 7

    def test_avg_exact_over_floats(self):
        table = FloatTable(v=[0.5, 1.5])
        visitor = AvgVisitor("v")
        visitor.visit(table, 0, 2, None)
        assert visitor.result == pytest.approx(1.0)

    def test_int_columns_still_yield_python_ints(self):
        table = make_table(n=50, dims=("x",), seed=1)
        visitor = SumVisitor("x")
        visitor.visit(table, 0, 50, None)
        assert isinstance(visitor.result, int)
        assert visitor.result == int(table.values("x").sum())


class _NeedsArgs(Visitor):
    """A subclass with a required ctor arg and *no* reset override."""

    def __init__(self, dim):
        self.dim = dim
        self.seen = 0

    def visit(self, table, start, stop, mask):
        self.seen += 1

    @property
    def result(self):
        return self.seen


class _NoArgs(Visitor):
    """No required args and no reset override: the default must work."""

    def __init__(self):
        self.seen = 0

    def visit(self, table, start, stop, mask):
        self.seen += 1

    @property
    def result(self):
        return self.seen


class TestResetHardening:
    def test_min_max_reset_regression(self):
        """MinVisitor/MaxVisitor used to hit TypeError via the default."""
        table = make_table(n=50, dims=("x",), seed=2)
        for cls in (MinVisitor, MaxVisitor):
            visitor = cls("x")
            visitor.visit(table, 0, 50, None)
            assert visitor.result is not None
            visitor.reset()
            assert visitor.result is None
            assert visitor.dim == "x"  # config survives reset

    def test_required_args_without_override_diagnosed(self):
        visitor = _NeedsArgs("x")
        with pytest.raises(NotImplementedError, match="override reset"):
            visitor.reset()

    def test_no_arg_subclass_uses_safe_default(self):
        visitor = _NoArgs()
        visitor.visit(None, 0, 1, None)
        visitor.reset()
        assert visitor.result == 0

    def test_every_shipped_visitor_resets(self):
        table = make_table(n=80, dims=("x", "y"), seed=3)
        visitors = [
            CountVisitor(),
            SumVisitor("x"),
            AvgVisitor("x"),
            MinVisitor("x"),
            MaxVisitor("x"),
            CollectVisitor(),
            RecordingVisitor(),
        ]
        for visitor in visitors:
            visitor.visit(table, 0, 80, None)
            visitor.reset()
        assert visitors[0].result == 0
        assert visitors[1].result == 0
        assert visitors[2].result is None
        assert visitors[3].result is None
        assert visitors[4].result is None
        assert visitors[5].result.size == 0
        assert visitors[6].result == []


class TestMergeableProtocol:
    def _split_merge(self, make, table, mask=None):
        """Feed [0, n) whole vs as two merged halves; both visitors returned."""
        n = table.num_rows
        whole = make()
        whole.visit(table, 0, n, mask)
        left, right = make().fresh(), make().fresh()
        left.visit(table, 0, n // 2, None if mask is None else mask[: n // 2])
        right.visit(table, n // 2, n, None if mask is None else mask[n // 2 :])
        merged = make().fresh()
        merged.merge(left)
        merged.merge(right)
        return whole, merged

    @pytest.mark.parametrize(
        "make",
        [
            CountVisitor,
            lambda: SumVisitor("y"),
            lambda: AvgVisitor("y"),
            lambda: MinVisitor("y"),
            lambda: MaxVisitor("y"),
        ],
        ids=["count", "sum", "avg", "min", "max"],
    )
    def test_merge_equals_single_scan(self, make):
        table = make_table(n=400, dims=("x", "y"), seed=4)
        rng = np.random.default_rng(5)
        mask = rng.random(400) < 0.4
        whole, merged = self._split_merge(make, table, mask)
        assert merged.result == whole.result

    def test_collect_merge_preserves_order(self):
        table = make_table(n=200, dims=("x",), seed=6)
        whole, merged = self._split_merge(CollectVisitor, table)
        np.testing.assert_array_equal(merged.result, whole.result)

    def test_recording_merge_concatenates_visits(self):
        recorder = RecordingVisitor()
        other = RecordingVisitor()
        recorder.visit(None, 0, 5, None)
        other.visit(None, 5, 9, None)
        recorder.merge(other)
        assert [(s, e) for s, e, _ in recorder.result] == [(0, 5), (5, 9)]

    def test_sum_merge_carries_cumulative_hits(self):
        table = make_table(n=100, dims=("x",), seed=7)
        table.add_cumulative("x")
        a, b = SumVisitor("x").fresh(), SumVisitor("x").fresh()
        a.visit(table, 0, 50, None)
        b.visit(table, 50, 100, None)
        total = SumVisitor("x")
        total.merge(a)
        total.merge(b)
        assert total.result == int(table.values("x").sum())
        assert total.cumulative_hits == 2

    def test_fresh_is_empty_and_configured(self):
        visitor = SumVisitor("y", use_cumulative=False)
        visitor.total = 123
        clone = visitor.fresh()
        assert clone.total == 0
        assert clone.dim == "y"
        assert clone.use_cumulative is False

    def test_fresh_constructs_the_subclass(self):
        """Regression: fresh() must build type(self), not the base class —
        otherwise a subclass of a built-in visitor silently computes the
        base aggregate when a sharded scan fills fresh() copies."""

        class DoubleCount(CountVisitor):
            def visit(self, table, start, stop, mask):
                super().visit(table, start, stop, mask)
                super().visit(table, start, stop, mask)

        clone = DoubleCount().fresh()
        assert type(clone) is DoubleCount
        table = make_table(n=40, dims=("x",), seed=8)
        clone.visit(table, 0, 40, None)
        assert clone.result == 80

    def test_is_mergeable_detection(self):
        assert is_mergeable(CountVisitor())
        assert is_mergeable(SumVisitor("x"))
        assert is_mergeable(CollectVisitor())
        assert not is_mergeable(_NoArgs())
        with pytest.raises(NotImplementedError):
            _NoArgs().fresh()
        with pytest.raises(NotImplementedError):
            _NoArgs().merge(_NoArgs())
