"""Unit and property tests for CDF flattening."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.flatten import Flattener, column_edges
from repro.errors import BuildError
from repro.storage.table import Table


def _skewed_table(n=5000, seed=0):
    rng = np.random.default_rng(seed)
    return Table(
        {
            "skew": rng.lognormal(mean=8, sigma=2, size=n).astype(np.int64),
            "uniform": rng.integers(0, 10**6, size=n),
        }
    )


class TestFlattener:
    def test_rejects_unknown_kind(self):
        with pytest.raises(BuildError):
            Flattener(_skewed_table(), ["skew"], kind="fourier")

    @pytest.mark.parametrize("kind", ["rmi", "quantile", "none"])
    def test_cdf_bounded_and_monotone(self, kind):
        table = _skewed_table()
        flattener = Flattener(table, ["skew"], kind=kind)
        grid = np.linspace(0, float(table.values("skew").max()) * 1.1, 500)
        cdf = flattener.cdf("skew", grid)
        assert cdf.min() >= 0.0 and cdf.max() <= 1.0
        assert np.all(np.diff(cdf) >= -1e-12)

    @pytest.mark.parametrize("kind", ["rmi", "quantile"])
    def test_flattening_balances_columns(self, kind):
        table = _skewed_table()
        flattener = Flattener(table, ["skew"], kind=kind)
        cols = flattener.column_of("skew", table.values("skew"), 10)
        counts = np.bincount(cols, minlength=10)
        # Perfect balance would be 500/column; flattening should stay well
        # within 3x of that even on lognormal data.
        assert counts.max() < 1500

    def test_equal_width_unbalanced_on_skew(self):
        table = _skewed_table()
        flattener = Flattener(table, ["skew"], kind="none")
        cols = flattener.column_of("skew", table.values("skew"), 10)
        counts = np.bincount(cols, minlength=10)
        # Lognormal mass concentrates in the lowest equal-width columns.
        assert counts.max() > 3000

    @pytest.mark.parametrize("kind", ["rmi", "quantile", "none"])
    def test_column_range_covers_all_matching_points(self, kind):
        table = _skewed_table(seed=3)
        flattener = Flattener(table, ["skew"], kind=kind)
        flattener.fit_columns([16])
        values = table.values("skew")
        for low, high in [(1000, 5000), (0, 10**7), (2000, 2000)]:
            first, last = flattener.column_range("skew", low, high, 16)
            cols = flattener.column_of("skew", values, 16)
            in_range = (values >= low) & (values <= high)
            assert np.all(cols[in_range] >= first)
            assert np.all(cols[in_range] <= last)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(2, 64))
    def test_projection_soundness_property(self, a, b, c):
        table = _skewed_table(seed=5)
        flattener = Flattener(table, ["uniform"], kind="rmi")
        flattener.fit_columns([c])
        low, high = min(a, b), max(a, b)
        values = table.values("uniform")
        first, last = flattener.column_range("uniform", low, high, c)
        cols = flattener.column_of("uniform", values, c)
        in_range = (values >= low) & (values <= high)
        assert np.all((cols[in_range] >= first) & (cols[in_range] <= last))

    def test_sample_rows_training(self):
        table = _skewed_table()
        rows = np.arange(0, 5000, 50)
        flattener = Flattener(table, ["skew"], kind="rmi", sample_rows=rows)
        cdf = flattener.cdf("skew", table.values("skew"))
        assert cdf.min() >= 0.0 and cdf.max() <= 1.0

    def test_size_bytes_orders(self):
        table = _skewed_table()
        rmi = Flattener(table, ["skew"], kind="rmi")
        quantile = Flattener(table, ["skew"], kind="quantile")
        none = Flattener(table, ["skew"], kind="none")
        assert none.size_bytes() < rmi.size_bytes() < quantile.size_bytes()


class TestColumnEdges:
    """``column_range`` answers from the integer column edges: it must give
    the scalar model's own column for every integer bound."""

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["rmi", "quantile", "none"]),
        shape=st.sampled_from(["spread", "duplicates", "single"]),
        floats=st.booleans(),
        num_columns=st.integers(1, 64),
        far=st.lists(st.integers(-(2**70), 2**70), min_size=8, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_edges_equal_scalar_model(
        self, kind, shape, floats, num_columns, far, seed
    ):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        if shape == "spread":
            values = rng.normal(0.0, 60.0, size=n)
        elif shape == "duplicates":
            values = rng.choice(rng.normal(0.0, 60.0, size=4), size=n)
        else:
            values = np.full(n, rng.normal(0.0, 60.0))
        if not floats:
            values = np.round(values).astype(np.int64)
        flattener = Flattener(Table({"v": values}), ["v"], kind=kind)
        flattener.fit_columns([num_columns])
        dom_lo, dom_hi = flattener.domain("v")
        probes = list(range(int(np.floor(dom_lo)) - 2, int(np.ceil(dom_hi)) + 3))
        probes += far + [-(2**63), 2**63 - 1, 2**63]
        for v in probes:
            expected = flattener.column_scalar("v", v, num_columns)
            got = flattener.column_range("v", v, v, num_columns)
            assert got == (expected, expected), v

    def test_edges_are_the_smallest_integer_of_each_column(self):
        step = [0, 0, 1, 1, 1, 3, 3, 4]  # column of v = 0..7, then 4
        edges = column_edges(lambda v: step[min(max(v, 0), 7)], 6, -10, 20)
        assert edges == [2, 5, 5, 7, 21]

    def test_column_range_needs_fitted_columns(self):
        flattener = Flattener(_skewed_table(), ["skew"], kind="rmi")
        with pytest.raises(BuildError):
            flattener.column_range("skew", 0, 10, 8)
        flattener.fit_columns([8])
        with pytest.raises(BuildError):
            flattener.column_range("skew", 0, 10, 9)
