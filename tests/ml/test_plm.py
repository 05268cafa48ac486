"""Unit and property tests for the delta-bounded piecewise linear model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.plm import PiecewiseLinearModel

sorted_arrays = st.lists(
    st.integers(-10**6, 10**6), min_size=1, max_size=400
).map(lambda xs: np.sort(np.array(xs, dtype=np.int64)))


class TestPLMConstruction:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            PiecewiseLinearModel(np.array([2, 1]))

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            PiecewiseLinearModel(np.arange(10), delta=0)

    def test_empty_array_searches_zero(self):
        plm = PiecewiseLinearModel(np.array([], dtype=np.int64))
        assert plm.search_left(5) == 0
        assert plm.search_right(5) == 0

    def test_linear_data_one_segment(self):
        plm = PiecewiseLinearModel(np.arange(10000, dtype=np.int64), delta=10)
        assert plm.num_segments == 1

    def test_smaller_delta_more_segments(self):
        rng = np.random.default_rng(0)
        values = np.sort(rng.lognormal(mean=10, sigma=2, size=20000).astype(np.int64))
        coarse = PiecewiseLinearModel(values, delta=500)
        fine = PiecewiseLinearModel(values, delta=5)
        assert fine.num_segments > coarse.num_segments

    def test_size_bytes_grows_with_segments(self):
        rng = np.random.default_rng(1)
        values = np.sort(rng.lognormal(mean=10, sigma=2, size=5000).astype(np.int64))
        fine = PiecewiseLinearModel(values, delta=2)
        coarse = PiecewiseLinearModel(values, delta=200)
        assert fine.size_bytes() > coarse.size_bytes()


class TestPLMLowerBoundProperty:
    """P(v) <= D(v): predictions never overshoot the first occurrence."""

    @settings(max_examples=50)
    @given(sorted_arrays, st.integers(1, 100))
    def test_lower_bound_on_training_values(self, values, delta):
        plm = PiecewiseLinearModel(values, delta=float(delta))
        distinct, first_pos = np.unique(values, return_index=True)
        for v, pos in zip(distinct, first_pos):
            assert plm.predict(v) <= pos

    @settings(max_examples=50)
    @given(sorted_arrays, st.integers(1, 100))
    def test_average_error_within_delta(self, values, delta):
        plm = PiecewiseLinearModel(values, delta=float(delta))
        distinct, first_pos = np.unique(values, return_index=True)
        counts = np.diff(np.append(first_pos, values.size))
        errors = np.array([first_pos[i] - plm.predict(distinct[i]) for i in range(distinct.size)])
        assert np.all(errors >= 0)
        # Weighted average error over all values within each segment is
        # bounded by delta; globally the weighted mean is bounded too since
        # it is a convex combination of per-segment means. predict() floors
        # the real-valued model to an integer, adding at most 1.
        weighted_mean = float((errors * counts).sum() / counts.sum())
        assert weighted_mean <= delta + 1.0


class TestPLMSearch:
    @settings(max_examples=60)
    @given(sorted_arrays, st.integers(1, 60), st.lists(st.integers(-10**6 - 5, 10**6 + 5), min_size=1, max_size=30))
    def test_search_matches_searchsorted(self, values, delta, probes):
        plm = PiecewiseLinearModel(values, delta=float(delta))
        for probe in probes:
            assert plm.search_left(probe) == np.searchsorted(values, probe, side="left")
            assert plm.search_right(probe) == np.searchsorted(values, probe, side="right")

    def test_lookups_range(self):
        values = np.array([1, 3, 3, 5, 7, 9], dtype=np.int64)
        plm = PiecewiseLinearModel(values, delta=5)
        start, stop = plm.lookups(3, 7)
        assert (start, stop) == (1, 5)

    def test_search_with_heavy_duplicates(self):
        values = np.repeat(np.array([10, 20, 30], dtype=np.int64), 1000)
        plm = PiecewiseLinearModel(values, delta=5)
        assert plm.search_left(20) == 1000
        assert plm.search_right(20) == 2000
        assert plm.search_left(15) == plm.search_right(15) == 1000


class TestPLMSearchMany:
    """The batched search path must agree with np.searchsorted exactly."""

    @settings(max_examples=60, deadline=None)
    @given(
        sorted_arrays,
        st.integers(1, 60),
        st.lists(st.integers(-(10**6) - 5, 10**6 + 5), min_size=1, max_size=40),
    )
    def test_matches_searchsorted_property(self, values, delta, probes):
        plm = PiecewiseLinearModel(values, delta=float(delta))
        probes = np.asarray(probes, dtype=np.int64)
        for side in ("left", "right"):
            got = plm.search_many(probes, side)
            assert np.array_equal(got, np.searchsorted(values, probes, side=side))

    @pytest.mark.parametrize(
        "values",
        [
            np.repeat(np.array([10, 20, 30], dtype=np.int64), 1000),  # duplicates
            np.full(800, 42, dtype=np.int64),  # single distinct value
            np.array([7], dtype=np.int64),  # one element
            np.array([], dtype=np.int64),  # empty cell
            np.arange(0, 5000, 3, dtype=np.int64),  # regular stride
        ],
        ids=["duplicates", "all-equal", "singleton", "empty", "stride"],
    )
    def test_adversarial_inputs(self, values):
        plm = PiecewiseLinearModel(values, delta=3.0)
        probes = np.array(
            [-1e300, -(10**9), -1, 0, 7, 10, 15, 20, 29, 30, 42, 4998, 5001,
             10**9, 1e300]
        )
        for side in ("left", "right"):
            got = plm.search_many(probes, side)
            assert np.array_equal(got, np.searchsorted(values, probes, side=side))

    def test_probes_outside_domain(self):
        rng = np.random.default_rng(7)
        values = np.sort(rng.lognormal(8, 2, size=4000).astype(np.int64))
        probes = np.array([values.min() - 10, values.max() + 10], dtype=np.int64)
        assert np.array_equal(plm_search_both(values, probes, "left"),
                              np.searchsorted(values, probes, side="left"))
        assert np.array_equal(plm_search_both(values, probes, "right"),
                              np.searchsorted(values, probes, side="right"))

    def test_agrees_with_scalar_search(self):
        rng = np.random.default_rng(8)
        values = np.sort(rng.integers(0, 500, size=3000))
        plm = PiecewiseLinearModel(values, delta=10.0)
        probes = rng.integers(-50, 550, size=300)
        for side in ("left", "right"):
            batched = plm.search_many(probes, side)
            scalar = np.array([plm._search(float(p), side) for p in probes])
            assert np.array_equal(batched, scalar)

    def test_lookups_many_matches_lookups(self):
        rng = np.random.default_rng(9)
        values = np.sort(rng.integers(0, 200, size=1500))
        plm = PiecewiseLinearModel(values, delta=8.0)
        lows = rng.integers(-20, 220, size=50)
        highs = lows + rng.integers(0, 50, size=50)
        starts, stops = plm.lookups_many(lows, highs)
        for i in range(50):
            assert (starts[i], stops[i]) == plm.lookups(int(lows[i]), int(highs[i]))

    def test_rejects_bad_side(self):
        plm = PiecewiseLinearModel(np.arange(10, dtype=np.int64))
        with pytest.raises(ValueError):
            plm.search_many(np.array([1]), side="middle")


def plm_search_both(values, probes, side):
    return PiecewiseLinearModel(values, delta=5.0).search_many(probes, side)
