"""Tests for the statistics helpers."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.util.stats import (
    Summary,
    nearest_percentile,
    percentile,
    summarize,
)


class TestPercentile:
    def test_median_even(self):
        assert percentile([1, 2, 3, 4], 50) == 2.5

    def test_median_odd(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_min_max(self):
        data = [5, 1, 9, 3]
        assert percentile(data, 0) == 1
        assert percentile(data, 100) == 9

    def test_single_element(self):
        assert percentile([7], 50) == 7
        assert percentile([7], 99) == 7

    def test_unsorted_input(self):
        assert percentile([9, 1, 5], 50) == 5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_pct_rejected(self):
        with pytest.raises(ValueError):
            percentile([1], -1)
        with pytest.raises(ValueError):
            percentile([1], 101)

    @given(
        st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1),
        st.floats(min_value=0, max_value=100),
    )
    def test_bounded_by_min_max(self, data, pct):
        p = percentile(data, pct)
        assert min(data) <= p <= max(data)

    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=2))
    def test_monotone_in_pct(self, data):
        assert percentile(data, 25) <= percentile(data, 75)


class TestNearestPercentile:
    def test_picks_the_sorted_sample_at_int_fraction_n(self):
        data = [40, 10, 30, 20]
        assert nearest_percentile(data, 0.0) == 10
        assert nearest_percentile(data, 0.5) == 30  # index int(2.0)
        assert nearest_percentile(data, 0.74) == 30  # index int(2.96)
        assert nearest_percentile(data, 0.75) == 40

    def test_index_clamped_to_last_sample(self):
        assert nearest_percentile([3, 1, 2], 0.99) == 3
        assert nearest_percentile([3, 1, 2], 1.0) == 3

    def test_never_interpolates(self):
        assert nearest_percentile([1, 2], 0.5) == 2
        assert percentile([1, 2], 50) == 1.5

    def test_empty_is_zero(self):
        assert nearest_percentile([], 0.99) == 0.0

    def test_input_left_unsorted(self):
        data = [9, 1, 5]
        nearest_percentile(data, 0.5)
        assert data == [9, 1, 5]

    @given(
        st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1),
        st.floats(min_value=0, max_value=1),
    )
    def test_returns_an_observed_sample(self, data, fraction):
        assert nearest_percentile(data, fraction) in data


class TestSummarize:
    def test_basic(self):
        s = summarize([2, 4, 6])
        assert s.count == 3
        assert s.mean == 4
        assert s.minimum == 2
        assert s.maximum == 6
        assert s.p50 == 4

    def test_stdev_matches_sample_stdev(self):
        s = summarize([1, 2, 3, 4])
        expected = math.sqrt(sum((x - 2.5) ** 2 for x in [1, 2, 3, 4]) / 3)
        assert s.stdev == pytest.approx(expected)

    def test_single_value_has_zero_stdev(self):
        s = summarize([42])
        assert s.stdev == 0.0
        assert s.p99 == 42

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_accepts_generator(self):
        s = summarize(x for x in range(10))
        assert s.count == 10

    def test_str_is_readable(self):
        text = str(summarize([1.0, 2.0]))
        assert "n=2" in text and "mean=" in text

    def test_summary_is_frozen(self):
        s = summarize([1])
        with pytest.raises(AttributeError):
            s.mean = 0  # type: ignore[misc]

    def test_summary_dataclass_fields(self):
        s = Summary(1, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0)
        assert s.count == 1
