"""Unit tests for repro.arrayops."""

import numpy as np
import pytest

from repro.arrayops import (
    alternate_on_switch,
    expand_by_segment,
    segment_starts,
    segmented_cumsum,
    segmented_running_max,
    stable_client_order,
    unique_integers,
)
from repro.rng import make_rng


class TestSegmentStarts:
    def test_basic(self):
        assert segment_starts([2, 3, 1]).tolist() == [0, 2, 5]

    def test_with_empty_segments(self):
        assert segment_starts([0, 2, 0, 1]).tolist() == [0, 0, 2, 2]

    def test_empty(self):
        assert segment_starts([]).size == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            segment_starts([1, -1])


class TestExpandBySegment:
    def test_basic(self):
        out = expand_by_segment([10.0, 20.0], [2, 3])
        assert out.tolist() == [10.0, 10.0, 20.0, 20.0, 20.0]

    def test_zero_length_segment(self):
        out = expand_by_segment([1.0, 2.0, 3.0], [1, 0, 2])
        assert out.tolist() == [1.0, 3.0, 3.0]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            expand_by_segment([1.0], [1, 2])


class TestSegmentedCumsum:
    def test_docstring_example(self):
        out = segmented_cumsum([1, 2, 3, 4, 5], [2, 3])
        assert out.tolist() == [1.0, 3.0, 3.0, 7.0, 12.0]

    def test_exclusive(self):
        out = segmented_cumsum([1, 2, 3, 4, 5], [2, 3], exclusive=True)
        assert out.tolist() == [0.0, 1.0, 0.0, 3.0, 7.0]

    def test_single_segment_matches_cumsum(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0]
        out = segmented_cumsum(values, [5])
        assert out.tolist() == np.cumsum(values).tolist()

    def test_all_singleton_segments(self):
        values = [3.0, 1.0, 4.0]
        out = segmented_cumsum(values, [1, 1, 1])
        assert out.tolist() == values

    def test_empty_segments_interleaved(self):
        out = segmented_cumsum([1.0, 2.0], [0, 1, 0, 1, 0])
        assert out.tolist() == [1.0, 2.0]

    def test_empty_input(self):
        assert segmented_cumsum([], []).size == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            segmented_cumsum([1.0, 2.0], [3])


class TestSegmentedRunningMax:
    def test_docstring_example(self):
        out = segmented_running_max([1, 3, 2, 5, 4], [3, 2])
        assert out.tolist() == [1.0, 3.0, 3.0, 5.0, 5.0]

    def test_restarts_at_boundaries(self):
        out = segmented_running_max([9.0, 1.0, 2.0], [1, 2])
        assert out.tolist() == [9.0, 1.0, 2.0]

    def test_single_segment_matches_accumulate(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]
        out = segmented_running_max(values, [7])
        assert out.tolist() == np.maximum.accumulate(values).tolist()

    def test_all_singleton_segments(self):
        values = [3.0, 1.0, 4.0]
        out = segmented_running_max(values, [1, 1, 1])
        assert out.tolist() == values

    def test_empty_segments_interleaved(self):
        out = segmented_running_max([2.0, 1.0], [0, 1, 0, 1, 0])
        assert out.tolist() == [2.0, 1.0]

    def test_negative_values(self):
        out = segmented_running_max([-5.0, -7.0, -1.0], [3])
        assert out.tolist() == [-5.0, -5.0, -1.0]

    def test_empty_input(self):
        out = segmented_running_max([], [])
        assert out.size == 0
        assert out.dtype == np.float64

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            segmented_running_max([1.0, 2.0], [3])

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            segmented_running_max([1.0], [2, -1])


@pytest.mark.parametrize("n_clients", [1, 256, 257, 65536, 65537])
def test_stable_client_order_at_key_widths(n_clients):
    """The narrowed key never wraps: each width's largest client sorts
    last, and ties keep their positions."""
    client = make_rng(n_clients).integers(0, n_clients, size=5000)
    client[::97] = n_clients - 1
    np.testing.assert_array_equal(stable_client_order(client, n_clients),
                                  np.argsort(client, kind="stable"))


class TestAlternateOnSwitch:
    def test_no_switches_keeps_first_value(self):
        out = alternate_on_switch([False] * 4, [4], first_value=[1],
                                  n_choices=2)
        assert out.tolist() == [1, 1, 1, 1]

    def test_switch_flips_state(self):
        out = alternate_on_switch([False, True, False, True], [4],
                                  first_value=[0], n_choices=2)
        assert out.tolist() == [0, 1, 1, 0]

    def test_first_element_switch_ignored(self):
        out = alternate_on_switch([True, False], [2], first_value=[0],
                                  n_choices=2)
        assert out.tolist() == [0, 0]

    def test_segments_independent(self):
        out = alternate_on_switch([False, True, False, False], [2, 2],
                                  first_value=[0, 1], n_choices=2)
        assert out.tolist() == [0, 1, 1, 1]

    def test_three_choices_wrap(self):
        out = alternate_on_switch([False, True, True, True], [4],
                                  first_value=[2], n_choices=3)
        assert out.tolist() == [2, 0, 1, 2]

    def test_invalid_choices(self):
        with pytest.raises(ValueError):
            alternate_on_switch([False], [1], first_value=[0], n_choices=0)


class TestUniqueIntegers:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 5000])
    @pytest.mark.parametrize("span", [1, 3, 1000, 2 ** 62])
    def test_equals_numpy_unique(self, n, span):
        values = make_rng(n + span % 97).integers(-span, span, n)
        got = unique_integers(values)
        want = np.unique(values, return_index=True, return_inverse=True,
                         return_counts=True)
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a, b)
