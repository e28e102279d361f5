"""Unit tests for active-entity counting."""

import numpy as np
import pytest

from repro.analysis.concurrency import (
    active_counts,
    mean_concurrency_bins,
    sampled_concurrency,
)
from repro.errors import AnalysisError
from repro.rng import make_rng


class TestSampledConcurrency:
    def test_single_interval(self):
        counts = sampled_concurrency([2.0], [5.0], extent=10.0, step=1.0)
        # Active at t in {2, 3, 4}; inactive at 5 (half-open).
        assert counts.tolist() == [0, 0, 1, 1, 1, 0, 0, 0, 0, 0]

    def test_overlap_counts_twice(self):
        counts = sampled_concurrency([0.0, 1.0], [3.0, 4.0], extent=5.0,
                                     step=1.0)
        assert counts.tolist() == [1, 2, 2, 1, 0]

    def test_number_of_samples(self):
        counts = sampled_concurrency([0.0], [1.0], extent=10.0, step=3.0)
        assert counts.size == 4  # ceil(10 / 3)

    def test_empty_intervals(self):
        counts = sampled_concurrency([], [], extent=5.0, step=1.0)
        assert counts.tolist() == [0.0] * 5

    def test_end_before_start_rejected(self):
        with pytest.raises(AnalysisError):
            sampled_concurrency([5.0], [1.0], extent=10.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(AnalysisError):
            sampled_concurrency([1.0, 2.0], [3.0], extent=10.0)

    def test_matches_brute_force(self):
        rng = make_rng(7)
        starts = rng.uniform(0, 100, size=200)
        ends = starts + rng.exponential(10, size=200)
        counts = sampled_concurrency(starts, ends, extent=100.0, step=1.0)
        times = np.arange(100.0)
        brute = np.asarray([(np.sum((starts <= t) & (t < ends)))
                            for t in times], dtype=float)
        np.testing.assert_array_equal(counts, brute)


class TestActiveCounts:
    def test_counts_at_query_times(self):
        starts = np.asarray([0.0, 5.0, 10.0])
        ends = np.asarray([20.0, 8.0, 30.0])
        conc = active_counts(starts, ends, np.asarray([1.0, 6.0, 9.0, 25.0]))
        assert conc.dtype == np.int64
        assert conc.tolist() == [1, 2, 1, 1]


class TestMeanConcurrencyBins:
    def test_single_interval_exact_overlap(self):
        # Interval [1, 5) over bins of width 2 in [0, 6):
        # bin 0 gets 1 s, bin 1 gets 2 s, bin 2 gets 1 s.
        means = mean_concurrency_bins([1.0], [5.0], extent=6.0, bin_width=2.0)
        np.testing.assert_allclose(means, [0.5, 1.0, 0.5])

    def test_interval_within_one_bin(self):
        means = mean_concurrency_bins([0.5], [1.0], extent=4.0, bin_width=2.0)
        np.testing.assert_allclose(means, [0.25, 0.0])

    def test_clipping_to_window(self):
        means = mean_concurrency_bins([-5.0], [100.0], extent=10.0,
                                      bin_width=5.0)
        np.testing.assert_allclose(means, [1.0, 1.0])

    def test_mass_conservation(self):
        rng = make_rng(8)
        starts = rng.uniform(0, 80, size=300)
        ends = np.minimum(starts + rng.exponential(5, size=300), 100.0)
        means = mean_concurrency_bins(starts, ends, extent=100.0,
                                      bin_width=10.0)
        total_time = float((ends - starts).sum())
        assert float(means.sum() * 10.0) == pytest.approx(total_time)

    def test_agrees_with_fine_sampling(self):
        rng = make_rng(9)
        starts = rng.uniform(0, 900, size=500)
        ends = np.minimum(starts + rng.exponential(60, size=500), 1000.0)
        means = mean_concurrency_bins(starts, ends, extent=1000.0,
                                      bin_width=100.0)
        fine = sampled_concurrency(starts, ends, extent=1000.0, step=0.25)
        approx = fine.reshape(10, -1).mean(axis=1)
        np.testing.assert_allclose(means, approx, atol=0.3)

    def test_partial_final_bin_normalized(self):
        # Window of 5 s with 2 s bins: final bin is 1 s wide and fully
        # covered by the interval, so its mean must be 1.0, not 0.5.
        means = mean_concurrency_bins([0.0], [5.0], extent=5.0, bin_width=2.0)
        np.testing.assert_allclose(means, [1.0, 1.0, 1.0])

    def test_float_ratio_overshoot_no_phantom_bin(self):
        # 0.9 / 0.3 = 3.0000000000000004 in binary; np.ceil used to mint
        # a fourth bin of width ~1e-16 whose normalization exploded.
        means = mean_concurrency_bins([0.0], [0.9], extent=0.9,
                                      bin_width=0.3)
        assert means.size == 3
        assert np.all(np.isfinite(means))
        np.testing.assert_allclose(means, [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("extent,bin_width", [
        (0.3, 0.1), (0.9, 0.3), (0.7, 0.1), (2.1, 0.7), (1.2, 0.4),
    ])
    def test_awkward_float_ratios_stay_finite(self, extent, bin_width):
        means = mean_concurrency_bins([0.0], [extent], extent=extent,
                                      bin_width=bin_width)
        expected_bins = round(extent / bin_width)
        assert means.size == expected_bins
        assert np.all(np.isfinite(means))
        np.testing.assert_allclose(means, np.ones(expected_bins))

    def test_mass_conserved_with_collapsed_bin(self):
        rng = make_rng(11)
        starts = rng.uniform(0, 0.8, size=50)
        ends = np.minimum(starts + rng.exponential(0.1, size=50), 0.9)
        means = mean_concurrency_bins(starts, ends, extent=0.9,
                                      bin_width=0.3)
        total_time = float((ends - starts).sum())
        assert float(means.sum() * 0.3) == pytest.approx(total_time)

    def test_genuine_partial_final_bin_kept(self):
        # A real partial bin (half a bin wide) must not be collapsed.
        means = mean_concurrency_bins([0.0], [5.0], extent=5.0,
                                      bin_width=2.0)
        assert means.size == 3

    def test_invalid_extent(self):
        with pytest.raises(AnalysisError):
            mean_concurrency_bins([0.0], [1.0], extent=0.0, bin_width=1.0)
