"""Property-based tests of the analysis primitives."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.concurrency import (
    mean_concurrency_bins,
    merged_group_intervals,
    sampled_concurrency,
)
from repro.analysis.marginals import Marginal
from repro.analysis.timeseries import binned_series, fold_series

finite = dict(allow_nan=False, allow_infinity=False)

interval_lists = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=900.0, **finite),
              st.floats(min_value=0.0, max_value=200.0, **finite)),
    min_size=0, max_size=30)

#: Legs of a live fan-out: sparse group ids, and whole-second starts and
#: lengths (zero included) so that back-to-back, overlapping and
#: zero-length legs, and sample times on a leg boundary, are all common.
group_legs = st.lists(
    st.tuples(st.sampled_from([0, 1, 7, 1_000, 2**40]),
              st.integers(min_value=0, max_value=60),
              st.integers(min_value=0, max_value=20)),
    min_size=0, max_size=40)

samples = st.lists(st.floats(min_value=-1e6, max_value=1e6, **finite),
                   min_size=1, max_size=200)


class TestMarginalProperties:
    @given(values=samples)
    @settings(max_examples=150, deadline=None)
    def test_cdf_monotone_ends_at_one(self, values):
        marginal = Marginal(values)
        _, cdf = marginal.cdf()
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[-1] == 1.0

    @given(values=samples)
    @settings(max_examples=150, deadline=None)
    def test_ccdf_starts_at_one_and_positive(self, values):
        marginal = Marginal(values)
        _, ccdf = marginal.ccdf()
        assert ccdf[0] == 1.0
        assert np.all(ccdf > 0)
        assert np.all(np.diff(ccdf) <= 1e-12)

    @given(values=samples)
    @settings(max_examples=150, deadline=None)
    def test_frequency_sums_to_one(self, values):
        _, freq = Marginal(values).frequency()
        np.testing.assert_allclose(float(freq.sum()), 1.0, atol=1e-9)

    @given(values=samples)
    @settings(max_examples=150, deadline=None)
    def test_median_between_extremes(self, values):
        marginal = Marginal(values)
        assert min(values) <= marginal.median() <= max(values)


class TestConcurrencyProperties:
    @given(intervals=interval_lists)
    @settings(max_examples=100, deadline=None)
    def test_sampled_counts_bounded(self, intervals):
        starts = np.asarray([s for s, _ in intervals])
        ends = np.asarray([s + d for s, d in intervals])
        counts = sampled_concurrency(starts, ends, extent=1_200.0, step=7.0)
        assert np.all(counts >= 0)
        assert np.all(counts <= len(intervals))

    @given(intervals=interval_lists)
    @settings(max_examples=100, deadline=None)
    def test_bin_means_conserve_interval_mass(self, intervals):
        starts = np.asarray([s for s, _ in intervals])
        ends = np.asarray([s + d for s, d in intervals])
        extent = 1_200.0
        means = mean_concurrency_bins(starts, ends, extent=extent,
                                      bin_width=100.0)
        clipped = np.clip(ends, 0, extent) - np.clip(starts, 0, extent)
        total = float(np.maximum(clipped, 0).sum())
        np.testing.assert_allclose(float(means.sum() * 100.0), total,
                                   rtol=1e-9, atol=1e-6)

    @given(intervals=interval_lists,
           step=st.floats(min_value=0.5, max_value=30.0, **finite))
    @settings(max_examples=60, deadline=None)
    def test_sampling_agrees_with_definition(self, intervals, step):
        starts = np.asarray([s for s, _ in intervals])
        ends = np.asarray([s + d for s, d in intervals])
        counts = sampled_concurrency(starts, ends, extent=500.0, step=step)
        times = np.arange(counts.size) * step
        for t, count in zip(times[:20], counts[:20], strict=True):
            brute = int(np.sum((starts <= t) & (t < ends)))
            assert count == brute


def _reference_group_activity(group, start, end, times):
    """Number of groups with at least one leg active at each time."""
    active = np.zeros(times.size, dtype=np.int64)
    for g in np.unique(group):
        mine = group == g
        count = ((start[mine, None] <= times)
                 & (times < end[mine, None])).sum(axis=0)
        active += count > 0
    return active


class TestMergedGroupIntervalsProperties:
    @given(legs=group_legs, step=st.sampled_from([0.5, 1.0, 3.0, 7.0]))
    @settings(max_examples=200, deadline=None)
    def test_count_equals_groups_with_an_active_leg(self, legs, step):
        group = np.asarray([g for g, _, _ in legs], dtype=np.int64)
        start = np.asarray([s for _, s, _ in legs], dtype=np.float64)
        end = start + np.asarray([d for _, _, d in legs], dtype=np.float64)
        extent = 100.0
        merged_s, merged_e = merged_group_intervals(group, start, end)
        counts = sampled_concurrency(merged_s, merged_e, extent=extent,
                                     step=step)
        times = np.arange(counts.size) * step
        want = _reference_group_activity(group, start, end, times)
        assert counts.tolist() == want.tolist()


class TestFoldProperties:
    @given(n_periods=st.integers(min_value=1, max_value=6),
           n_phase=st.integers(min_value=1, max_value=10),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_fold_of_periodic_series_is_identity(self, n_periods, n_phase,
                                                 data):
        phase_values = data.draw(st.lists(
            st.floats(min_value=-100.0, max_value=100.0, **finite),
            min_size=n_phase, max_size=n_phase))
        series = np.tile(phase_values, n_periods)
        fold = fold_series(series, bin_width=1.0, period=float(n_phase))
        np.testing.assert_allclose(fold, phase_values, atol=1e-9)

    @given(times=st.lists(st.floats(min_value=0.0, max_value=999.0, **finite),
                          min_size=0, max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_binned_series_conserves_events(self, times):
        counts = binned_series(times, extent=1_000.0, bin_width=37.0)
        assert int(counts.sum()) == len(times)
