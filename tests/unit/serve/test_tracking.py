"""Unit tests for the live metrics accumulators."""

import numpy as np
import pytest

from repro.errors import ServeError
from repro.serve.tracking import (
    ConcurrencyTracker,
    LatencyHistogram,
    RateMeter,
)

# ----------------------------------------------------------------------
# ConcurrencyTracker
# ----------------------------------------------------------------------
def brute_force_concurrency(start, end, bin_seconds, at_bin):
    """Sessions active in ``at_bin``: start bin <= b <= end bin."""
    start_bin = np.floor_divide(start, bin_seconds).astype(np.int64)
    end_bin = np.floor_divide(end, bin_seconds).astype(np.int64)
    return int(np.count_nonzero((start_bin <= at_bin) & (end_bin >= at_bin)))


def test_concurrency_matches_brute_force_within_window():
    start = np.asarray([0.0, 1.5, 2.0, 2.0, 5.9, 6.0], dtype=np.float64)
    end = np.asarray([3.0, 2.5, 7.0, 2.1, 6.1, 9.5], dtype=np.float64)
    tracker = ConcurrencyTracker(bin_seconds=1.0, window_bins=32)
    tracker.observe(start, end)
    bins, counts = tracker.curve(last_bins=32)
    assert bins.size == counts.size
    for b, c in zip(bins.tolist(), counts.tolist(), strict=True):
        assert c == brute_force_concurrency(start, end, 1.0, int(b))
    frontier_bin = int(np.floor(end.max())) + 1
    assert tracker.current() == brute_force_concurrency(
        start, end, 1.0, frontier_bin)
    peaks = [brute_force_concurrency(start, end, 1.0, b)
             for b in range(frontier_bin + 1)]
    assert tracker.peak() == max(peaks)


def test_concurrency_order_insensitive_within_window():
    start = np.linspace(0.0, 20.0, 40, dtype=np.float64)
    end = start + np.linspace(1.0, 8.0, 40, dtype=np.float64)
    a = ConcurrencyTracker(bin_seconds=2.0, window_bins=64)
    b = ConcurrencyTracker(bin_seconds=2.0, window_bins=64)
    a.observe(start, end)
    order = np.argsort(end, kind="stable")[::-1]
    for k in order.tolist():
        b.observe(start[k:k + 1], end[k:k + 1])
    assert a.current() == b.current()
    assert a.peak() == b.peak()
    np.testing.assert_array_equal(a.curve(64)[1], b.curve(64)[1])


def test_concurrency_folds_expired_bins_into_base():
    tracker = ConcurrencyTracker(bin_seconds=1.0, window_bins=4)
    tracker.observe(np.asarray([0.0], dtype=np.float64),
                    np.asarray([10.0], dtype=np.float64))
    # Advance far past the window: counts must stay exact (the expired
    # +1/-1 pair folds into the base without leaking).
    tracker.observe(np.asarray([100.0], dtype=np.float64),
                    np.asarray([100.5], dtype=np.float64))
    assert tracker.n_observed == 2
    # The frontier bin sits one past the latest end, where c(t) == 0.
    assert tracker.current() == 0
    assert tracker.peak() == 1


def test_concurrency_checkpoint_round_trip():
    start = np.linspace(0.0, 50.0, 30, dtype=np.float64)
    end = start + 7.0
    tracker = ConcurrencyTracker(bin_seconds=5.0, window_bins=8)
    tracker.observe(start, end)
    restored = ConcurrencyTracker(bin_seconds=5.0, window_bins=8)
    restored.restore(tracker.state_meta(), tracker.state_arrays())
    assert restored.current() == tracker.current()
    assert restored.peak() == tracker.peak()
    np.testing.assert_array_equal(restored.curve(8)[1], tracker.curve(8)[1])


def test_concurrency_restore_rejects_mismatched_binning():
    tracker = ConcurrencyTracker(bin_seconds=5.0, window_bins=8)
    meta, arrays = tracker.state_meta(), tracker.state_arrays()
    with pytest.raises(ServeError):
        ConcurrencyTracker(bin_seconds=5.0, window_bins=16).restore(
            meta, arrays)
    with pytest.raises(ServeError):
        ConcurrencyTracker(bin_seconds=1.0, window_bins=8).restore(
            meta, arrays)


def test_concurrency_rejects_bad_construction():
    with pytest.raises(ServeError):
        ConcurrencyTracker(bin_seconds=0.0)
    with pytest.raises(ServeError):
        ConcurrencyTracker(window_bins=0)


# ----------------------------------------------------------------------
# LatencyHistogram
# ----------------------------------------------------------------------
def test_latency_histogram_quantiles_bound_the_data():
    histogram = LatencyHistogram()
    values = np.logspace(-5, 0, 200, dtype=np.float64)
    histogram.observe_many(values)
    for v in (1e-4, 2.5e-3):
        histogram.observe(v)
    assert histogram.count == 202
    exact_p99 = np.quantile(np.concatenate(
        (values, np.asarray([1e-4, 2.5e-3], dtype=np.float64))), 0.99)
    # The readout is the bin's upper edge: an upper bound within one
    # log-spaced bin (edges are a factor 10**0.1 apart).
    assert histogram.p99 >= exact_p99
    assert histogram.p99 <= exact_p99 * 10 ** 0.1 * 1.0001
    assert histogram.p50 >= np.quantile(values, 0.5) * 0.9


def test_latency_histogram_empty_and_errors():
    histogram = LatencyHistogram()
    assert histogram.p50 == 0.0
    assert histogram.p99 == 0.0
    histogram.observe(0.01)
    with pytest.raises(ServeError):
        histogram.quantile(0.0)
    with pytest.raises(ServeError):
        histogram.quantile(1.5)


# ----------------------------------------------------------------------
# RateMeter
# ----------------------------------------------------------------------
def test_rate_meter_windows_and_prunes():
    meter = RateMeter(window=10.0)
    meter.add(0.0, 50)
    meter.add(5.0, 50)
    assert meter.rate(5.0) == pytest.approx(10.0)
    # The t=0 bucket falls out of the window ending at 12.
    assert meter.rate(12.0) == pytest.approx(5.0)
    assert meter.rate(100.0) == 0.0
    assert meter.total == 100


def test_rate_meter_rejects_bad_window():
    with pytest.raises(ServeError):
        RateMeter(window=0.0)
