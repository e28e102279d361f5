"""Unit tests for the live metrics accumulators."""

import numpy as np
import pytest

from repro.errors import CheckpointError, ServeError
from repro.serve.tracking import (
    BIN_SECONDS as BIN,
    RATE_WINDOW_S,
    WINDOW_BINS,
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
    start = BIN * np.asarray([0.0, 1.5, 2.0, 2.0, 5.9, 6.0])
    end = BIN * np.asarray([3.0, 2.5, 7.0, 2.1, 6.1, 9.5])
    tracker = ConcurrencyTracker()
    tracker.observe(start, end)
    bins, counts = tracker.curve(last_bins=32)
    assert bins.size == counts.size == 32
    for b, c in zip(bins.tolist(), counts.tolist(), strict=True):
        assert c == brute_force_concurrency(start, end, BIN, int(b // BIN))
    frontier_bin = int(np.floor(end.max() / BIN)) + 1
    assert tracker.current() == brute_force_concurrency(
        start, end, BIN, frontier_bin)
    peaks = [brute_force_concurrency(start, end, BIN, b)
             for b in range(frontier_bin + 1)]
    assert tracker.peak() == max(peaks)


def test_concurrency_order_insensitive_within_window():
    start = np.linspace(0.0, 20.0 * BIN, 40, dtype=np.float64)
    end = start + np.linspace(BIN, 8.0 * BIN, 40, dtype=np.float64)
    a = ConcurrencyTracker()
    b = ConcurrencyTracker()
    a.observe(start, end)
    order = np.argsort(end, kind="stable")[::-1]
    for k in order.tolist():
        b.observe(start[k:k + 1], end[k:k + 1])
    assert a.current() == b.current()
    assert a.peak() == b.peak()
    np.testing.assert_array_equal(a.curve(64)[1], b.curve(64)[1])


def test_concurrency_folds_expired_bins_into_base():
    tracker = ConcurrencyTracker()
    tracker.observe(np.asarray([0.0]), np.asarray([10.0 * BIN]))
    # Advance far past the window: counts must stay exact (the expired
    # +1/-1 pair folds into the base without leaking).
    later = (WINDOW_BINS + 100) * BIN
    tracker.observe(np.asarray([later]), np.asarray([later + BIN / 2]))
    assert tracker.n_observed == 2
    # The frontier bin sits one past the latest end, where c(t) == 0.
    assert tracker.current() == 0
    assert tracker.peak() == 1


def test_concurrency_checkpoint_round_trip():
    # The sessions span more than the window, so the ring has wrapped.
    start = np.linspace(0.0, 2.0 * WINDOW_BINS * BIN, 30, dtype=np.float64)
    end = start + 7.0 * BIN
    tracker = ConcurrencyTracker()
    tracker.observe(start, end)
    restored = ConcurrencyTracker()
    restored.restore(tracker.state_meta(), tracker.state_arrays())
    assert restored.current() == tracker.current()
    assert restored.peak() == tracker.peak()
    np.testing.assert_array_equal(restored.curve(WINDOW_BINS)[1],
                                  tracker.curve(WINDOW_BINS)[1])


def test_concurrency_restore_rejects_mismatched_binning():
    tracker = ConcurrencyTracker()
    meta, arrays = tracker.state_meta(), tracker.state_arrays()
    with pytest.raises(CheckpointError, match="window_bins"):
        ConcurrencyTracker().restore(dict(meta, window_bins=16), arrays)
    with pytest.raises(CheckpointError, match="bin_seconds"):
        ConcurrencyTracker().restore(dict(meta, bin_seconds=1.0), arrays)


def test_concurrency_rejects_bad_construction():
    # The binning is fixed: the tracker takes no binning arguments.
    with pytest.raises(TypeError):
        ConcurrencyTracker(bin_seconds=0.0)
    with pytest.raises(TypeError):
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
    assert RATE_WINDOW_S == 10.0
    meter = RateMeter()
    meter.add(0.0, 50)
    meter.add(5.0, 50)
    assert meter.rate(5.0) == pytest.approx(10.0)
    # The t=0 bucket falls out of the window ending at 12.
    assert meter.rate(12.0) == pytest.approx(5.0)
    assert meter.rate(100.0) == 0.0
    assert meter.total == 100


def test_rate_meter_rejects_bad_window():
    # The window is fixed: the meter takes no window argument.
    with pytest.raises(TypeError):
        RateMeter(window=0.0)
