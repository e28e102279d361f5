"""Live accumulators behind the metrics endpoint.

Everything in this module is **data-time** driven and wall-clock free:
accumulators consume trace timestamps (and, for rates/latency, explicit
caller-supplied monotonic readings), so their state is a pure function
of the entries pushed into them — which is what lets the service
checkpoint them and lets tests drive them deterministically.

* :class:`ConcurrencyTracker` — the live ``c(t)`` curve as an integer
  delta ring over fixed data-time bins; commutative integer arithmetic
  makes it order-insensitive within its window.
* :class:`LatencyHistogram` — log-spaced ingest-latency histogram with
  quantile readout (p50/p99).
* :class:`RateMeter` — sliding-window event rate over caller-supplied
  monotonic times.
"""

from __future__ import annotations

import numpy as np

from .._typing import FloatArray, IntArray
from ..errors import ServeError
from ..state import DERIVED, Column, Scalar, Schema, Stateful

#: The ``c(t)`` binning: one-minute bins, one day of window.
BIN_SECONDS = 60.0
WINDOW_BINS = 1440

#: The :class:`RateMeter` sliding window, seconds.
RATE_WINDOW_S = 10.0

_EMPTY_FRONTIER = -(1 << 62)


class ConcurrencyTracker(Stateful):
    """Live client concurrency ``c(t)`` over fixed data-time bins.

    Sessions contribute ``+1`` at the bin containing their start and
    ``-1`` at the bin after their end, held in an integer delta ring
    covering the most recent :data:`WINDOW_BINS` bins.  As the time frontier
    advances, expired bins fold into a base count — at which point their
    concurrency value is final and feeds the running peak.  All state is
    integer and the fold order is canonical, so the tracker is exactly
    deterministic for any arrival order within the window; deltas older
    than the window fold straight into the base (counts stay exact, the
    per-bin attribution of such stragglers is lost — the ingest reorder
    bound keeps lateness far below the one-day window).
    """

    #: The fixed binning, checkpointed so that a checkpoint binned any
    #: other way is refused.
    bin_seconds = BIN_SECONDS
    window_bins = WINDOW_BINS

    CHECKPOINT = Schema("concurrency tracker", (
        Scalar("bin_seconds", float, "bin_seconds", DERIVED),
        Scalar("window_bins", int, "window_bins", DERIVED),
        Scalar("base", int, "_base"),
        Scalar("frontier", int, "_frontier"),
        Scalar("peak", int, "_peak"),
        Scalar("n_observed", int, "n_observed"),
        Column("conc_deltas", np.int64, "window_bins", "_deltas"),
    ))

    def __init__(self) -> None:
        self._deltas = np.zeros(self.window_bins, dtype=np.int64)
        self._base = 0
        self._frontier = _EMPTY_FRONTIER
        self._peak = 0
        self.n_observed = 0

    # ------------------------------------------------------------------
    def observe(self, start: FloatArray, end: FloatArray) -> None:
        """Fold a batch of session (or transfer) intervals into ``c(t)``."""
        start = np.asarray(start, dtype=np.float64)
        end = np.asarray(end, dtype=np.float64)
        if start.size == 0:
            return
        start_bin = np.floor_divide(start, self.bin_seconds).astype(np.int64)
        end_bin = np.floor_divide(end, self.bin_seconds).astype(np.int64) + 1
        bins = np.concatenate((start_bin, end_bin))
        signs = np.concatenate((
            np.ones(start_bin.size, dtype=np.int64),
            np.full(end_bin.size, -1, dtype=np.int64)))
        self._advance(int(bins.max()))
        window_start = self._frontier - self.window_bins + 1
        in_window = bins >= window_start
        np.add.at(self._deltas, bins[in_window] % self.window_bins,
                  signs[in_window])
        self._base += int(signs[~in_window].sum())
        self.n_observed += int(start.size)

    def _advance(self, new_frontier: int) -> None:
        """Move the frontier, folding expired bins into the base."""
        if self._frontier == _EMPTY_FRONTIER:
            self._frontier = new_frontier
            return
        if new_frontier <= self._frontier:
            return
        steps = new_frontier - self._frontier
        old_start = self._frontier - self.window_bins + 1
        for b in range(old_start, old_start + min(steps, self.window_bins)):
            slot = b % self.window_bins
            self._base += int(self._deltas[slot])
            self._deltas[slot] = 0
            if self._base > self._peak:
                self._peak = self._base
        if steps > self.window_bins and self._base > self._peak:
            # Bins between the folded window and the new one are empty:
            # c stays at the base there.
            self._peak = self._base
        self._frontier = new_frontier

    # ------------------------------------------------------------------
    def current(self) -> int:
        """Concurrency at the time frontier."""
        return self._base + int(self._deltas.sum())

    def peak(self) -> int:
        """Peak concurrency seen so far (folded bins + current window)."""
        if self._frontier == _EMPTY_FRONTIER:
            return self._peak
        cum = self._base + np.cumsum(self._window_deltas())
        return max(self._peak, int(cum.max()))

    def _window_deltas(self) -> IntArray:
        """The ring in window (ascending-bin) order."""
        window_start = self._frontier - self.window_bins + 1
        slots = (np.arange(window_start,
                           window_start + self.window_bins,
                           dtype=np.int64) % self.window_bins)
        return self._deltas[slots]

    def curve(self, last_bins: int = 60) -> tuple[FloatArray, IntArray]:
        """The trailing ``c(t)`` curve as ``(bin_start_seconds, counts)``."""
        if self._frontier == _EMPTY_FRONTIER:
            return (np.empty(0, dtype=np.float64),
                    np.empty(0, dtype=np.int64))
        last_bins = max(1, min(int(last_bins), self.window_bins))
        counts = self._base + np.cumsum(self._window_deltas())
        window_start = self._frontier - self.window_bins + 1
        bins = (np.arange(window_start, self._frontier + 1,
                          dtype=np.float64) * self.bin_seconds)
        return bins[-last_bins:], counts[-last_bins:].astype(np.int64)


#: Latency histogram support: 1 microsecond to 100 seconds.
_LATENCY_EDGES = np.logspace(-6, 2, 81, dtype=np.float64)


class LatencyHistogram:
    """Log-spaced histogram of ingest latencies with quantile readout.

    Latency is wall-clock territory — the caller measures durations with
    ``time.perf_counter`` and passes the floats in.  The histogram is
    metrics-only state: it is *not* checkpointed (a resumed service
    starts timing afresh).
    """

    def __init__(self) -> None:
        self._edges = _LATENCY_EDGES
        self._counts = np.zeros(self._edges.size + 1, dtype=np.int64)

    @property
    def count(self) -> int:
        """Number of observations."""
        return int(self._counts.sum())

    def observe(self, seconds: float) -> None:
        """Record one latency observation."""
        self._counts[int(np.searchsorted(self._edges, seconds,
                                         side="left"))] += 1

    def observe_many(self, seconds: FloatArray) -> None:
        """Record a batch of latency observations."""
        values = np.asarray(seconds, dtype=np.float64)
        if values.size == 0:
            return
        np.add.at(self._counts,
                  np.searchsorted(self._edges, values, side="left"), 1)

    def quantile(self, q: float) -> float:
        """An upper bound on the ``q``-quantile latency, in seconds.

        Returns the upper edge of the histogram bin holding the
        quantile (0.0 on an empty histogram).
        """
        total = self.count
        if total == 0:
            return 0.0
        if not 0.0 < q <= 1.0:
            raise ServeError(f"quantile must be in (0, 1], got {q}")
        target = int(np.ceil(q * total))
        cumulative = np.cumsum(self._counts)
        bin_index = int(np.searchsorted(cumulative, target, side="left"))
        if bin_index >= self._edges.size:
            return float(self._edges[-1])
        return float(self._edges[bin_index])

    @property
    def p50(self) -> float:
        """Median latency upper bound, seconds."""
        return self.quantile(0.50)

    @property
    def p99(self) -> float:
        """99th-percentile latency upper bound, seconds."""
        return self.quantile(0.99)


class RateMeter:
    """Event rate over the trailing :data:`RATE_WINDOW_S` seconds of
    caller-supplied monotonic times.

    The caller passes readings from a monotonic clock (``loop.time()``
    or ``time.perf_counter``); the meter itself never reads a clock.
    """

    def __init__(self) -> None:
        self._times: list[float] = []
        self._counts: list[int] = []
        self.total = 0

    def add(self, now: float, n: int = 1) -> None:
        """Record ``n`` events at monotonic time ``now``."""
        self._times.append(float(now))
        self._counts.append(int(n))
        self.total += int(n)
        self._prune(now)

    def _prune(self, now: float) -> None:
        cutoff = now - RATE_WINDOW_S
        drop = 0
        while drop < len(self._times) and self._times[drop] < cutoff:
            drop += 1
        if drop:
            del self._times[:drop]
            del self._counts[:drop]

    def rate(self, now: float) -> float:
        """Events per second over the trailing window ending at ``now``."""
        self._prune(now)
        return sum(self._counts) / RATE_WINDOW_S
