"""Active-entity counting: the paper's ``c(t)`` concurrency profiles.

Section 3.2 studies the number of concurrently active clients and
Section 5.1 the number of concurrent transfers.  Both reduce to the same
computation over a set of ``[start, end)`` intervals: the step function
counting how many intervals cover time ``t``.

Two views are provided: point samples of the step function on a regular
grid (:func:`sampled_concurrency`, used for marginal distributions and
autocorrelation) and exact time-weighted bin averages
(:func:`mean_concurrency_bins`, used for the 15-minute-bin figures).
:func:`active_counts` is the counting kernel at arbitrary query times.

Live fan-out — one stream per group (a feed, an ``(edge, feed)`` or an
``(AS, feed)`` pair) while any member is active — is the count of
:func:`merged_group_intervals`: every egress model (unicast against
multicast, relay placement, the CDN origin) samples that count.
"""

from __future__ import annotations

import numpy as np

from .._typing import ArrayLike, FloatArray, IntArray, as_float_array
from ..errors import AnalysisError


def _validate_intervals(starts: ArrayLike, ends: ArrayLike
                        ) -> tuple[FloatArray, FloatArray]:
    s = as_float_array(starts, name="starts")
    e = as_float_array(ends, name="ends")
    if s.size != e.size:
        raise AnalysisError(
            f"starts and ends must have equal length ({s.size} != {e.size})")
    if s.size and np.any(e < s):
        raise AnalysisError("every interval end must be >= its start")
    return s, e


def check_step(step: float) -> None:
    """Refuse a sampling period that is not positive (``AnalysisError``)."""
    if step <= 0:
        raise AnalysisError(f"step must be positive, got {step}")


def sampled_concurrency(starts: ArrayLike, ends: ArrayLike, *,
                        extent: float, step: float = 60.0) -> FloatArray:
    """Sample the active-interval count at times ``0, step, 2*step, ...``.

    An interval ``[s, e)`` is active at ``t`` when ``s <= t < e``.  Returns
    one count per sample point in ``[0, extent)``.

    Parameters
    ----------
    starts, ends:
        Interval endpoints.
    extent:
        Observation window length.
    step:
        Sampling period in seconds (default one minute, which makes the
        Figure 8 autocorrelation lags directly interpretable in minutes).
    """
    if extent <= 0:
        raise AnalysisError(f"extent must be positive, got {extent}")
    check_step(step)
    s, e = _validate_intervals(starts, ends)
    n_samples = int(np.ceil(extent / step))
    times = np.arange(n_samples, dtype=np.float64) * step
    return active_counts(s, e, times).astype(np.float64)


def active_counts(starts: ArrayLike, ends: ArrayLike,
                  times: ArrayLike) -> IntArray:
    """Number of intervals ``[s, e)`` active at each query time.

    An interval is active at ``t`` when ``s <= t < e``; a zero-length
    interval is never active.  The inputs are not validated.
    """
    t = np.asarray(times, dtype=np.float64)
    started = np.searchsorted(np.sort(np.asarray(starts, dtype=np.float64)),
                              t, side="right")
    ended = np.searchsorted(np.sort(np.asarray(ends, dtype=np.float64)),
                            t, side="right")
    return (started - ended).astype(np.int64, copy=False)


def merged_group_intervals(group: IntArray, start: FloatArray,
                           end: FloatArray
                           ) -> tuple[FloatArray, FloatArray]:
    """Disjoint intervals covering each group's union of leg intervals.

    Walk the legs sorted by (group, start) keeping each group's running
    max of ends: a leg opens a merged interval when it is its group's
    first or starts strictly after every earlier leg of the group has
    ended, so back-to-back legs (one viewer leaves as another joins)
    coalesce into one unbroken origin stream.  The per-group running
    max is one cumulative max over integer keys ``group rank * n + end
    rank`` — every key of a later group exceeds every key of an earlier
    one, so no group sees another's ends.  Intervals come out ordered
    by group, then start.
    """
    keep = end > start
    group, start, end = group[keep], start[keep], end[keep]
    n = group.size
    if n == 0:
        return np.zeros(0), np.zeros(0)
    order = np.lexsort((start, group))
    g_o, s_o = group[order], start[order]
    end_order = np.argsort(end, kind="stable")
    end_rank = np.empty(n, dtype=np.int64)
    end_rank[end_order] = np.arange(n, dtype=np.int64)
    first = np.empty(n, dtype=np.bool_)
    first[0] = True
    first[1:] = g_o[1:] != g_o[:-1]
    base = (np.cumsum(first) - 1) * np.int64(n)
    run_rank = np.maximum.accumulate(base + end_rank[order]) - base
    run_end = end[end_order][run_rank]
    opens = first.copy()
    opens[1:] |= s_o[1:] > run_end[:-1]
    closes = np.empty(n, dtype=np.bool_)
    closes[:-1] = opens[1:]
    closes[-1] = True
    return s_o[opens], run_end[closes]


def mean_concurrency_bins(starts: ArrayLike, ends: ArrayLike, *,
                          extent: float, bin_width: float) -> FloatArray:
    """Exact time-weighted mean active count per bin.

    For each bin ``[k*w, (k+1)*w)`` the mean of the concurrency step
    function is the total interval-time overlapping the bin divided by the
    bin width.  Computed exactly in O(n + bins) by accumulating, for each
    interval, its overlap with every bin it touches via a difference-array
    scheme (constant 1 between the bins fully covered, partial credit at
    the two ends).

    Returns one mean per bin covering ``[0, extent)``; the final partial
    bin (if any) is normalized by its true width.
    """
    if extent <= 0:
        raise AnalysisError(f"extent must be positive, got {extent}")
    if bin_width <= 0:
        raise AnalysisError(f"bin_width must be positive, got {bin_width}")
    s, e = _validate_intervals(starts, ends)
    s = np.clip(s, 0.0, extent)
    e = np.clip(e, 0.0, extent)
    n_bins = int(np.ceil(extent / bin_width))
    # Guard against float error in extent / bin_width overshooting an
    # integer (e.g. 0.9 / 0.3 -> 3.0000000000000004): np.ceil then mints
    # an extra bin of near-zero width whose normalization divides by
    # ~1e-16 and reports an absurd mean.  Collapse such a sliver into the
    # previous bin.
    if n_bins > 1 and extent - (n_bins - 1) * bin_width < 1e-9 * bin_width:
        n_bins -= 1
    overlap = np.zeros(n_bins + 1)

    first = np.floor(s / bin_width).astype(np.int64)
    last = np.floor(e / bin_width).astype(np.int64)
    first = np.clip(first, 0, n_bins - 1)
    last = np.clip(last, 0, n_bins - 1)

    same = first == last
    # Intervals within a single bin: overlap is simply their length.
    np.add.at(overlap, first[same], (e - s)[same])
    # Intervals spanning bins: partial head, partial tail, full middles.
    multi = ~same
    if np.any(multi):
        fs, ls = first[multi], last[multi]
        head = (fs + 1) * bin_width - s[multi]
        tail = e[multi] - ls * bin_width
        np.add.at(overlap, fs, head)
        np.add.at(overlap, ls, tail)
        # Difference array for the fully covered middle bins (fs+1 .. ls-1).
        full = np.zeros(n_bins + 1)
        np.add.at(full, fs + 1, bin_width)
        np.add.at(full, ls, -bin_width)
        overlap += np.cumsum(full)

    widths = np.full(n_bins, bin_width)
    widths[-1] = extent - (n_bins - 1) * bin_width
    return overlap[:n_bins] / widths
