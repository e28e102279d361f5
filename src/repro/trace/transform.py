"""Trace transformations: windowing.

Real measurement workflows rarely analyze a log whole: the paper itself
works with daily harvests stitched into a 28-day window, and its temporal
figures are computed over sub-windows.  :func:`time_slice` extracts a
window (re-basing timestamps, optionally clipping in-progress transfers at
the edges, as a real collection boundary does), and :func:`daily_slices`
cuts a trace into day-long windows.
"""

from __future__ import annotations

import numpy as np

from ..errors import TraceError
from .store import Trace


def time_slice(trace: Trace, start: float, end: float, *,
               clip: bool = True, rebase: bool = True) -> Trace:
    """Extract the sub-trace of transfers starting in ``[start, end)``.

    Parameters
    ----------
    trace:
        The source trace.
    start, end:
        Window bounds in trace time; must satisfy
        ``0 <= start < end <= trace.extent``.
    clip:
        Truncate transfers that run past ``end`` at the window edge (a
        real collection boundary); with ``False`` they keep their full
        duration, producing the "spanning entry" artifacts of
        Section 2.4.
    rebase:
        Shift timestamps so the window starts at zero and set the extent
        to the window length; with ``False`` original timestamps and
        extent are kept.
    """
    if not 0.0 <= start < end:
        raise TraceError(f"need 0 <= start < end, got [{start}, {end})")
    if end > trace.extent:
        raise TraceError(
            f"window end ({end}) exceeds trace extent ({trace.extent})")
    mask = (trace.start >= start) & (trace.start < end)
    window = trace.filter(mask)
    durations = window.duration
    if clip and len(window):
        durations = np.minimum(durations, end - window.start)
    starts = window.start - start if rebase else window.start
    extent = (end - start) if rebase else trace.extent
    return Trace(
        clients=window.clients,
        client_index=window.client_index,
        object_id=window.object_id,
        start=starts,
        duration=durations,
        bandwidth_bps=window.bandwidth_bps,
        packet_loss=window.packet_loss,
        server_cpu=window.server_cpu,
        status=window.status,
        extent=extent,
    )


def daily_slices(trace: Trace, *, day_seconds: float = 86_400.0) -> list[Trace]:
    """Split a trace into consecutive day-long slices (rebased).

    The final partial day, if any, is included.  Mirrors the paper's
    daily log harvests.
    """
    if day_seconds <= 0:
        raise TraceError("day_seconds must be positive")
    out: list[Trace] = []
    t = 0.0
    while t < trace.extent:
        end = min(t + day_seconds, trace.extent)
        out.append(time_slice(trace, t, end))
        t = end
    return out
