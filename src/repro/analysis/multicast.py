"""Unicast-versus-multicast delivery comparison for live workloads.

The paper's server supported multicast but had only unicast enabled
(Section 2.3), so every concurrent viewer of a feed cost a separate
stream — over 8 TB served for content that, multicast, would have been
two streams.  Prior stored-media work (Chesire et al. [11]) studied
multicast savings for streaming workloads; for *live* content the saving
is maximal, because every recipient of a feed is watching the same instant
by definition.

:func:`compare_unicast_multicast` quantifies this on any trace: unicast
egress is the concurrent-transfer count times the encoded rate; multicast
egress is one stream per feed whenever at least one viewer is tuned in —
the count of the feeds' merged intervals
(:func:`~repro.analysis.concurrency.merged_group_intervals`), the same
fan-out rule as the CDN origin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError
from ..trace.store import Trace
from .concurrency import merged_group_intervals, sampled_concurrency


@dataclass(frozen=True)
class MulticastComparison:
    """Egress statistics of unicast versus multicast delivery.

    Attributes
    ----------
    step:
        Sampling period of the underlying series, seconds.
    unicast_mean_bps, unicast_peak_bps:
        Offered unicast egress (mean / peak over the trace).
    multicast_mean_bps, multicast_peak_bps:
        Egress if each feed were delivered as a single multicast stream.
    unicast_bytes, multicast_bytes:
        Total bytes out over the trace under each scheme.
    """

    step: float
    unicast_mean_bps: float
    unicast_peak_bps: float
    multicast_mean_bps: float
    multicast_peak_bps: float
    unicast_bytes: float
    multicast_bytes: float

    @property
    def mean_savings_factor(self) -> float:
        """Unicast/multicast mean egress ratio (the bandwidth saving)."""
        if self.multicast_mean_bps == 0:
            return float("inf") if self.unicast_mean_bps > 0 else 1.0
        return self.unicast_mean_bps / self.multicast_mean_bps

    @property
    def peak_savings_factor(self) -> float:
        """Unicast/multicast peak egress ratio."""
        if self.multicast_peak_bps == 0:
            return float("inf") if self.unicast_peak_bps > 0 else 1.0
        return self.unicast_peak_bps / self.multicast_peak_bps


def compare_unicast_multicast(trace: Trace, *,
                              encoding_rate_bps: float = 300_000.0,
                              step: float = 60.0) -> MulticastComparison:
    """Compare unicast and multicast egress for ``trace``.

    Parameters
    ----------
    trace:
        The live workload.
    encoding_rate_bps:
        CBR stream rate used for both schemes (for VBR content, the mean
        rate is the right comparison basis: both schemes carry the same
        content).
    step:
        Sampling period of the concurrency series.
    """
    if encoding_rate_bps <= 0:
        raise AnalysisError("encoding_rate_bps must be positive")
    if len(trace) == 0:
        raise AnalysisError("cannot compare delivery schemes on an empty trace")
    ends = np.minimum(trace.end, trace.extent)
    merged_s, merged_e = merged_group_intervals(trace.object_id,
                                                trace.start, ends)
    unicast = sampled_concurrency(trace.start, ends, extent=trace.extent,
                                  step=step) * encoding_rate_bps
    multicast = sampled_concurrency(merged_s, merged_e, extent=trace.extent,
                                    step=step) * encoding_rate_bps

    return MulticastComparison(
        step=step,
        unicast_mean_bps=float(unicast.mean()),
        unicast_peak_bps=float(unicast.max()),
        multicast_mean_bps=float(multicast.mean()),
        multicast_peak_bps=float(multicast.max()),
        unicast_bytes=float(unicast.sum() * step / 8.0),
        multicast_bytes=float(multicast.sum() * step / 8.0),
    )
