"""CDN relay placement analysis for live workloads.

The paper motivates live-workload characterization with capacity planning
for "live content delivery infrastructures (e.g., servers, network, CDN)"
(Section 1).  For live streams, a relay placed inside a client autonomous
system converts that AS's viewers into a single origin stream per feed —
IP-level multicast without multicast, which is how live CDNs actually
worked.

:func:`relay_placement_curve` quantifies the planning question: origin
egress as a function of how many of the top ASes get relays.  Because AS
sizes are Zipf (Figure 2), the curve has the classic concave shape —
a few well-placed relays absorb most of the unicast load.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._typing import FloatArray
from ..errors import AnalysisError
from ..trace.store import Trace
from .concurrency import sampled_concurrency


@dataclass(frozen=True)
class RelayPlacement:
    """Origin egress under one relay deployment.

    Attributes
    ----------
    n_relays:
        Number of relay-equipped ASes (the largest by transfer count).
    relay_ases:
        The AS numbers chosen.
    origin_mean_bps, origin_peak_bps:
        Origin egress with the relays in place: one stream per
        (relay, feed) with local viewers, plus direct unicast for
        everyone outside relay ASes.
    direct_mean_bps:
        The no-relay (all-unicast) mean egress, for the savings ratio.
    """

    n_relays: int
    relay_ases: tuple[int, ...]
    origin_mean_bps: float
    origin_peak_bps: float
    direct_mean_bps: float

    @property
    def savings_factor(self) -> float:
        """All-unicast mean egress over relayed mean egress."""
        if self.origin_mean_bps == 0:
            return float("inf") if self.direct_mean_bps > 0 else 1.0
        return self.direct_mean_bps / self.origin_mean_bps


def relay_placement_curve(trace: Trace, relay_counts: list[int], *,
                          encoding_rate_bps: float = 300_000.0,
                          step: float = 60.0) -> list[RelayPlacement]:
    """Origin egress for each relay deployment size in ``relay_counts``.

    For a deployment of size ``k``, the ``k`` ASes with the most transfers
    receive relays.  At each sample time the origin then serves:

    * one stream per (relay AS, feed) with at least one active viewer, and
    * one stream per active transfer from every other AS.

    Parameters
    ----------
    trace:
        The live workload (client AS annotations required).
    relay_counts:
        Deployment sizes to evaluate (0 = all unicast).
    encoding_rate_bps:
        Stream rate used for every delivery leg.
    step:
        Sampling period of the underlying concurrency series.
    """
    if len(trace) == 0:
        raise AnalysisError("cannot analyze an empty trace")
    if encoding_rate_bps <= 0:
        raise AnalysisError("encoding_rate_bps must be positive")
    if any(k < 0 for k in relay_counts):
        raise AnalysisError("relay counts must be non-negative")

    transfer_as = trace.clients.as_numbers[trace.client_index]
    as_numbers, as_counts = np.unique(transfer_as, return_counts=True)
    # Stable sort so equal-traffic ASes rank in a platform-independent
    # order (ties fall back to ascending AS number, reversed).
    ranked_ases = as_numbers[np.argsort(as_counts, kind="stable")[::-1]]

    # Per-(AS, feed) concurrency for the ASes any deployment could touch;
    # everything else only ever needs its total concurrency.
    max_relays = min(max(relay_counts, default=0), ranked_ases.size)
    candidate_ases = ranked_ases[:max_relays]
    ends = np.minimum(trace.end, trace.extent)

    total_unicast = sampled_concurrency(trace.start, ends,
                                        extent=trace.extent, step=step)
    direct_mean = float(total_unicast.mean()) * encoding_rate_bps

    feeds = np.unique(trace.object_id)
    per_as_feed: dict[tuple[int, int], FloatArray] = {}
    per_as_total: dict[int, FloatArray] = {}
    for as_number in candidate_ases:
        as_mask = transfer_as == as_number
        per_as_total[int(as_number)] = sampled_concurrency(
            trace.start[as_mask], ends[as_mask], extent=trace.extent,
            step=step)
        for feed in feeds:
            mask = as_mask & (trace.object_id == feed)
            per_as_feed[(int(as_number), int(feed))] = sampled_concurrency(
                trace.start[mask], ends[mask], extent=trace.extent,
                step=step)

    results = []
    for k in relay_counts:
        k_eff = min(k, ranked_ases.size)
        chosen = tuple(int(a) for a in ranked_ases[:k_eff])
        origin = total_unicast.astype(np.float64).copy()
        for as_number in chosen:
            # Replace this AS's unicast load with one stream per live feed.
            origin -= per_as_total[as_number]
            for feed in feeds:
                origin += (per_as_feed[(as_number, int(feed))] > 0)
        origin_bps = origin * encoding_rate_bps
        results.append(RelayPlacement(
            n_relays=k,
            relay_ases=chosen,
            origin_mean_bps=float(origin_bps.mean()),
            origin_peak_bps=float(origin_bps.max()),
            direct_mean_bps=direct_mean,
        ))
    return results
