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
a few well-placed relays absorb most of the unicast load.  A relay AS's
origin streams follow the same fan-out rule as the CDN origin and
multicast: the count of
:func:`~repro.analysis.concurrency.merged_group_intervals`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError
from ..trace.store import Trace
from .concurrency import merged_group_intervals, sampled_concurrency


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
    as_numbers, as_index, as_counts = np.unique(
        transfer_as, return_inverse=True, return_counts=True)
    # Stable sort so equal-traffic ASes rank in a platform-independent
    # order (ties fall back to ascending AS number, reversed).
    ranking = np.argsort(as_counts, kind="stable")[::-1]
    ranked_ases = as_numbers[ranking]
    as_rank = np.empty(ranking.size, dtype=np.int64)
    as_rank[ranking] = np.arange(ranking.size, dtype=np.int64)
    transfer_rank = as_rank[as_index]
    feeds, feed_index = np.unique(trace.object_id, return_inverse=True)
    # One origin stream per (relay AS, feed) while any local viewer is on.
    relay_group = transfer_rank * np.int64(feeds.size) + feed_index
    ends = np.minimum(trace.end, trace.extent)

    direct_mean = float(sampled_concurrency(
        trace.start, ends, extent=trace.extent,
        step=step).mean()) * encoding_rate_bps

    results = []
    for k in relay_counts:
        k_eff = min(k, ranked_ases.size)
        relayed = transfer_rank < k_eff
        merged_s, merged_e = merged_group_intervals(
            relay_group[relayed], trace.start[relayed], ends[relayed])
        origin = sampled_concurrency(
            np.concatenate([trace.start[~relayed], merged_s]),
            np.concatenate([ends[~relayed], merged_e]),
            extent=trace.extent, step=step)
        origin_bps = origin * encoding_rate_bps
        results.append(RelayPlacement(
            n_relays=k,
            relay_ases=tuple(int(a) for a in ranked_ases[:k_eff]),
            origin_mean_bps=float(origin_bps.mean()),
            origin_peak_bps=float(origin_bps.max()),
            direct_mean_bps=direct_mean,
        ))
    return results
