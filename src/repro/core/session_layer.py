"""Session-layer characterization (Section 4 of the paper).

Covers: the session-count-versus-timeout relationship (Figure 9), session
ON times and their lognormal fit (Figures 10, 11), session OFF times and
their exponential fit (Figure 12), transfers per session and their Zipf fit
(Figure 13), and intra-session transfer interarrivals with their lognormal
fit (Figure 14).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._typing import FloatArray, IntArray
from ..analysis.correlation import binned_conditional_mean, variance_explained_by_bins
from ..distributions.exponential import ExponentialDistribution
from ..distributions.fitting import (
    ZipfFit,
    fit_exponential,
    fit_lognormal,
    fit_zipf_pmf,
)
from ..distributions.goodness import GoodnessOfFit, evaluate_fit
from ..distributions.lognormal import LognormalDistribution
from ..units import DAY, log_display_time
from .sessionizer import Sessions


@dataclass(frozen=True)
class HourOfDayProfile:
    """Conditional mean of a variable given its starting hour (Figure 10).

    Attributes
    ----------
    centers:
        Bin centers in seconds-of-day.
    means:
        Per-hour conditional means (NaN where no observations).
    counts:
        Observations per hour bin.
    variance_explained:
        Correlation ratio: fraction of the variable's variance explained
        by the hour of day.  The paper reads Figure 10 as a "fairly weak
        correlation" — a small value here.
    """

    centers: FloatArray = field(repr=False)
    means: FloatArray = field(repr=False)
    counts: FloatArray = field(repr=False)
    variance_explained: float = 0.0


@dataclass(frozen=True)
class SessionLayerCharacterization:
    """All session-layer measurements and fits.

    Attributes
    ----------
    on_times:
        Session ON times ``l(i)`` in seconds.
    on_fit:
        Lognormal fit of the ON times (the paper: mu 5.23553,
        sigma 1.54432).
    on_gof:
        KS goodness of the ON-time fit.
    on_by_hour:
        Mean ON time by starting hour (Figure 10).
    off_times:
        Session OFF times ``f(i)`` in seconds.
    off_fit:
        Exponential fit of the OFF times (the paper: mean 203,150 s).
        ``None`` when no client has two sessions.
    off_gof:
        KS goodness of the OFF-time fit (``None`` with it).
    transfers_per_session:
        Transfer count of each session.
    transfers_fit:
        Zipf (discrete power law) fit (the paper: alpha 2.70417).
    intra_arrivals:
        Intra-session transfer interarrival times.
    intra_fit:
        Lognormal fit (the paper: mu 4.89991, sigma 1.32074).  ``None``
        when every session has a single transfer.
    """

    on_times: FloatArray = field(repr=False)
    on_fit: LognormalDistribution = None
    on_gof: GoodnessOfFit = None
    on_by_hour: HourOfDayProfile = None
    off_times: FloatArray = field(repr=False, default=None)
    off_fit: ExponentialDistribution | None = None
    off_gof: GoodnessOfFit | None = None
    transfers_per_session: IntArray = field(repr=False, default=None)
    transfers_fit: ZipfFit = None
    intra_arrivals: FloatArray = field(repr=False, default=None)
    intra_fit: LognormalDistribution | None = None


def characterize_session_layer(sessions: Sessions
                               ) -> SessionLayerCharacterization:
    """Run the full Section 4 characterization over a sessionization."""
    on_times = sessions.on_times()
    # The log's one-second resolution produces zero ON times for sessions
    # with one instantaneous transfer; the paper's floor(t)+1 convention
    # keeps them representable.
    on_display = log_display_time(on_times)
    on_fit = fit_lognormal(on_display)
    on_gof = evaluate_fit(on_display, on_fit)

    centers, means, counts = binned_conditional_mean(
        sessions.session_start, on_times, period=DAY, n_bins=24)
    on_by_hour = HourOfDayProfile(
        centers=centers, means=means, counts=counts,
        variance_explained=variance_explained_by_bins(
            sessions.session_start, on_times, period=DAY, n_bins=24))

    off_times = sessions.off_times()
    off_fit = None
    off_gof = None
    if off_times.size >= 2:
        off_fit = fit_exponential(off_times)
        off_gof = evaluate_fit(off_times, off_fit)

    tps = sessions.transfers_per_session
    varied = tps.size > 0 and bool(np.any(tps != tps[0]))
    transfers_fit = fit_zipf_pmf(tps) if varied else None

    intra = sessions.intra_session_interarrivals()
    intra_fit = None
    if intra.size >= 2:
        intra_display = log_display_time(np.maximum(intra, 0.0))
        intra_fit = fit_lognormal(intra_display)

    return SessionLayerCharacterization(
        on_times=on_times,
        on_fit=on_fit,
        on_gof=on_gof,
        on_by_hour=on_by_hour,
        off_times=off_times,
        off_fit=off_fit,
        off_gof=off_gof,
        transfers_per_session=tps,
        transfers_fit=transfers_fit,
        intra_arrivals=intra,
        intra_fit=intra_fit,
    )
