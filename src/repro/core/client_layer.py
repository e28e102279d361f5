"""Client-layer characterization (Section 3 of the paper).

Covers: client topological/geographical diversity (Figure 2), the
concurrency profile ``c(t)`` and its temporal structure (Figures 3, 4, 8),
client interarrival times (Figure 5), the piecewise-stationary Poisson
arrival model (Figure 6, via the fitted diurnal profile), and the Zipf-like
client interest profile (Figure 7).

"Clients active at time t" means clients with an ongoing *session*, so this
layer is computed on top of the sessionization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._typing import FloatArray, IntArray
from ..analysis.autocorrelation import acf, dominant_period
from ..analysis.concurrency import mean_concurrency_bins, sampled_concurrency
from ..analysis.ranks import rank_frequency, shares_of_counts
from ..analysis.timeseries import fold_series
from ..distributions.fitting import (
    DiurnalFit,
    ZipfFit,
    fit_diurnal_profile,
    fit_zipf_rank,
)
from ..trace.store import Trace
from ..units import DAY, FIFTEEN_MINUTES, MINUTE, WEEK
from .sessionizer import Sessions


@dataclass(frozen=True)
class TopologyProfile:
    """Client diversity over ASes and countries (Figure 2).

    Attributes
    ----------
    as_transfer_shares:
        Fraction of transfers per AS, sorted descending (rank order).
    as_ip_shares:
        Fraction of distinct IPs per AS, sorted descending.
    country_shares:
        ``(country, fraction of transfers)`` pairs, sorted descending.
    n_ases, n_ips, n_countries:
        Distinct counts over clients that appear in the trace.
    """

    as_transfer_shares: FloatArray = field(repr=False)
    as_ip_shares: FloatArray = field(repr=False)
    country_shares: list[tuple[str, float]]
    n_ases: int
    n_ips: int
    n_countries: int


@dataclass(frozen=True)
class ClientLayerCharacterization:
    """All client-layer measurements and fits.

    Attributes
    ----------
    concurrency_samples:
        Active-client counts sampled every ``concurrency_step`` seconds
        (Figure 3's marginal is over these samples).
    concurrency_step:
        Sampling period of ``concurrency_samples``.
    concurrency_bins:
        Time-weighted mean active clients per 15-minute bin (Figure 4 left).
    weekly_fold, daily_fold:
        ``concurrency_bins`` folded modulo one week / one day
        (Figure 4 center / right).
    acf_values:
        Autocorrelation of ``concurrency_samples`` (Figure 8); with the
        default one-minute step, lags are in minutes.
    acf_dominant_lag:
        Lag of the strongest ACF peak (1440 for a diurnal workload).
    interarrivals:
        Client (session) interarrival times (Figure 5).
    diurnal_fit:
        Fitted daily arrival-rate profile — the non-stationary mean of the
        piecewise-stationary Poisson model (Section 3.4, Figure 6).
    sessions_per_client, transfers_per_client:
        Per-client activity counts over clients appearing in the trace.
    session_interest_fit, transfer_interest_fit:
        Zipf fits of the interest profiles (Figure 7 right / left; the
        paper: alpha 0.4704 and 0.7194).
    topology:
        AS/country diversity (Figure 2).
    """

    concurrency_samples: FloatArray = field(repr=False)
    concurrency_step: float = field(repr=False)
    concurrency_bins: FloatArray = field(repr=False)
    weekly_fold: FloatArray = field(repr=False)
    daily_fold: FloatArray = field(repr=False)
    acf_values: FloatArray = field(repr=False)
    acf_dominant_lag: int = 0
    interarrivals: FloatArray = field(repr=False, default=None)
    diurnal_fit: DiurnalFit = field(repr=False, default=None)
    sessions_per_client: IntArray = field(repr=False, default=None)
    transfers_per_client: IntArray = field(repr=False, default=None)
    session_interest_fit: ZipfFit = None
    transfer_interest_fit: ZipfFit = None
    topology: TopologyProfile = None


def characterize_topology(trace: Trace) -> TopologyProfile:
    """Compute the Figure 2 diversity profile of a trace.

    Transfers are counted once per client (a ``bincount`` of
    ``client_index``); the AS and country tallies then group the active
    clients with those counts as weights.  The keys, the integer-valued
    counts and hence the shares and their tie order are those of
    grouping one key per transfer.
    """
    per_client = trace.transfers_per_client()
    active = np.flatnonzero(per_client)
    transfers = per_client[active]
    clients = trace.clients
    as_keys, as_code = np.unique(clients.as_numbers[active],
                                 return_inverse=True)
    ip_keys, ip_code = np.unique(clients.ips[active], return_inverse=True)
    country_keys, country_code = np.unique(clients.countries[active],
                                           return_inverse=True)

    _, as_transfer_shares = rank_frequency(np.bincount(
        as_code, weights=transfers, minlength=as_keys.size))
    # Distinct IPs per AS: count unique (as, ip) pairs grouped by AS.
    pairs = np.unique(as_code.astype(np.int64) * ip_keys.size + ip_code)
    _, as_ip_shares = rank_frequency(np.bincount(
        pairs // ip_keys.size, minlength=as_keys.size))
    country_shares = shares_of_counts(country_keys, np.bincount(
        country_code, weights=transfers, minlength=country_keys.size))
    return TopologyProfile(
        as_transfer_shares=as_transfer_shares,
        as_ip_shares=as_ip_shares,
        country_shares=country_shares,
        n_ases=int(np.count_nonzero(as_keys > 0)),
        n_ips=int(ip_keys.size),
        n_countries=int(np.count_nonzero(country_keys != "")),
    )


def characterize_client_layer(trace: Trace, sessions: Sessions, *,
                              concurrency_step: float = MINUTE,
                              bin_width: float = FIFTEEN_MINUTES,
                              acf_max_lag_minutes: int = 3 * 1440,
                              diurnal_bins: int = 96
                              ) -> ClientLayerCharacterization:
    """Run the full Section 3 characterization.

    Parameters
    ----------
    trace:
        The sanitized trace.
    sessions:
        Its sessionization (defines when a client counts as active).
    concurrency_step:
        Sampling period for the ``c(t)`` samples and the ACF (one minute
        keeps Figure 8's lag axis in minutes).
    bin_width:
        Aggregation bin for the temporal profiles (the paper: 15 minutes).
    acf_max_lag_minutes:
        Largest ACF lag, in multiples of ``concurrency_step``.
    diurnal_bins:
        Bins per day of the fitted arrival-rate profile (96 = 15-minute).
    """
    extent = trace.extent
    starts = sessions.session_start
    ends = sessions.session_end

    samples = sampled_concurrency(starts, ends, extent=extent,
                                  step=concurrency_step)
    bins = mean_concurrency_bins(starts, ends, extent=extent,
                                 bin_width=bin_width)
    # Folds need whole periods; trim the series to complete bins of period.
    weekly = fold_series(bins, bin_width=bin_width, period=WEEK)
    daily = fold_series(bins, bin_width=bin_width, period=DAY)

    max_lag = min(acf_max_lag_minutes, samples.size - 1)
    acf_values = acf(samples, max_lag)
    lag_floor = max(int(round(18 * 3600 / concurrency_step)), 1)
    if max_lag > lag_floor:
        acf_lag = dominant_period(acf_values, min_lag=lag_floor)
    else:
        acf_lag = dominant_period(acf_values)

    arrivals = sessions.arrival_times()
    in_window = arrivals[(arrivals >= 0) & (arrivals < extent)]
    diurnal = fit_diurnal_profile(in_window, extent, period=DAY,
                                  n_bins=diurnal_bins,
                                  allow_partial_coverage=True)

    sessions_per_client = sessions.sessions_per_client()
    transfers_per_client = trace.transfers_per_client()
    session_fit = fit_zipf_rank(sessions_per_client[sessions_per_client > 0])
    transfer_fit = fit_zipf_rank(transfers_per_client[transfers_per_client > 0])

    return ClientLayerCharacterization(
        concurrency_samples=samples,
        concurrency_step=concurrency_step,
        concurrency_bins=bins,
        weekly_fold=weekly,
        daily_fold=daily,
        acf_values=acf_values,
        acf_dominant_lag=acf_lag,
        interarrivals=sessions.interarrival_times(),
        diurnal_fit=diurnal,
        sessions_per_client=sessions_per_client,
        transfers_per_client=transfers_per_client,
        session_interest_fit=session_fit,
        transfer_interest_fit=transfer_fit,
        topology=characterize_topology(trace),
    )
