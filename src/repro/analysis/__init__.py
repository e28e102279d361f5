"""Measurement-statistics toolkit used by the characterization layers.

Each module corresponds to a family of figures in the paper:

* :mod:`~repro.analysis.marginals` — the three-panel frequency / CDF / CCDF
  marginal views (Figures 3, 5, 6, 11-15, 17, 19, 20);
* :mod:`~repro.analysis.concurrency` — active-entity counting ``c(t)``
  (Figures 3, 15) and the live fan-out rule every egress model counts;
* :mod:`~repro.analysis.timeseries` — 15-minute binning and folding modulo
  day/week (Figures 4, 16, 18);
* :mod:`~repro.analysis.autocorrelation` — the ACF of binned counts
  (Figure 8);
* :mod:`~repro.analysis.correlation` — conditional means and correlation
  strength (Figure 10);
* :mod:`~repro.analysis.ranks` — rank-frequency profiles (Figures 2, 7).
"""

from .autocorrelation import acf, dominant_period
from .binning import linear_bins, log_bins, logspaced_indices
from .concurrency import mean_concurrency_bins, sampled_concurrency
from .correlation import binned_conditional_mean, pearson_r, variance_explained_by_bins
from .marginals import Marginal, binned_frequency
from .multicast import MulticastComparison, compare_unicast_multicast
from .ranks import group_counts, rank_frequency, share_by_key
from .selfsimilarity import hurst_aggregate_variance, hurst_rescaled_range
from .timeseries import binned_mean_of_events, binned_series, fold_series

__all__ = [
    "Marginal",
    "MulticastComparison",
    "acf",
    "compare_unicast_multicast",
    "hurst_aggregate_variance",
    "hurst_rescaled_range",
    "binned_conditional_mean",
    "binned_frequency",
    "binned_mean_of_events",
    "binned_series",
    "dominant_period",
    "fold_series",
    "group_counts",
    "linear_bins",
    "log_bins",
    "logspaced_indices",
    "mean_concurrency_bins",
    "pearson_r",
    "rank_frequency",
    "sampled_concurrency",
    "share_by_key",
    "variance_explained_by_bins",
]
