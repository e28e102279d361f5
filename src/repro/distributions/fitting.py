"""Distribution fitting routines used by the characterization pipeline.

The paper's fits are of three kinds, all reproduced here:

* **Lognormal / exponential fits** of marginals (session ON time, transfer
  length, intra-session interarrivals, session OFF time) — implemented as
  maximum-likelihood estimates.
* **Zipf fits** in log-log space, both of rank-frequency profiles
  (client interest, Figure 7) and of probability-mass histograms
  (transfers per session, Figure 13) — implemented as least squares on the
  log-log relationship, which matches the paper's gnuplot-style fits.
* **Tail-index estimates** from the CCDF (transfer interarrivals,
  Figure 17), including the two-regime broken tail — implemented as CCDF
  regression plus a Hill estimator cross-check.

Rate-profile estimation for the piecewise-stationary Poisson arrival model
(:func:`fit_diurnal_profile`) also lives here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .._typing import ArrayLike, FloatArray, SeedLike, as_float_array
from ..errors import FittingError
from ..units import DAY
from .diurnal import DiurnalProfile
from .exponential import ExponentialDistribution
from .lognormal import LognormalDistribution
from .zipf import ZipfLaw


def _positive_samples(values: ArrayLike, *, name: str) -> FloatArray:
    arr = as_float_array(values, name=name)
    arr = arr[np.isfinite(arr) & (arr > 0)]
    if arr.size == 0:
        raise FittingError(f"{name} contains no positive finite samples")
    return arr


def lognormal_moments(support: Iterable[float], counts: Iterable[int]) -> tuple[float, float]:
    """``(mu, sigma)`` of ``log(value)`` over distinct positive values and
    their counts: the one lognormal estimator, batch and streaming.

    Sums run in ascending value order, so any grouping of one multiset
    gives the same bits; ``sigma`` is the population deviation.  No
    observations give ``(0.0, 0.0)``, one gives ``(mu, 0.0)``.
    """
    items = sorted(zip(support, counts))
    n = sum(count for _, count in items)
    if n == 0:
        return 0.0, 0.0
    logs = [(math.log(value), count) for value, count in items]
    mu = sum(value * count for value, count in logs) / n
    m2 = sum((value - mu) ** 2 * count for value, count in logs)
    return mu, math.sqrt(m2 / n)


def fit_lognormal(values: ArrayLike) -> LognormalDistribution:
    """Fit a lognormal by maximum likelihood on the log-transformed sample.

    Non-positive and non-finite values are discarded (the server log's
    one-second resolution produces zero-length measurements; the paper's
    ``floor(t)+1`` convention should be applied by the caller when those
    zeros are meaningful); :func:`lognormal_moments` fits the rest.

    Raises
    ------
    FittingError
        If fewer than two positive samples remain or the sample is constant.
    """
    arr = _positive_samples(values, name="values")
    if arr.size < 2:
        raise FittingError("lognormal fit requires at least two positive samples")
    support, counts = np.unique(arr, return_counts=True)
    mu, sigma = lognormal_moments(support.tolist(), counts.tolist())
    if sigma == 0:
        raise FittingError("lognormal fit is degenerate: constant sample")
    return LognormalDistribution(mu, sigma)


def fit_exponential(values: ArrayLike) -> ExponentialDistribution:
    """Fit an exponential by maximum likelihood (the sample mean).

    Raises
    ------
    FittingError
        If no positive finite samples are present.
    """
    arr = as_float_array(values, name="values")
    arr = arr[np.isfinite(arr) & (arr >= 0)]
    if arr.size == 0:
        raise FittingError("exponential fit requires at least one sample")
    mean = float(arr.mean())
    if mean <= 0:
        raise FittingError("exponential fit is degenerate: zero mean")
    return ExponentialDistribution(mean)


def _loglog_regression(x: FloatArray, y: FloatArray,
                       weights: FloatArray | None = None) -> tuple[float, float, float]:
    """Least squares of ``log y`` on ``log x``; returns (slope, intercept, r2).

    The intercept is reported in linear space (i.e. ``amplitude`` such that
    ``y ~ amplitude * x**slope``).
    """
    lx, ly = np.log(x), np.log(y)
    w = np.ones_like(lx) if weights is None else weights
    wsum = w.sum()
    mx, my = np.dot(w, lx) / wsum, np.dot(w, ly) / wsum
    dx, dy = lx - mx, ly - my
    sxx = np.dot(w, dx * dx)
    if sxx == 0:
        raise FittingError("log-log regression is degenerate: single distinct x")
    slope = float(np.dot(w, dx * dy) / sxx)
    intercept = my - slope * mx
    residual = ly - (intercept + slope * lx)
    syy = np.dot(w, dy * dy)
    r2 = 1.0 if syy == 0 else float(1.0 - np.dot(w, residual * residual) / syy)
    return slope, float(np.exp(intercept)), r2


@dataclass(frozen=True)
class ZipfFit:
    """Result of a log-log Zipf fit: ``frequency ~ amplitude * x**-alpha``.

    Attributes
    ----------
    alpha:
        The (positive) Zipf exponent.
    amplitude:
        The multiplicative constant of the fitted power law.
    r_squared:
        Coefficient of determination of the log-log regression.
    n_points:
        Number of (x, frequency) points used in the regression.
    """

    alpha: float
    amplitude: float
    r_squared: float
    n_points: int

    def law(self, n_items: int) -> ZipfLaw:
        """Materialize the fit as a finite :class:`ZipfLaw` over ``n_items``."""
        return ZipfLaw(self.alpha, n_items)

    def predict(self, x: ArrayLike) -> FloatArray:
        """Evaluate the fitted power law at ``x``."""
        arr = as_float_array(x, name="x")
        return self.amplitude * np.power(arr, -self.alpha)


def fit_zipf_rank(counts: ArrayLike, *, normalize: bool = True,
                  max_rank: int | None = None,
                  n_points: int | None = 200) -> ZipfFit:
    """Fit a Zipf law to a rank-frequency profile.

    ``counts`` are per-entity access counts (e.g. transfers per client, in
    any order).  They are sorted descending to produce the rank-frequency
    relationship of Figure 7, then fitted by least squares in log-log space
    (the paper's method).

    To keep the long tail of rank-1 ties from dominating the regression
    (there are vastly more low ranks than high ranks on a linear grid), the
    regression is evaluated at ``n_points`` log-spaced ranks by default,
    giving each decade of ranks equal influence — the visual weighting a
    log-log plot fit implies.

    Parameters
    ----------
    counts:
        Per-entity counts; zeros are dropped.
    normalize:
        When True, frequencies are count fractions (as in the paper's
        figures); this only affects the fitted amplitude, never alpha.
    max_rank:
        Optionally restrict the regression to the top ``max_rank`` ranks.
    n_points:
        Number of log-spaced ranks used in the regression, or ``None`` to
        regress on every rank.
    """
    arr = _positive_samples(counts, name="counts")
    freq = np.sort(arr)[::-1]
    if normalize:
        freq = freq / freq.sum()
    ranks = np.arange(1, freq.size + 1, dtype=np.float64)
    if max_rank is not None:
        if max_rank < 2:
            raise FittingError("max_rank must be at least 2")
        ranks, freq = ranks[:max_rank], freq[:max_rank]
    if ranks.size < 2:
        raise FittingError("Zipf rank fit requires at least two ranked entities")
    if n_points is not None and ranks.size > n_points:
        idx = np.unique(np.logspace(
            0.0, np.log10(ranks.size), n_points).astype(np.int64)) - 1
        ranks, freq = ranks[idx], freq[idx]
    slope, amplitude, r2 = _loglog_regression(ranks, freq)
    return ZipfFit(alpha=-slope, amplitude=amplitude, r_squared=r2,
                   n_points=int(ranks.size))


def fit_zipf_pmf(values: ArrayLike, *, k_max: int | None = None,
                 weight_by_counts: bool = True) -> ZipfFit:
    """Fit a discrete power law to the histogram of positive integers.

    This is the paper's Figure 13 fit: the empirical frequency of observing
    the value ``n`` (e.g. ``n`` transfers in a session) is regressed against
    ``n`` in log-log space.

    Parameters
    ----------
    values:
        Observed positive integers (e.g. transfers-per-session counts).
    k_max:
        Optionally restrict the regression to values ``<= k_max``.
    weight_by_counts:
        When True (default), each histogram point is weighted by its
        observation count, so the sparsely observed tail — where empirical
        frequencies are dominated by sampling noise — does not flatten the
        estimated exponent.
    """
    arr = _positive_samples(values, name="values")
    ints = np.round(arr).astype(np.int64)
    support, counts = np.unique(ints, return_counts=True)
    freq = counts / counts.sum()
    if k_max is not None:
        keep = support <= k_max
        support, freq, counts = support[keep], freq[keep], counts[keep]
    if support.size < 2:
        raise FittingError("Zipf pmf fit requires at least two distinct values")
    weights = counts.astype(np.float64) if weight_by_counts else None
    slope, amplitude, r2 = _loglog_regression(
        support.astype(np.float64), freq, weights)
    return ZipfFit(alpha=-slope, amplitude=amplitude, r_squared=r2,
                   n_points=int(support.size))


def fit_zipf_mle(values: ArrayLike, *, k_max: int | None = None,
                 alpha_bounds: tuple[float, float] = (1.01, 20.0)) -> ZipfFit:
    """Maximum-likelihood fit of a discrete power law on positive integers.

    The paper fits its Zipf laws by log-log regression (the gnuplot way of
    2002); the modern alternative (Clauset, Shalizi & Newman 2009) is
    maximum likelihood on the zeta family: minimize

        alpha * sum(log x_i) + n * log Z(alpha)

    over ``alpha``, with ``Z`` the (possibly truncated) zeta normalizer.
    Exposed so the ablation experiments can quantify how much the
    estimator choice moves the headline exponents.

    Parameters
    ----------
    values:
        Observed positive integers.
    k_max:
        Optional truncation point; defaults to the sample maximum (an
        untruncated fit would constrain ``alpha > 1``; the truncated
        normalizer is used either way for numerical symmetry with the
        generator's :class:`~repro.distributions.zipf.ZetaDistribution`).
    alpha_bounds:
        Search interval for the exponent.

    Returns
    -------
    ZipfFit
        With ``amplitude = 1 / Z(alpha)`` (so ``predict`` gives the pmf)
        and ``r_squared`` the count-weighted log-log agreement with the
        empirical histogram, for comparability with :func:`fit_zipf_pmf`.
    """
    from scipy.optimize import minimize_scalar

    arr = _positive_samples(values, name="values")
    ints = np.round(arr).astype(np.int64)
    if k_max is None:
        k_max = int(ints.max())
    if np.unique(ints).size < 2:
        raise FittingError("Zipf MLE requires at least two distinct values")
    support = np.arange(1, k_max + 1, dtype=np.float64)
    log_support = np.log(support)
    sum_log = float(np.log(ints).sum())
    n = ints.size

    def negative_loglik(alpha: float) -> float:
        log_z = float(np.log(np.exp(-alpha * log_support).sum()))
        return alpha * sum_log + n * log_z

    result = minimize_scalar(negative_loglik, bounds=alpha_bounds,
                             method="bounded")
    if not result.success:  # pragma: no cover - scipy rarely fails here
        raise FittingError(f"Zipf MLE optimization failed: {result.message}")
    alpha = float(result.x)
    z = float(np.exp(-alpha * log_support).sum())

    # Count-weighted log-log agreement with the empirical pmf.
    obs_support, counts = np.unique(ints, return_counts=True)
    freq = counts / counts.sum()
    predicted = np.power(obs_support.astype(np.float64), -alpha) / z
    log_res = np.log(freq) - np.log(predicted)
    weights = counts.astype(np.float64)
    mean_log = np.dot(weights, np.log(freq)) / weights.sum()
    total = float(np.dot(weights, (np.log(freq) - mean_log) ** 2))
    residual = float(np.dot(weights, log_res ** 2))
    r2 = 1.0 if total == 0 else 1.0 - residual / total
    return ZipfFit(alpha=alpha, amplitude=1.0 / z, r_squared=r2,
                   n_points=int(obs_support.size))


@dataclass(frozen=True)
class TailFit:
    """A power-law tail estimate from CCDF regression.

    ``P[X > x] ~ C * x**-alpha`` over ``[x_lo, x_hi]``.
    """

    alpha: float
    amplitude: float
    r_squared: float
    x_lo: float
    x_hi: float
    n_points: int


def fit_tail_index(values: ArrayLike, *, x_lo: float = 1.0,
                   x_hi: float | None = None,
                   n_points: int = 50) -> TailFit:
    """Estimate a tail index by regression on the empirical CCDF.

    The CCDF is evaluated at ``n_points`` log-spaced abscissae spanning
    ``[x_lo, x_hi]`` and regressed in log-log space.  This matches how the
    paper reads the two tail slopes off Figure 17.

    Parameters
    ----------
    values:
        The sample.
    x_lo, x_hi:
        Range over which the tail is fitted.  ``x_hi`` defaults to the
        sample maximum.
    n_points:
        Number of log-spaced evaluation points.
    """
    arr = _positive_samples(values, name="values")
    srt = np.sort(arr)
    if x_hi is None:
        x_hi = float(srt[-1])
    if not (x_hi > x_lo > 0):
        raise FittingError(f"need 0 < x_lo < x_hi, got [{x_lo}, {x_hi}]")
    xs = np.logspace(np.log10(x_lo), np.log10(x_hi), n_points)
    ccdf = 1.0 - np.searchsorted(srt, xs, side="right") / srt.size
    keep = ccdf > 0
    xs, ccdf = xs[keep], ccdf[keep]
    if xs.size < 2:
        raise FittingError("tail fit range contains fewer than two CCDF points")
    slope, amplitude, r2 = _loglog_regression(xs, ccdf)
    return TailFit(alpha=-slope, amplitude=amplitude, r_squared=r2,
                   x_lo=x_lo, x_hi=x_hi, n_points=int(xs.size))


@dataclass(frozen=True)
class TwoRegimeTailFit:
    """Broken power-law tail: separate fits below and above a breakpoint.

    The paper measures ``alpha ~ 2.8`` below 100 s and ``alpha ~ 1`` above
    for transfer interarrivals (Section 5.2).
    """

    body: TailFit
    tail: TailFit
    breakpoint: float

    @property
    def alpha_body(self) -> float:
        """Tail index of the regime below the breakpoint."""
        return self.body.alpha

    @property
    def alpha_tail(self) -> float:
        """Tail index of the regime above the breakpoint."""
        return self.tail.alpha


def fit_two_regime_tail(values: ArrayLike, *, breakpoint: float = 100.0,
                        x_lo: float = 1.0,
                        x_hi: float | None = None) -> TwoRegimeTailFit:
    """Fit the two tail regimes on either side of ``breakpoint``.

    Parameters
    ----------
    values:
        The sample.
    breakpoint:
        Crossover abscissa separating the regimes (the paper uses 100 s).
    x_lo:
        Lower end of the body regime.
    x_hi:
        Upper end of the tail regime (defaults to the sample maximum).
    """
    if not breakpoint > x_lo:
        raise FittingError(
            f"breakpoint ({breakpoint}) must exceed x_lo ({x_lo})")
    body = fit_tail_index(values, x_lo=x_lo, x_hi=breakpoint)
    tail = fit_tail_index(values, x_lo=breakpoint, x_hi=x_hi)
    return TwoRegimeTailFit(body=body, tail=tail, breakpoint=float(breakpoint))


def hill_estimator(values: ArrayLike, *, k: int | None = None) -> float:
    """Hill estimator of the tail index from the top ``k`` order statistics.

    Parameters
    ----------
    values:
        The sample.
    k:
        Number of upper order statistics to use; defaults to
        ``sqrt(n)`` rounded, a common rule of thumb.

    Returns
    -------
    float
        The estimated tail index ``alpha``.
    """
    arr = _positive_samples(values, name="values")
    n = arr.size
    if n < 3:
        raise FittingError("Hill estimator requires at least three samples")
    if k is None:
        k = max(int(round(np.sqrt(n))), 2)
    if not (1 < k < n):
        raise FittingError(f"k must be in (1, {n}), got {k}")
    srt = np.sort(arr)
    top = srt[n - k:]
    threshold = srt[n - k - 1]
    if threshold <= 0:
        raise FittingError("Hill threshold order statistic must be positive")
    gamma = float(np.mean(np.log(top / threshold)))
    if gamma == 0:
        raise FittingError("Hill estimator is degenerate: tied upper tail")
    return 1.0 / gamma


@dataclass(frozen=True)
class BootstrapInterval:
    """A percentile-bootstrap confidence interval for a fitted quantity.

    Attributes
    ----------
    point:
        The estimate on the full sample.
    lower, upper:
        Interval bounds at the requested confidence level.
    confidence:
        Two-sided confidence level (e.g. 0.95).
    n_resamples:
        Number of bootstrap resamples used.
    """

    point: float
    lower: float
    upper: float
    confidence: float
    n_resamples: int

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the interval."""
        return self.lower <= value <= self.upper

    @property
    def width(self) -> float:
        """Interval width."""
        return self.upper - self.lower


def bootstrap_ci(values: ArrayLike,
                 estimator: Callable[[FloatArray], float], *,
                 n_resamples: int = 200, confidence: float = 0.95,
                 seed: SeedLike = None) -> BootstrapInterval:
    """Percentile-bootstrap confidence interval for any scalar estimator.

    The paper reports fit uncertainties as asymptotic-error percentages
    (e.g. the Zipf exponents "+-0.025%"); bootstrap intervals are the
    distribution-free equivalent this library offers for every fitted
    quantity.

    Parameters
    ----------
    values:
        The sample.
    estimator:
        Callable mapping a (resampled) 1-D array to a scalar, e.g.
        ``lambda s: fit_lognormal(s).mu``.
    n_resamples:
        Number of bootstrap resamples.
    confidence:
        Two-sided confidence level in (0, 1).
    seed:
        Seed or generator for the resampling.

    Raises
    ------
    FittingError
        If the sample is empty, parameters are out of range, or the
        estimator fails on the full sample.
    """
    from ..rng import make_rng

    arr = as_float_array(values, name="values")
    if arr.size == 0:
        raise FittingError("bootstrap requires a non-empty sample")
    if not 0.0 < confidence < 1.0:
        raise FittingError(f"confidence must be in (0, 1), got {confidence}")
    if n_resamples < 10:
        raise FittingError(f"n_resamples must be at least 10, got {n_resamples}")
    rng = make_rng(seed)
    point = float(estimator(arr))
    estimates = []
    for _ in range(n_resamples):
        resample = arr[rng.integers(0, arr.size, size=arr.size)]
        try:
            estimates.append(float(estimator(resample)))
        except FittingError:
            continue  # degenerate resample (e.g. constant); drop it
    if len(estimates) < n_resamples // 2:
        raise FittingError(
            "estimator failed on most bootstrap resamples")
    alpha = (1.0 - confidence) / 2.0
    lower, upper = np.quantile(estimates, [alpha, 1.0 - alpha])
    return BootstrapInterval(point=point, lower=float(lower),
                             upper=float(upper), confidence=confidence,
                             n_resamples=len(estimates))


@dataclass(frozen=True)
class DiurnalFit:
    """Estimated periodic arrival-rate profile.

    Attributes
    ----------
    profile:
        The estimated :class:`DiurnalProfile`.
    counts:
        Number of arrivals observed in each periodic bin.
    exposure:
        Total observation time (seconds) each periodic bin was exposed for.
    """

    profile: DiurnalProfile
    counts: FloatArray = field(repr=False)
    exposure: FloatArray = field(repr=False)


def fit_diurnal_profile(arrival_times: ArrayLike, duration: float, *,
                        period: float = DAY, n_bins: int = 96,
                        allow_partial_coverage: bool = False) -> DiurnalFit:
    """Estimate a periodic rate profile from arrival timestamps.

    Arrivals are folded modulo ``period`` into ``n_bins`` equal bins, and
    each bin's rate is its arrival count divided by its total exposure time
    within ``[0, duration)``.  With the default parameters this recovers the
    15-minute-bin diurnal pattern the paper keys its piecewise-stationary
    Poisson model to (Figure 4, right).

    Parameters
    ----------
    arrival_times:
        Arrival timestamps in ``[0, duration)``.
    duration:
        Total observation window length in seconds.
    period:
        Folding period (one day by default; pass one week for Figure 4
        center).
    n_bins:
        Number of bins per period (96 gives 15-minute bins for a day).
    allow_partial_coverage:
        When the observation window is shorter than the period, some
        phase bins are never observed.  By default that raises; with this
        flag the unobserved bins get rate zero instead (honest for
        characterizing a short trace, but a generator driven by such a
        profile will emit nothing in the unobserved phases).
    """
    if duration <= 0:
        raise FittingError("duration must be positive")
    if n_bins < 1:
        raise FittingError("n_bins must be positive")
    times = as_float_array(arrival_times, name="arrival_times")
    if times.size and (times.min() < 0 or times.max() >= duration):
        raise FittingError("arrival times must lie within [0, duration)")
    bin_width = period / n_bins
    phase = np.mod(times, period)
    counts, _ = np.histogram(phase, bins=n_bins, range=(0.0, period))
    # Exposure of bin b: full periods contribute bin_width each; the final
    # partial period contributes the overlap of the bin with [0, remainder).
    full_periods, remainder = divmod(duration, period)
    exposure = np.full(n_bins, full_periods * bin_width)
    edges = np.arange(n_bins) * bin_width
    overlap = np.clip(remainder - edges, 0.0, bin_width)
    exposure += overlap
    if np.any(exposure <= 0) and not allow_partial_coverage:
        raise FittingError(
            "observation window shorter than one profile bin; "
            "reduce n_bins, extend the trace, or pass "
            "allow_partial_coverage=True")
    rates = np.divide(counts, exposure, out=np.zeros(n_bins),
                      where=exposure > 0)
    return DiurnalFit(profile=DiurnalProfile(rates, period=period),
                      counts=counts.astype(np.float64), exposure=exposure)
