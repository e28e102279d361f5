"""Goodness-of-fit diagnostics.

Used by the characterization layers to report how well each fitted family
(lognormal, exponential, Zipf) describes the corresponding marginal, and by
EXPERIMENTS.md to record the paper-vs-measured comparison quantitatively.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from .._typing import ArrayLike, FloatArray, as_float_array
from ..errors import FittingError
from .base import Distribution


@dataclass(frozen=True)
class GoodnessOfFit:
    """Kolmogorov-Smirnov summary of a fitted distribution.

    Attributes
    ----------
    ks_statistic:
        Supremum distance between the empirical and model CDFs.
    p_value:
        Asymptotic KS p-value.  For very large samples this is almost always
        tiny even for visually excellent fits (the usual measurement-paper
        caveat); the statistic itself is the useful number.
    n:
        Sample size.
    """

    ks_statistic: float
    p_value: float
    n: int


def ks_two_sample(a: ArrayLike, b: ArrayLike) -> float:
    """Two-sample Kolmogorov-Smirnov distance.

    Handles ties (lattice-valued data such as ``floor(t)+1`` times)
    correctly by comparing both right-continuous empirical CDFs over the
    union of sample points — unlike a one-sample comparison against a
    resampled empirical model, which misreads shared atoms as
    discrepancy.
    """
    a_arr = np.sort(as_float_array(a, name="a"))
    b_arr = np.sort(as_float_array(b, name="b"))
    if a_arr.size == 0 or b_arr.size == 0:
        raise FittingError("ks_two_sample requires two non-empty samples")
    support = np.union1d(a_arr, b_arr)
    cdf_a = np.searchsorted(a_arr, support, side="right") / a_arr.size
    cdf_b = np.searchsorted(b_arr, support, side="right") / b_arr.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_distance(values: ArrayLike, dist: Distribution) -> float:
    """Supremum distance between the empirical CDF of ``values`` and ``dist``.

    Both one-sided deviations are considered (the ECDF is a step function,
    so the supremum may occur just before a jump).  Intended for
    *continuous* model distributions; to compare two samples (or a sample
    against an :class:`~repro.distributions.empirical.EmpiricalDistribution`),
    use :func:`ks_two_sample`, which treats shared atoms correctly.

    Costs one sort and one model CDF evaluation per distinct value:
    within a run of equal values the model CDF is one number ``F`` and
    ``|k/n - F|`` is convex in ``k``, so only each run's first and last
    sorted positions can attain the supremum.  The statistic is the one
    the per-element comparison over all ``n`` sorted values gives, to
    the bit.
    """
    arr = as_float_array(values, name="values")
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        raise FittingError("ks_distance requires a non-empty sample")
    srt = np.sort(arr)
    n = srt.size
    # Runs of equal bits (0.0 and -0.0 are kept apart).
    bits = srt.view(np.int64)
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(bits[1:], bits[:-1], out=head[1:])
    firsts = np.flatnonzero(head)
    lasts = np.append(firsts[1:] - 1, n - 1)
    model = np.asarray(dist.cdf(srt[firsts]), dtype=np.float64)
    model = np.concatenate((model, model))
    positions = np.concatenate((firsts, lasts))
    ecdf_hi = (positions + 1) / n
    ecdf_lo = positions / n
    return float(max(np.max(np.abs(ecdf_hi - model)),
                     np.max(np.abs(model - ecdf_lo))))


def evaluate_fit(values: ArrayLike, dist: Distribution) -> GoodnessOfFit:
    """Compute the KS statistic and asymptotic p-value for a fitted model."""
    arr = as_float_array(values, name="values")
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        raise FittingError("evaluate_fit requires a non-empty sample")
    d = ks_distance(arr, dist)
    p = float(stats.kstwobign.sf(d * np.sqrt(arr.size)))
    return GoodnessOfFit(ks_statistic=d, p_value=p, n=int(arr.size))


def anderson_darling_distance(values: ArrayLike, dist: Distribution) -> float:
    """One-sample Anderson-Darling statistic ``A^2`` against ``dist``.

    Unlike the KS supremum, ``A^2`` weights deviations by the inverse CDF
    variance, so it is far more sensitive in the tails — exactly where the
    workload's heavy-tailed marginals (transfer lengths, interarrivals)
    can drift without moving the KS distance.  Works against any model
    with a ``cdf``; model probabilities are clipped away from {0, 1} so a
    sample point outside the model's numerical support yields a large but
    finite statistic instead of ``inf``.
    """
    arr = as_float_array(values, name="values")
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        raise FittingError(
            "anderson_darling_distance requires a non-empty sample")
    srt = np.sort(arr)
    n = srt.size
    probs = np.clip(np.asarray(dist.cdf(srt), dtype=np.float64),
                    1e-12, 1.0 - 1e-12)
    i = np.arange(1, n + 1, dtype=np.float64)
    weights = (2.0 * i - 1.0) / n
    a_sq = -n - float(np.sum(weights * (np.log(probs)
                                        + np.log1p(-probs[::-1]))))
    return float(a_sq)


def ks_statistic_table(values: ArrayLike,
                       candidates: dict[str, Distribution]) -> dict[str, float]:
    """Compare several candidate models by KS distance.

    Returns a mapping from candidate name to KS statistic, sorted ascending
    (best fit first).  Useful for the paper's implicit model selections,
    e.g. "lognormal, and does not appear to be as heavy as Pareto"
    (Section 8).
    """
    scored = {name: ks_distance(values, dist)
              for name, dist in candidates.items()}
    return dict(sorted(scored.items(), key=lambda item: item[1]))


def qq_points(values: ArrayLike, dist: Distribution,
              n_points: int = 100) -> tuple[FloatArray, FloatArray]:
    """Quantile-quantile data for a fitted model.

    Returns ``(model_quantiles, empirical_quantiles)`` at ``n_points``
    evenly spaced probability levels (excluding 0 and 1).  Model quantiles
    are obtained by bisection on the model CDF, so any distribution with a
    ``cdf`` works.
    """
    arr = as_float_array(values, name="values")
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        raise FittingError("qq_points requires a non-empty sample")
    if n_points < 1:
        raise FittingError("n_points must be positive")
    probs = (np.arange(1, n_points + 1) - 0.5) / n_points
    empirical = np.quantile(arr, probs)
    # Bisection bracket: expand upper bound until CDF exceeds max prob.
    lo = 0.0
    hi = max(float(np.max(arr)), 1.0)
    while float(dist.cdf([hi])[0]) < probs[-1] and hi < 1e18:
        hi *= 2.0
    model = np.empty_like(probs)
    for i, p in enumerate(probs):
        a, b = lo, hi
        for _ in range(80):
            mid = 0.5 * (a + b)
            if float(dist.cdf([mid])[0]) < p:
                a = mid
            else:
                b = mid
        model[i] = 0.5 * (a + b)
    return model, empirical
