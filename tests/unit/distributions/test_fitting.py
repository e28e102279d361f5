"""Unit tests for the fitting routines."""

import math

import numpy as np
import pytest

from repro.distributions import (
    DiurnalProfile,
    ExponentialDistribution,
    LognormalDistribution,
    ParetoDistribution,
    PiecewiseStationaryPoissonProcess,
    TwoRegimePareto,
    ZetaDistribution,
    ZipfLaw,
    fit_diurnal_profile,
    fit_exponential,
    fit_lognormal,
    fit_tail_index,
    fit_two_regime_tail,
    fit_zipf_mle,
    fit_zipf_pmf,
    fit_zipf_rank,
    hill_estimator,
)
from repro.distributions.fitting import lognormal_moments
from repro.errors import FittingError
from repro.rng import make_rng
from repro.units import DAY


class TestFitLognormal:
    def test_recovers_paper_parameters(self):
        truth = LognormalDistribution(4.383921, 1.427247)
        fit = fit_lognormal(truth.sample(300_000, seed=1))
        assert fit.mu == pytest.approx(4.383921, rel=0.01)
        assert fit.sigma == pytest.approx(1.427247, rel=0.01)

    def test_drops_nonpositive(self):
        truth = LognormalDistribution(1.0, 0.5)
        sample = np.concatenate([truth.sample(10_000, seed=2),
                                 [-1.0, 0.0]])
        fit = fit_lognormal(sample)
        assert fit.mu == pytest.approx(1.0, rel=0.05)

    def test_constant_sample_rejected(self):
        with pytest.raises(FittingError):
            fit_lognormal([2.0, 2.0, 2.0])
        assert lognormal_moments([2.0], [3]) == (math.log(2.0), 0.0)
        assert lognormal_moments([7.0], [1]) == (math.log(7.0), 0.0)

    def test_empty_rejected(self):
        # Empty, or fewer than two positive finite samples once filtered.
        for values in ([], [np.nan, np.inf, -np.inf], [0.0, 0.0, 0.0],
                       [np.nan, 0.0, 5.0, -1.0, np.inf]):
            with pytest.raises(FittingError):
                fit_lognormal(values)
        assert lognormal_moments([], []) == (0.0, 0.0)


class TestFitExponential:
    def test_recovers_mean(self):
        truth = ExponentialDistribution(203_150.0)
        fit = fit_exponential(truth.sample(200_000, seed=3))
        assert fit.mean() == pytest.approx(203_150.0, rel=0.02)

    def test_zero_values_allowed(self):
        fit = fit_exponential([0.0, 2.0, 4.0])
        assert fit.mean() == pytest.approx(2.0)

    def test_all_zero_rejected(self):
        with pytest.raises(FittingError):
            fit_exponential([0.0, 0.0])


class TestFitZipfRank:
    def test_recovers_planted_interest_alpha(self):
        law = ZipfLaw(0.4704, 50_000)
        ranks = law.sample(500_000, seed=4)
        counts = np.bincount(ranks)[1:]
        fit = fit_zipf_rank(counts[counts > 0])
        assert fit.alpha == pytest.approx(0.4704, rel=0.1)
        assert fit.r_squared > 0.9

    def test_exact_power_law_counts(self):
        ranks = np.arange(1.0, 1_001.0)
        counts = 1e6 * ranks ** -0.7
        fit = fit_zipf_rank(counts, n_points=None)
        assert fit.alpha == pytest.approx(0.7, abs=1e-6)
        assert fit.r_squared == pytest.approx(1.0)

    def test_predict_uses_amplitude(self):
        ranks = np.arange(1.0, 101.0)
        counts = 500.0 * ranks ** -1.0
        fit = fit_zipf_rank(counts, normalize=False, n_points=None)
        np.testing.assert_allclose(fit.predict(ranks), counts, rtol=1e-6)

    def test_max_rank_restricts(self):
        counts = np.concatenate([1e4 * np.arange(1.0, 101.0) ** -0.5,
                                 np.ones(10_000)])
        restricted = fit_zipf_rank(counts, max_rank=100)
        assert restricted.alpha == pytest.approx(0.5, abs=0.05)

    def test_single_entity_rejected(self):
        with pytest.raises(FittingError):
            fit_zipf_rank([5.0])

    def test_law_materialization(self):
        fit = fit_zipf_rank(np.arange(1.0, 101.0) ** -0.6, n_points=None)
        law = fit.law(100)
        assert law.alpha == pytest.approx(fit.alpha)


class TestFitZipfPmf:
    def test_recovers_transfers_per_session_alpha(self):
        truth = ZetaDistribution(2.70417, k_max=10_000)
        fit = fit_zipf_pmf(truth.sample(300_000, seed=5))
        assert fit.alpha == pytest.approx(2.70417, rel=0.05)

    def test_unweighted_is_flatter_on_noisy_tail(self):
        sample = ZetaDistribution(2.70417).sample(100_000, seed=6)
        weighted = fit_zipf_pmf(sample)
        unweighted = fit_zipf_pmf(sample, weight_by_counts=False)
        assert unweighted.alpha < weighted.alpha

    def test_k_max_restricts(self):
        sample = np.concatenate([np.ones(1000), np.full(100, 2),
                                 np.full(10, 3), np.full(5, 1000)])
        fit = fit_zipf_pmf(sample, k_max=3)
        assert fit.n_points == 3

    def test_single_value_rejected(self):
        with pytest.raises(FittingError):
            fit_zipf_pmf([1, 1, 1])


class TestTailFits:
    def test_pareto_tail_recovered(self):
        sample = ParetoDistribution(2.5, 1.0).sample(500_000, seed=7)
        fit = fit_tail_index(sample, x_lo=1.0, x_hi=100.0)
        assert fit.alpha == pytest.approx(2.5, rel=0.08)

    def test_two_regime_recovered(self):
        # Moderate body index so the far tail keeps enough sample mass to
        # be measurable (at the paper's 2.8/100 s parameters the far tail
        # holds ~1e-6 of the mass and needs the full 5.5 M-entry trace).
        truth = TwoRegimePareto(2.0, 0.9, breakpoint=30.0)
        sample = truth.sample(2_000_000, seed=8)
        fit = fit_two_regime_tail(sample, breakpoint=30.0, x_hi=1e4)
        assert fit.alpha_body == pytest.approx(2.0, rel=0.1)
        assert fit.alpha_tail == pytest.approx(0.9, rel=0.25)

    def test_invalid_range(self):
        with pytest.raises(FittingError):
            fit_tail_index([1.0, 2.0], x_lo=10.0, x_hi=5.0)

    def test_breakpoint_ordering(self):
        with pytest.raises(FittingError):
            fit_two_regime_tail([1.0, 2.0], breakpoint=0.5, x_lo=1.0)


class TestHillEstimator:
    def test_pareto_alpha_recovered(self):
        sample = ParetoDistribution(1.5, 1.0).sample(200_000, seed=9)
        assert hill_estimator(sample) == pytest.approx(1.5, rel=0.1)

    def test_explicit_k(self):
        sample = ParetoDistribution(2.0, 1.0).sample(100_000, seed=10)
        assert hill_estimator(sample, k=5_000) == pytest.approx(2.0, rel=0.1)

    def test_too_small_sample(self):
        with pytest.raises(FittingError):
            hill_estimator([1.0, 2.0])

    def test_invalid_k(self):
        with pytest.raises(FittingError):
            hill_estimator([1.0, 2.0, 3.0, 4.0], k=10)


class TestFitDiurnalProfile:
    def test_recovers_planted_profile(self):
        truth = DiurnalProfile.reality_show(0.5)
        process = PiecewiseStationaryPoissonProcess(truth)
        arrivals = process.generate(28 * DAY, seed=11)
        fit = fit_diurnal_profile(arrivals, 28 * DAY, n_bins=24)
        correlation = np.corrcoef(fit.profile.bin_rates,
                                  truth.bin_rates)[0, 1]
        assert correlation > 0.99
        assert fit.profile.mean_rate() == pytest.approx(0.5, rel=0.05)

    def test_exposure_accounts_for_partial_day(self):
        # 1.5 days: bins in the first half-day have 2 periods of exposure.
        arrivals = np.asarray([0.0, DAY + 1.0])
        fit = fit_diurnal_profile(arrivals, 1.5 * DAY, n_bins=2)
        assert fit.exposure[0] == pytest.approx(DAY)        # two half-days
        assert fit.exposure[1] == pytest.approx(DAY / 2.0)  # one half-day

    def test_counts_sum_to_arrivals(self):
        rng = make_rng(12)
        arrivals = np.sort(rng.random(1_000) * 3 * DAY)
        fit = fit_diurnal_profile(arrivals, 3 * DAY, n_bins=96)
        assert int(fit.counts.sum()) == 1_000

    def test_out_of_window_rejected(self):
        with pytest.raises(FittingError):
            fit_diurnal_profile([5.0, 2 * DAY], DAY)

    def test_window_shorter_than_bin_rejected(self):
        with pytest.raises(FittingError):
            fit_diurnal_profile([1.0], 10.0, period=DAY, n_bins=96)


class TestFitZipfMle:
    def test_recovers_planted_alpha(self):
        truth = ZetaDistribution(2.70417, k_max=10_000)
        fit = fit_zipf_mle(truth.sample(200_000, seed=20))
        assert fit.alpha == pytest.approx(2.70417, rel=0.03)

    def test_mle_tighter_than_regression(self):
        # Across several seeds, the MLE's error should not exceed the
        # regression's on average.
        truth = ZetaDistribution(2.2, k_max=5_000)
        mle_err = reg_err = 0.0
        for seed in range(5):
            sample = truth.sample(20_000, seed=seed)
            mle_err += abs(fit_zipf_mle(sample).alpha - 2.2)
            reg_err += abs(fit_zipf_pmf(sample).alpha - 2.2)
        assert mle_err <= reg_err * 1.2

    def test_predict_is_pmf(self):
        truth = ZetaDistribution(3.0, k_max=1_000)
        fit = fit_zipf_mle(truth.sample(100_000, seed=21), k_max=1_000)
        support = np.arange(1.0, 1_001.0)
        assert float(fit.predict(support).sum()) == pytest.approx(1.0,
                                                                  abs=1e-9)

    def test_r_squared_high_for_true_power_law(self):
        truth = ZetaDistribution(2.5, k_max=10_000)
        fit = fit_zipf_mle(truth.sample(100_000, seed=22))
        assert fit.r_squared > 0.9

    def test_single_value_rejected(self):
        with pytest.raises(FittingError):
            fit_zipf_mle([2, 2, 2])
