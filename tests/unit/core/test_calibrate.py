"""Unit tests for model calibration."""

import numpy as np
import pytest

from repro.core.calibrate import calibrate_model
from repro.core.sessionizer import sessionize
from repro.errors import FittingError
from tests.conftest import build_trace


@pytest.fixture(scope="module")
def calibration(smoke_trace):
    return calibrate_model(smoke_trace)


class TestCalibration:
    def test_recovers_planted_parameters(self, calibration):
        model = calibration.model
        assert model.transfers_alpha == pytest.approx(2.70417, rel=0.2)
        assert model.gap_log_mu == pytest.approx(4.89991, rel=0.1)
        assert model.length_log_mu == pytest.approx(4.383921, rel=0.1)
        assert model.length_log_sigma == pytest.approx(1.427247, rel=0.1)

    def test_population_size_from_trace(self, calibration, smoke_trace):
        active = int(np.unique(smoke_trace.client_index).size)
        assert calibration.model.n_clients == active

    def test_feed_count_from_trace(self, calibration, smoke_trace):
        assert calibration.model.n_feeds == smoke_trace.n_objects

    def test_bandwidth_carried(self, calibration, smoke_trace):
        law = calibration.model.bandwidth_law()
        assert law is not None
        observed = smoke_trace.bandwidth_bps[smoke_trace.bandwidth_bps > 0]
        assert law.mean() == pytest.approx(float(observed.mean()), rel=0.1)

    def test_bandwidth_opt_out(self, smoke_trace):
        result = calibrate_model(smoke_trace, include_bandwidth=False)
        assert result.model.bandwidth_law() is None

    def test_arrival_profile_mass(self, calibration, smoke_trace):
        expected = calibration.model.arrival_profile.expected_count(
            smoke_trace.extent)
        sessions = sessionize(smoke_trace)
        assert expected == pytest.approx(sessions.n_sessions, rel=0.01)

    def test_redundant_fits_reported(self, calibration):
        # Session ON/OFF are characterized though not retained by Table 2.
        assert calibration.session_on_fit is not None
        assert calibration.session_off_fit is not None

    def test_precomputed_sessions_accepted(self, smoke_trace):
        sessions = sessionize(smoke_trace)
        result = calibrate_model(smoke_trace, sessions=sessions)
        assert result.model.n_clients > 0

    def test_mismatched_sessions_rejected(self, smoke_trace):
        sessions = sessionize(smoke_trace, timeout=500.0)
        with pytest.raises(FittingError):
            calibrate_model(smoke_trace, timeout=1_500.0, sessions=sessions)


class TestDegenerateTraces:
    def test_single_transfer_sessions_rejected(self):
        # Every session has exactly one transfer: no intra-session gaps.
        trace = build_trace([(i % 3, 0, i * 10_000.0, 5.0)
                             for i in range(20)], n_clients=3)
        with pytest.raises(FittingError):
            calibrate_model(trace)


class TestWeeklyCalibration:
    def test_weekly_profile_has_week_period(self, smoke_trace):
        # The smoke trace is only 2 days; build a 7-day one inline.
        from repro.simulation.live_show import LiveShowScenario, ScenarioConfig
        from repro.simulation.population import PopulationConfig
        config = ScenarioConfig(days=7.0, mean_session_rate=0.02,
                                population=PopulationConfig(n_clients=2_000,
                                                            n_ases=60,
                                                            forced_br_ases=5),
                                inject_spanning_entries=0)
        trace = LiveShowScenario(config).run(seed=51).trace
        result = calibrate_model(trace, arrival_period="week")
        assert result.model.arrival_profile.period == pytest.approx(
            7 * 86_400.0)
        # Weekly mass equals the session count, like the daily fit.
        expected = result.model.arrival_profile.expected_count(trace.extent)
        assert expected == pytest.approx(
            sessionize(trace).n_sessions, rel=0.01)

    def test_weekly_needs_a_week_of_trace(self, smoke_trace):
        with pytest.raises(FittingError):
            calibrate_model(smoke_trace, arrival_period="week")

    def test_invalid_period_name(self, smoke_trace):
        with pytest.raises(FittingError):
            calibrate_model(smoke_trace, arrival_period="month")

    def test_weekly_model_serializes(self, smoke_trace):
        from repro.core.model import LiveWorkloadModel
        from repro.distributions import DiurnalProfile
        weekly = LiveWorkloadModel(
            arrival_profile=DiurnalProfile([0.1] * 672, period=7 * 86_400.0))
        restored = LiveWorkloadModel.from_dict(weekly.to_dict())
        assert restored.arrival_profile.period == weekly.arrival_profile.period
