"""Unit tests for the audience-trend scenario knob."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.simulation.live_show import LiveShowScenario, ScenarioConfig
from repro.simulation.population import PopulationConfig


def _config(trend):
    return ScenarioConfig(days=7.0, mean_session_rate=0.04,
                          population=PopulationConfig(n_clients=4_000,
                                                      n_ases=60,
                                                      forced_br_ases=5),
                          audience_trend=trend,
                          inject_spanning_entries=0)


class TestValidation:
    @pytest.mark.parametrize("trend", [0.0, -1.0])
    def test_invalid_rejected(self, trend):
        with pytest.raises(ConfigError):
            _config(trend)

    def test_default_is_stationary(self):
        assert ScenarioConfig().audience_trend == 1.0


class TestTrendEffect:
    def _daily_sessions(self, trend, seed=23):
        result = LiveShowScenario(_config(trend)).run(seed=seed)
        days = (result.session_arrivals // 86_400.0).astype(int)
        return np.bincount(days, minlength=7)

    def test_growing_audience(self):
        counts = self._daily_sessions(3.0)
        # End-of-trace rate should be roughly 3x the start.
        ratio = counts[6] / counts[0]
        assert 1.8 < ratio < 4.5

    def test_shrinking_audience(self):
        counts = self._daily_sessions(1 / 3)
        assert counts[6] < 0.6 * counts[0]

    def test_mean_rate_preserved(self):
        stationary = int(self._daily_sessions(1.0).sum())
        trending = int(self._daily_sessions(3.0).sum())
        assert trending == pytest.approx(stationary, rel=0.1)

    def test_trend_one_matches_plain_path(self):
        a = LiveShowScenario(_config(1.0)).run(seed=24)
        cfg = ScenarioConfig(days=7.0, mean_session_rate=0.04,
                             population=PopulationConfig(n_clients=4_000,
                                                         n_ases=60,
                                                         forced_br_ases=5),
                             inject_spanning_entries=0)
        b = LiveShowScenario(cfg).run(seed=24)
        np.testing.assert_array_equal(a.session_arrivals,
                                      b.session_arrivals)
