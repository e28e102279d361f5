"""Unit tests for the QoS-abandonment scenario knob."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.simulation.live_show import LiveShowScenario, ScenarioConfig
from repro.simulation.population import PopulationConfig


def _config(factor):
    return ScenarioConfig(days=2.0, mean_session_rate=0.03,
                          population=PopulationConfig(n_clients=1_500,
                                                      n_ases=60,
                                                      forced_br_ases=5),
                          qos_abandonment_factor=factor,
                          inject_spanning_entries=0)


class TestValidation:
    @pytest.mark.parametrize("factor", [0.0, -0.5, 1.5])
    def test_invalid_rejected(self, factor):
        with pytest.raises(ConfigError):
            _config(factor)

    def test_default_is_off(self):
        assert ScenarioConfig().qos_abandonment_factor == 1.0


class TestEffect:
    def test_congested_durations_shortened(self):
        off = LiveShowScenario(_config(1.0)).run(seed=17)
        on = LiveShowScenario(_config(0.3)).run(seed=17)
        # Same seed: identical structure except the congested durations.
        np.testing.assert_array_equal(off.congested, on.congested)
        congested = off.congested
        np.testing.assert_allclose(on.trace.duration[congested],
                                   0.3 * off.trace.duration[congested],
                                   rtol=1e-9)

    def test_clean_durations_untouched(self):
        off = LiveShowScenario(_config(1.0)).run(seed=17)
        on = LiveShowScenario(_config(0.3)).run(seed=17)
        clean = ~off.congested
        np.testing.assert_array_equal(on.trace.duration[clean],
                                      off.trace.duration[clean])

    def test_factor_one_is_identity(self):
        a = LiveShowScenario(_config(1.0)).run(seed=18)
        b = LiveShowScenario(ScenarioConfig(
            days=2.0, mean_session_rate=0.03,
            population=PopulationConfig(n_clients=1_500, n_ases=60,
                                        forced_br_ases=5),
            inject_spanning_entries=0)).run(seed=18)
        np.testing.assert_array_equal(a.trace.duration, b.trace.duration)
