"""Unit tests for the server models."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.simulation.server import ServerConfig, ServerLoadModel


class TestServerConfig:
    @pytest.mark.parametrize("kwargs", [
        {"capacity": 0},
        {"base_cpu": 1.0},
        {"cpu_noise_sigma": -0.1},
        {"base_cpu": -0.1},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ServerConfig(**kwargs)


class TestServerLoadModel:
    def test_cpu_grows_with_concurrency(self):
        model = ServerLoadModel(ServerConfig(capacity=100,
                                             cpu_noise_sigma=0.0))
        cpu = model.cpu_utilization(np.asarray([0.0, 50.0, 100.0]), seed=1)
        assert cpu[0] < cpu[1] < cpu[2]
        assert cpu[2] == pytest.approx(1.0, abs=0.01)

    def test_cpu_clipped_to_unit_interval(self):
        model = ServerLoadModel(ServerConfig(capacity=10))
        cpu = model.cpu_utilization(np.asarray([1_000.0]), seed=2)
        assert cpu[0] == 1.0

    def test_default_scenario_stays_idle(self):
        """The paper's screening: utilization below 10% essentially always."""
        model = ServerLoadModel()
        cpu = model.cpu_utilization(np.full(10_000, 120.0), seed=3)
        assert float(np.mean(cpu > 0.10)) < 1e-3
