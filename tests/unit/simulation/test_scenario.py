"""Unit tests for the end-to-end scenario."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.simulation.live_show import LiveShowScenario, ScenarioConfig
from repro.units import DAY


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"days": 0.0},
        {"mean_session_rate": 0.0},
        {"arrival_window": 0.0},
        {"inject_spanning_entries": -1},
        {"hourly_shape": (1.0,) * 23},
        {"hourly_shape": (1.0,) * 23 + (-1.0,)},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ScenarioConfig(**kwargs)

    def test_duration(self):
        assert ScenarioConfig(days=2.0).duration == 2 * DAY

    def test_scaled(self):
        config = ScenarioConfig(mean_session_rate=0.1).scaled(2.0)
        assert config.mean_session_rate == pytest.approx(0.2)
        with pytest.raises(ConfigError):
            config.scaled(0.0)


class TestArrivalProfile:
    def test_mean_rate_honoured(self):
        scenario = LiveShowScenario(ScenarioConfig(mean_session_rate=0.31))
        assert scenario.arrival_profile().mean_rate() == pytest.approx(
            0.31, rel=1e-3)

    def test_custom_hourly_shape_used(self):
        shape = (0.0,) * 12 + (1.0,) * 12  # active afternoons only
        config = ScenarioConfig(mean_session_rate=0.1, hourly_shape=shape)
        profile = LiveShowScenario(config).arrival_profile()
        assert profile.rate([3 * 3600.0])[0] == 0.0
        assert profile.rate([15 * 3600.0])[0] > 0.0


class TestRun:
    def test_smoke_run_structure(self, smoke_result):
        trace = smoke_result.trace
        assert trace.extent == pytest.approx(2 * DAY)
        assert smoke_result.n_sessions > 1_000
        assert trace.n_transfers >= smoke_result.n_sessions * 0.8
        assert smoke_result.transfer_session.size == len(trace)
        assert smoke_result.congested.size == len(trace)

    def test_session_client_assignment_consistent(self, smoke_result):
        trace = smoke_result.trace
        # Each transfer's client must match its session's client.
        expected = smoke_result.session_client[smoke_result.transfer_session]
        np.testing.assert_array_equal(trace.client_index, expected)

    def test_spanning_artifacts_injected(self, smoke_result):
        trace = smoke_result.trace
        n_spanning = int(np.sum(trace.duration > trace.extent))
        assert n_spanning == 3  # ScenarioConfig.smoke() injects 3

    def test_transfers_start_within_window(self, smoke_result):
        trace = smoke_result.trace
        assert trace.start.min() >= 0
        assert trace.start.max() < trace.extent

    def test_clean_transfers_end_within_window(self, smoke_result):
        trace = smoke_result.trace
        clean = trace.duration <= trace.extent
        assert np.all(trace.end[clean] <= trace.extent + 1e-9)

    def test_bandwidth_and_cpu_populated(self, smoke_result):
        trace = smoke_result.trace
        assert np.all(trace.bandwidth_bps > 0)
        assert np.all((trace.server_cpu >= 0) & (trace.server_cpu <= 1))

    def test_deterministic_given_seed(self):
        config = ScenarioConfig.smoke()
        a = LiveShowScenario(config).run(seed=3)
        b = LiveShowScenario(config).run(seed=3)
        np.testing.assert_array_equal(a.trace.start, b.trace.start)
        np.testing.assert_array_equal(a.trace.client_index,
                                      b.trace.client_index)

    def test_different_seeds_differ(self):
        config = ScenarioConfig.smoke()
        a = LiveShowScenario(config).run(seed=3)
        b = LiveShowScenario(config).run(seed=4)
        assert a.trace.n_transfers != b.trace.n_transfers

    def test_session_count_near_expectation(self, smoke_result):
        config = ScenarioConfig.smoke()
        expected = config.mean_session_rate * config.duration
        assert smoke_result.n_sessions == pytest.approx(expected, rel=0.1)

    def test_server_cpu_artifact_invariant(self):
        """Injected spanning entries corrupt the *recorded* durations only:
        the server CPU column reflects true activity clipped at the
        observation window, so it must not change with the artifact count."""
        from dataclasses import replace
        base = ScenarioConfig.smoke()
        clean = LiveShowScenario(
            replace(base, inject_spanning_entries=0)).run(seed=11)
        dirty = LiveShowScenario(
            replace(base, inject_spanning_entries=12)).run(seed=11)
        np.testing.assert_array_equal(clean.trace.server_cpu,
                                      dirty.trace.server_cpu)
        # Same world otherwise: only the recorded durations may differ.
        np.testing.assert_array_equal(clean.trace.start, dirty.trace.start)
        np.testing.assert_array_equal(clean.trace.client_index,
                                      dirty.trace.client_index)
        n_differing = int(np.sum(clean.trace.duration
                                 != dirty.trace.duration))
        assert n_differing == 12

    def test_feed_down_suppresses_transfers(self):
        from repro.simulation.show import (
            ShowSchedule,
            nightly_maintenance_outages,
        )
        config = ScenarioConfig(
            days=2.0, mean_session_rate=0.05,
            schedule=ShowSchedule(events=nightly_maintenance_outages()),
            inject_spanning_entries=0)
        result = LiveShowScenario(config).run(seed=6)
        down = config.schedule.feed_down_mask(result.trace.start)
        assert not down.any()
