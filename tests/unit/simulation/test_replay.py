"""Unit tests for workload replay."""

import numpy as np
import pytest

from repro.errors import ConfigError, SimulationError
from repro.simulation.replay import (
    ReplayResult,
    demand_peak,
    provisioning_sweep,
    replay_trace,
)
from tests.conftest import build_trace


def small_workload():
    return build_trace([
        (0, 0, 0.0, 10.0, 56_000.0),
        (1, 0, 2.0, 10.0, 56_000.0),
        (0, 1, 4.0, 10.0, 56_000.0),
        (1, 1, 30.0, 5.0, 56_000.0),
    ], n_clients=2, extent=100.0)


def zero_duration_workload():
    """``[0, 10)`` and ``[2, 12)`` plus a zero-length transfer at t=5."""
    return build_trace([
        (0, 0, 0.0, 10.0),
        (1, 0, 2.0, 10.0),
        (0, 1, 5.0, 0.0),
    ], n_clients=2)


class TestReplayTrace:
    def test_unlimited_serves_all(self):
        result = replay_trace(small_workload())
        assert result.n_requests == 4
        assert result.n_served == 4
        assert result.n_rejected == 0
        assert result.peak_concurrency == 3

    def test_bytes_conservation(self):
        trace = small_workload()
        result = replay_trace(trace)
        assert result.bytes_served == pytest.approx(trace.bytes_served())

    def test_admission_limit_applies(self):
        result = replay_trace(small_workload(), max_concurrent=2)
        assert result.n_rejected == 1
        assert result.peak_concurrency == 2

    def test_empty_trace_rejected(self):
        with pytest.raises(SimulationError):
            replay_trace(small_workload().filter(np.zeros(4, dtype=bool)))

    def test_nonpositive_limit_rejected(self):
        with pytest.raises(ConfigError):
            replay_trace(small_workload(), max_concurrent=0)


class TestServerAdmission:
    def test_serves_everything_without_limit(self):
        result = replay_trace(build_trace([
            (0, 0, 0.0, 10.0, 1_000.0),
            (0, 1, 5.0, 10.0, 1_000.0),
        ]))
        assert result.n_served == 2
        assert result.n_rejected == 0
        assert result.peak_concurrency == 2

    def test_bytes_served_accounting(self):
        # 8 s x 1 kbit/s = 1 kB
        result = replay_trace(build_trace([(0, 0, 0.0, 8.0, 1_000.0)]))
        assert result.bytes_served == pytest.approx(1_000.0)

    def test_admission_control_rejects_over_limit(self):
        result = replay_trace(build_trace([
            (0, 0, 0.0, 10.0),
            (0, 1, 5.0, 10.0),   # arrives while the first is active
            (0, 2, 20.0, 10.0),  # after the first completes
        ]), max_concurrent=1)
        assert result.n_served == 2
        assert result.n_rejected == 1
        assert result.rejected_times == [5.0]
        assert result.rejection_rate == pytest.approx(1 / 3)

    def test_completion_frees_capacity(self):
        result = replay_trace(build_trace([
            (0, 0, 0.0, 5.0),
            (0, 1, 5.0, 5.0),  # first completes exactly at its arrival
        ]), max_concurrent=1)
        assert result.n_rejected == 0

    def test_zero_duration_never_occupies(self):
        trace = zero_duration_workload()
        assert replay_trace(trace).peak_concurrency == demand_peak(trace) == 2

    def test_zero_duration_decided_against_the_limit(self):
        result = replay_trace(zero_duration_workload(), max_concurrent=2)
        assert result.rejected_times == [5.0]
        assert result.peak_concurrency == 2


class TestReplayResult:
    def test_empty_rejection_rate(self):
        assert ReplayResult().rejection_rate == 0.0


class TestDemandPeak:
    def test_matches_replay_peak(self):
        trace = small_workload()
        assert demand_peak(trace) == replay_trace(trace).peak_concurrency

    def test_empty_trace(self):
        trace = small_workload().filter(np.zeros(4, dtype=bool))
        assert demand_peak(trace) == 0

    def test_smoke_consistency(self, smoke_trace):
        peak = demand_peak(smoke_trace)
        result = replay_trace(smoke_trace)
        assert result.peak_concurrency == peak


class TestProvisioningSweep:
    def test_rejections_decrease_with_capacity(self):
        trace = small_workload()
        sweep = provisioning_sweep(trace, [1, 2, 3])
        rejected = [result.n_rejected for _, result in sweep]
        assert rejected == sorted(rejected, reverse=True)
        assert sweep[-1][1].n_rejected == 0

    def test_limits_echoed(self):
        sweep = provisioning_sweep(small_workload(), [2])
        assert sweep[0][0] == 2
