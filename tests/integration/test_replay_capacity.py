"""Integration: capacity planning on a simulated workload.

Exercises the paper's motivating argument (Section 1): for live content,
admission control denies access outright, so underprovisioning is
quantifiable as denied live requests.
"""

from repro.simulation.replay import demand_peak, provisioning_sweep, replay_trace


class TestReplayConservation:
    def test_every_transfer_accounted(self, smoke_trace):
        result = replay_trace(smoke_trace)
        assert result.n_requests == len(smoke_trace)
        assert result.n_served == len(smoke_trace)
        assert result.n_rejected == 0

    def test_bytes_conserved(self, smoke_trace):
        result = replay_trace(smoke_trace)
        assert result.bytes_served == smoke_trace.bytes_served()

    def test_peak_matches_analytic_demand(self, smoke_trace):
        result = replay_trace(smoke_trace)
        assert result.peak_concurrency == demand_peak(smoke_trace)


class TestCapacityPlanning:
    def test_sweep_is_monotone(self, smoke_trace):
        peak = demand_peak(smoke_trace)
        limits = [max(peak // 8, 1), max(peak // 2, 1), peak]
        sweep = provisioning_sweep(smoke_trace, limits)
        rejections = [result.n_rejected for _, result in sweep]
        assert rejections == sorted(rejections, reverse=True)

    def test_provisioning_at_peak_denies_nothing(self, smoke_trace):
        peak = demand_peak(smoke_trace)
        sweep = provisioning_sweep(smoke_trace, [peak])
        assert sweep[0][1].n_rejected == 0

    def test_underprovisioning_denies_live_moments(self, smoke_trace):
        peak = demand_peak(smoke_trace)
        limit = max(peak // 4, 1)
        result = replay_trace(smoke_trace, max_concurrent=limit)
        assert result.n_rejected > 0
        assert result.peak_concurrency <= limit
        # Denials concentrate at busy times: rejected request times exist
        # and the served + rejected counts add up.
        assert result.n_served + result.n_rejected == result.n_requests
        assert len(result.rejected_times) == result.n_rejected
