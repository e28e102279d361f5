"""Unit tests for repro.cdn.engine: the conservation laws and failover.

The load-bearing invariant: splitting a workload across edges must
conserve the single-box characterization exactly — every transfer
served by exactly one edge at a time, and the per-edge concurrency
profiles summing sample-for-sample to the single-box profile, failures
included.
"""

import numpy as np
import pytest

from repro.analysis.concurrency import sampled_concurrency
from repro.cdn import (
    CdnTopology,
    EdgeFailure,
    FailurePlan,
    simulate_cdn,
)
from repro.core.gismo import LiveWorkloadGenerator
from repro.core.model import LiveWorkloadModel
from repro.errors import CdnError
from tests.conftest import build_trace

STEP = 60.0


@pytest.fixture(scope="module")
def workload():
    model = LiveWorkloadModel.paper_defaults(mean_session_rate=0.02,
                                             n_clients=400)
    return LiveWorkloadGenerator(model).generate(1.0, seed=7)


@pytest.fixture(scope="module")
def trace(workload):
    return workload.trace


@pytest.fixture(scope="module")
def single_box(trace):
    return sampled_concurrency(trace.start, trace.end,
                               extent=trace.extent, step=STEP)


@pytest.fixture(scope="module")
def peak_failure(single_box):
    """An edge-0 failure placed at the workload's peak concurrency."""
    t_fail = float(np.argmax(single_box)) * STEP + STEP / 2
    return FailurePlan((EdgeFailure(edge=0, at=t_fail),))


def summed_concurrency(result):
    total = np.zeros_like(result.edges[0].sampled_concurrency)
    for edge in result.edges:
        total = total + edge.sampled_concurrency
    return total


class TestConservation:
    @pytest.mark.parametrize("policy",
                             ["as-hash", "sticky", "least-loaded"])
    def test_uncapped_edges_partition_the_single_box(
            self, trace, single_box, policy):
        result = simulate_cdn(trace, CdnTopology.uniform(4), policy=policy,
                              step=STEP)
        assert result.n_rejected == 0
        assert result.n_admitted == trace.n_transfers
        assert np.array_equal(single_box, summed_concurrency(result))

    def test_partition_survives_edge_failure(self, trace, single_box,
                                             peak_failure):
        result = simulate_cdn(trace, CdnTopology.uniform(4),
                              policy="as-hash", failures=peak_failure,
                              step=STEP)
        assert result.n_reassigned > 0
        assert result.n_rejected == 0
        # Truncated legs plus failover legs still tile every transfer's
        # service interval exactly.
        assert np.array_equal(single_box, summed_concurrency(result))
        assert result.n_admitted == \
            trace.n_transfers + result.n_reassigned

    def test_single_edge_matches_single_box(self, trace, single_box):
        result = simulate_cdn(trace, CdnTopology.uniform(1),
                              policy="sticky", step=STEP)
        assert np.array_equal(single_box,
                              result.edges[0].sampled_concurrency)


class TestAssignmentBehavior:
    def test_sticky_pins_clients_to_edges(self, trace):
        result = simulate_cdn(trace, CdnTopology.uniform(4),
                              policy="sticky")
        clients = trace.client_index[result.legs.transfer]
        for client in np.unique(clients)[:50]:
            edges = np.unique(result.legs.edge[clients == client])
            assert edges.size == 1

    def test_policies_are_deterministic(self, trace):
        topo = CdnTopology.uniform(3, max_connections=16)
        a = simulate_cdn(trace, topo, policy="as-hash")
        b = simulate_cdn(trace, topo, policy="as-hash")
        assert np.array_equal(a.legs.transfer, b.legs.transfer)
        assert np.array_equal(a.legs.edge, b.legs.edge)
        assert np.array_equal(a.legs.admitted, b.legs.admitted)

    def test_unknown_policy_rejected(self, trace):
        with pytest.raises(CdnError, match="unknown assignment policy"):
            simulate_cdn(trace, CdnTopology.uniform(2), policy="bogus")

    def test_least_loaded_balances_better_than_hash(self, trace):
        topo = CdnTopology.uniform(4)
        hashed = simulate_cdn(trace, topo, policy="as-hash")
        balanced = simulate_cdn(trace, topo, policy="least-loaded")

        def spread(result):
            counts = [e.n_admitted for e in result.edges]
            return max(counts) - min(counts)

        assert spread(balanced) <= spread(hashed)


class TestAdmissionUnderLoad:
    def test_connection_cap_bounds_every_edge(self, trace):
        result = simulate_cdn(trace, CdnTopology.uniform(2,
                                                         max_connections=8),
                              policy="as-hash")
        assert result.n_rejected > 0
        for edge in result.edges:
            assert edge.peak_connections <= 8
            assert float(edge.sampled_concurrency.max()) <= 8

    def test_bandwidth_cap_bounds_every_edge(self, trace):
        result = simulate_cdn(trace, CdnTopology.uniform(2,
                                                         bandwidth_bps=2e6),
                              policy="sticky")
        assert result.n_rejected > 0
        for edge in result.edges:
            assert edge.peak_bandwidth_bps <= 2_000_000

    def test_rejections_shrink_with_more_edges(self, trace):
        def rejected(n_edges):
            return simulate_cdn(
                trace, CdnTopology.uniform(n_edges, max_connections=6),
                policy="as-hash").n_rejected

        assert rejected(4) < rejected(1)


class TestFailureSensitivity:
    """Falsifiable checks: a failure must *visibly* shift the metrics."""

    def test_failure_raises_rejections_on_capped_survivors(
            self, trace, peak_failure):
        topo = CdnTopology.uniform(4, max_connections=8)
        baseline = simulate_cdn(trace, topo, policy="as-hash")
        failed = simulate_cdn(trace, topo, policy="as-hash",
                              failures=peak_failure)
        assert baseline.n_reassigned == 0
        assert failed.n_reassigned > 0
        # The surviving edges absorb the dead edge's audience: strictly
        # more rejections than the healthy tier.
        assert failed.n_rejected > baseline.n_rejected

    def test_no_requests_land_on_a_down_edge(self, trace, peak_failure):
        result = simulate_cdn(trace, CdnTopology.uniform(4),
                              policy="as-hash", failures=peak_failure)
        t_fail = peak_failure.failures[0].at
        legs = result.legs
        on_dead = legs.edge == 0
        # Every leg on edge 0 ends by the failure instant (truncated),
        # and no new request starts there afterwards.
        assert float(legs.end[on_dead].max()) <= t_fail
        assert float(legs.start[on_dead].max()) < t_fail

    def test_recovered_edge_takes_traffic_again(self, trace, single_box):
        t_fail = float(np.argmax(single_box)) * STEP + STEP / 2
        plan = FailurePlan((EdgeFailure(edge=0, at=t_fail,
                                        until=t_fail + 3600.0),))
        result = simulate_cdn(trace, CdnTopology.uniform(2),
                              policy="as-hash", failures=plan)
        legs = result.legs
        after = legs.start >= t_fail + 3600.0
        if np.any(after):
            assert np.any(legs.edge[after] == 0)
        assert np.array_equal(single_box, summed_concurrency(result))

    def test_failover_legs_are_marked(self, trace, peak_failure):
        result = simulate_cdn(trace, CdnTopology.uniform(4),
                              policy="as-hash", failures=peak_failure)
        legs = result.legs
        fo = legs.failover
        assert int(fo.sum()) == result.n_reassigned
        # Failover legs start exactly at the failure boundary and never
        # sit on the dead edge.
        assert np.all(legs.start[fo] == peak_failure.failures[0].at)
        assert np.all(legs.edge[fo] != 0)


class TestRateOverflow:
    """Summed edge rates past int64 are refused, never wrapped."""

    @pytest.fixture
    def huge(self):
        # Four concurrent 2**62 bps transfers: 2**64 bps on one edge.
        return build_trace([(k, 0, 0.0, 10.0, 2.0**62) for k in range(4)])

    def test_uncapped_peak_refused(self, huge):
        with pytest.raises(CdnError, match="int64"):
            simulate_cdn(huge, CdnTopology.uniform(1))

    def test_capped_admission_refused(self, huge):
        with pytest.raises(CdnError, match="int64"):
            simulate_cdn(huge, CdnTopology.uniform(1, bandwidth_bps=2**62))
