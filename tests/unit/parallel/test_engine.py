"""Unit tests for the block-parallel generation engine (repro.parallel.engine)."""

import logging

import numpy as np
import pytest

from repro.core.gismo import LiveWorkloadGenerator
from repro.core.model import LiveWorkloadModel
from repro.parallel.engine import generate_shard, generate_sharded
from repro.parallel.plan import plan_generation


@pytest.fixture(scope="module")
def model():
    return LiveWorkloadModel.paper_defaults(mean_session_rate=0.008,
                                            n_clients=150)


@pytest.fixture(scope="module")
def serial(model):
    return LiveWorkloadGenerator(model).generate(1, seed=11)


def assert_workloads_identical(a, b):
    """Bit-for-bit equality of two generated workloads."""
    np.testing.assert_array_equal(a.trace.start, b.trace.start)
    np.testing.assert_array_equal(a.trace.duration, b.trace.duration)
    np.testing.assert_array_equal(a.trace.client_index, b.trace.client_index)
    np.testing.assert_array_equal(a.trace.object_id, b.trace.object_id)
    np.testing.assert_array_equal(a.trace.bandwidth_bps, b.trace.bandwidth_bps)
    np.testing.assert_array_equal(a.session_arrivals, b.session_arrivals)
    np.testing.assert_array_equal(a.session_client, b.session_client)
    np.testing.assert_array_equal(a.transfer_session, b.transfer_session)


class TestDeterminism:
    def test_worker_count_invariant(self, model, serial):
        pooled = generate_sharded(model, 1, seed=11, jobs=2)
        assert_workloads_identical(serial, pooled)

    def test_rerunning_a_spec_reproduces(self, model):
        # Stateless child-seed derivation: executing the same spec twice
        # must give the same transfers (spawn counters never mutate).
        spec = plan_generation(model, 1, seed=11).specs[0]
        a = generate_shard(spec)
        b = generate_shard(spec)
        np.testing.assert_array_equal(a.start, b.start)
        np.testing.assert_array_equal(a.duration, b.duration)
        np.testing.assert_array_equal(a.transfer_session, b.transfer_session)

    def test_different_seeds_differ(self, model, serial):
        other = generate_sharded(model, 1, seed=12)
        assert not np.array_equal(serial.trace.start, other.trace.start)


class TestStructure:
    def test_trace_start_sorted(self, model, serial):
        assert np.all(np.diff(serial.trace.start) >= 0)

    def test_transfer_session_consistent_with_clients(self, model, serial):
        np.testing.assert_array_equal(
            serial.trace.client_index,
            serial.session_client[serial.transfer_session])

    def test_empty_shards_tolerated(self, model):
        # Far more blocks than sessions: most block specs are empty and
        # contribute no rows, inline and pooled alike.
        plan = plan_generation(model, 1, seed=11, blocks=1024)
        assert any(block.n_sessions == 0 for block in plan.specs)
        workload = generate_sharded(model, 1, seed=11, blocks=1024, jobs=2)
        reference = generate_sharded(model, 1, seed=11, blocks=1024)
        assert_workloads_identical(reference, workload)
        assert workload.trace.n_transfers > 0

    def test_invalid_jobs(self, model):
        with pytest.raises(ValueError):
            generate_sharded(model, 1, seed=1, jobs=0)


class TestLogging:
    def test_shard_progress_logged(self, model, caplog):
        with caplog.at_level(logging.INFO, logger="repro.parallel"):
            generate_sharded(model, 1, seed=11, blocks=8)
        messages = [record.message for record in caplog.records]
        assert any("8 block(s)" in message for message in messages)
        assert any("sorted" in message for message in messages)
