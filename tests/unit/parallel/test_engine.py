"""Unit tests for the sharded generation engine (repro.parallel.engine)."""

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
    @pytest.mark.parametrize("shards", [1, 2, 5])
    def test_shard_count_invariant(self, model, serial, shards):
        sharded = generate_sharded(model, 1, seed=11, shards=shards)
        assert_workloads_identical(serial, sharded)

    def test_worker_count_invariant(self, model, serial):
        pooled = generate_sharded(model, 1, seed=11, shards=3, jobs=2)
        assert_workloads_identical(serial, pooled)

    def test_rerunning_a_spec_reproduces(self, model):
        # Stateless child-seed derivation: executing the same spec twice
        # must give the same transfers (spawn counters never mutate).
        spec = plan_generation(model, 1, seed=11, shards=2).shards[0]
        a = generate_shard(spec)
        b = generate_shard(spec)
        np.testing.assert_array_equal(a.start, b.start)
        np.testing.assert_array_equal(a.duration, b.duration)
        np.testing.assert_array_equal(a.transfer_session, b.transfer_session)

    def test_different_seeds_differ(self, model, serial):
        other = generate_sharded(model, 1, seed=12, shards=3)
        assert not np.array_equal(serial.trace.start, other.trace.start)


class TestStructure:
    def test_trace_start_sorted(self, model):
        workload = generate_sharded(model, 1, seed=11, shards=4)
        assert np.all(np.diff(workload.trace.start) >= 0)

    def test_transfer_session_consistent_with_clients(self, model):
        workload = generate_sharded(model, 1, seed=11, shards=4)
        np.testing.assert_array_equal(
            workload.trace.client_index,
            workload.session_client[workload.transfer_session])

    def test_empty_shards_tolerated(self, model):
        # Far more shards than blocks: the surplus shards are empty and
        # merge as empty traces.
        workload = generate_sharded(model, 1, seed=11, shards=80, blocks=4)
        reference = generate_sharded(model, 1, seed=11, shards=1, blocks=4)
        assert_workloads_identical(reference, workload)

    def test_invalid_jobs(self, model):
        with pytest.raises(ValueError):
            generate_sharded(model, 1, seed=1, jobs=0)


class TestLogging:
    def test_shard_progress_logged(self, model, caplog):
        with caplog.at_level(logging.INFO, logger="repro.parallel"):
            generate_sharded(model, 1, seed=11, shards=2)
        messages = [record.message for record in caplog.records]
        assert any("2 shard(s)" in message for message in messages)
        assert any("merged" in message for message in messages)
