"""Deterministic-seed tests for the simulation engine.

The conformance registry (:mod:`repro.conform`) pins content hashes, so
everything feeding a trace must be bit-reproducible under a fixed seed:
admission-control decisions and the persisted-trace round trip.
"""

import numpy as np

from repro.core.gismo import LiveWorkloadGenerator
from repro.core.model import LiveWorkloadModel
from repro.simulation.replay import replay_trace


def seeded_trace(seed=11):
    model = LiveWorkloadModel.paper_defaults(mean_session_rate=0.01,
                                             n_clients=300)
    return LiveWorkloadGenerator(model).generate(1, seed=seed).trace


class TestRejectionDeterminism:
    def test_identical_runs_reject_identically(self):
        trace = seeded_trace()
        first = replay_trace(trace, max_concurrent=3)
        second = replay_trace(trace, max_concurrent=3)
        assert first.n_rejected > 0  # the limit actually binds
        assert first.n_served == second.n_served
        assert first.rejected_times == second.rejected_times

    def test_same_seed_same_trace_same_outcome(self):
        a = replay_trace(seeded_trace(), max_concurrent=3)
        b = replay_trace(seeded_trace(), max_concurrent=3)
        assert a.n_rejected == b.n_rejected
        assert a.rejected_times == b.rejected_times

    def test_different_seed_differs(self):
        a = replay_trace(seeded_trace(11), max_concurrent=3)
        b = replay_trace(seeded_trace(12), max_concurrent=3)
        assert a.rejected_times != b.rejected_times


class TestReplayRoundTrip:
    def test_npz_round_trip_preserves_replay(self, tmp_path):
        from repro.trace.store import Trace

        trace = seeded_trace()
        path = tmp_path / "trace.npz"
        trace.save_npz(path)
        loaded = Trace.load_npz(path)
        np.testing.assert_array_equal(loaded.start, trace.start)
        np.testing.assert_array_equal(loaded.duration, trace.duration)
        direct = replay_trace(trace, max_concurrent=3)
        reloaded = replay_trace(loaded, max_concurrent=3)
        assert direct.n_served == reloaded.n_served
        assert direct.n_rejected == reloaded.n_rejected
        assert direct.peak_concurrency == reloaded.peak_concurrency
        assert direct.bytes_served == reloaded.bytes_served
        assert direct.rejected_times == reloaded.rejected_times
