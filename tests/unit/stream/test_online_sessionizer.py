"""Unit tests for the online (single-pass) sessionizer."""

import numpy as np
import pytest

from repro.core.model import LiveWorkloadModel
from repro.core.sessionizer import sessionize
from repro.errors import AnalysisError, CheckpointError
from repro.parallel import generate_sharded
from repro.stream import FinalizedSessions, OnlineSessionizer, merge_finalized
from repro.stream.sessionize import merge_parts
from repro.trace.streaming import OnlineLogMoments
from tests.conftest import build_trace

SEED = 20260808


@pytest.fixture(scope="module")
def small_trace():
    model = LiveWorkloadModel.paper_defaults(mean_session_rate=0.05,
                                             n_clients=120)
    return generate_sharded(model, 1.0, seed=SEED).trace


def _push_whole(sessionizer, trace):
    parts = [sessionizer.push(trace.client_index, trace.start,
                              trace.duration),
             sessionizer.finish()]
    return merge_finalized(parts)


def test_matches_batch_on_tiny_trace(tiny_trace):
    sessionizer = OnlineSessionizer(tiny_trace.n_clients)
    merged = _push_whole(sessionizer, tiny_trace)
    client, start, end, count = sessionize(tiny_trace).session_columns()
    np.testing.assert_array_equal(merged.client_index, client)
    np.testing.assert_array_equal(merged.start, start)
    np.testing.assert_array_equal(merged.end, end)
    np.testing.assert_array_equal(merged.n_transfers, count)
    assert merged.n_sessions == 3


def test_exact_timeout_gap_is_not_a_boundary():
    # Batch semantics: a new session needs gap *strictly* greater than
    # T_o.  gap == 100 joins; gap == 100 + epsilon splits.
    trace = build_trace([(0, 0, 0.0, 10.0), (0, 0, 110.0, 10.0)],
                        n_clients=1, extent=1_000.0)
    joined = _push_whole(OnlineSessionizer(1, timeout=100.0), trace)
    assert joined.n_sessions == 1
    split = _push_whole(OnlineSessionizer(1, timeout=99.999), trace)
    assert split.n_sessions == 2


def test_eviction_is_content_transparent(tiny_trace):
    """Horizon-driven eviction changes *when* sessions are emitted, never
    what they contain."""
    lazy = OnlineSessionizer(tiny_trace.n_clients)
    eager = OnlineSessionizer(tiny_trace.n_clients)
    lazy_parts, eager_parts = [], []
    n = len(tiny_trace)
    for k in range(n):
        sl = slice(k, k + 1)
        horizon = float(tiny_trace.start[k + 1]) if k + 1 < n else np.inf
        lazy_parts.append(lazy.push(
            tiny_trace.client_index[sl], tiny_trace.start[sl],
            tiny_trace.duration[sl]))
        eager_parts.append(eager.push(
            tiny_trace.client_index[sl], tiny_trace.start[sl],
            tiny_trace.duration[sl], horizon=horizon))
    lazy_parts.append(lazy.finish())
    eager_parts.append(eager.finish())
    a = merge_finalized(lazy_parts)
    b = merge_finalized(eager_parts)
    np.testing.assert_array_equal(a.client_index, b.client_index)
    np.testing.assert_array_equal(a.start, b.start)
    np.testing.assert_array_equal(a.end, b.end)
    np.testing.assert_array_equal(a.n_transfers, b.n_transfers)


def test_eviction_bounds_open_table():
    # 50 clients, one early burst each, then one late transfer: after the
    # horizon passes, the early sessions must all be evicted.
    rows = [(c, 0, float(c), 1.0) for c in range(50)]
    rows.append((0, 0, 10_000.0, 1.0))
    trace = build_trace(rows, n_clients=50, extent=20_000.0)
    sessionizer = OnlineSessionizer(50, timeout=100.0)
    sessionizer.push(trace.client_index[:50], trace.start[:50],
                     trace.duration[:50], horizon=10_000.0)
    assert sessionizer.n_open == 0
    assert sessionizer.n_finalized == 50
    sessionizer.push(trace.client_index[50:], trace.start[50:],
                     trace.duration[50:])
    final = sessionizer.finish()
    assert final.n_sessions == 1
    assert sessionizer.peak_open == 50


def test_empty_batches_are_harmless(tiny_trace):
    sessionizer = OnlineSessionizer(tiny_trace.n_clients)
    empty = np.empty(0)
    out = sessionizer.push(empty.astype(np.int64), empty, empty)
    assert out.n_sessions == 0
    merged = _push_whole(sessionizer, tiny_trace)
    assert merged.n_sessions == 3


def test_transfer_index_tracking(tiny_trace):
    sessionizer = OnlineSessionizer(tiny_trace.n_clients,
                                    track_transfer_indices=True)
    parts = [sessionizer.push(tiny_trace.client_index, tiny_trace.start,
                              tiny_trace.duration, global_offset=0),
             sessionizer.finish()]
    merged = merge_finalized(parts)
    records = list(merged.iter_records())
    assert len(records) == 3
    batch = sessionize(tiny_trace)
    for k, record in enumerate(records):
        want = np.flatnonzero(batch.transfer_session
                              == k).tolist()
        assert sorted(record.transfer_indices) == want
        assert record.client_index == int(batch.session_client[k])


def test_iter_records_requires_tracking(tiny_trace):
    merged = _push_whole(OnlineSessionizer(tiny_trace.n_clients),
                         tiny_trace)
    with pytest.raises(AnalysisError, match="track_transfer_indices"):
        list(merged.iter_records())


def test_tracking_requires_offset(tiny_trace):
    sessionizer = OnlineSessionizer(tiny_trace.n_clients,
                                    track_transfer_indices=True)
    with pytest.raises(AnalysisError, match="global_offset"):
        sessionizer.push(tiny_trace.client_index, tiny_trace.start,
                         tiny_trace.duration)


def test_tracking_refuses_checkpointing(tiny_trace):
    sessionizer = OnlineSessionizer(tiny_trace.n_clients,
                                    track_transfer_indices=True)
    with pytest.raises(CheckpointError, match="transfer-index"):
        sessionizer.state_meta()


def test_input_validation(tiny_trace):
    with pytest.raises(AnalysisError, match="n_clients"):
        OnlineSessionizer(0)
    with pytest.raises(AnalysisError, match="timeout"):
        OnlineSessionizer(1, timeout=0.0)
    sessionizer = OnlineSessionizer(2)
    with pytest.raises(AnalysisError, match="equal lengths"):
        sessionizer.push(np.asarray([0]), np.asarray([1.0, 2.0]),
                         np.asarray([1.0, 1.0]))
    with pytest.raises(AnalysisError, match="non-decreasing"):
        sessionizer.push(np.asarray([0, 0]), np.asarray([2.0, 1.0]),
                         np.asarray([1.0, 1.0]))
    with pytest.raises(AnalysisError, match="out of range"):
        sessionizer.push(np.asarray([5]), np.asarray([1.0]),
                         np.asarray([1.0]))
    sessionizer.push(np.asarray([0]), np.asarray([10.0]),
                     np.asarray([1.0]))
    with pytest.raises(AnalysisError, match="global start order"):
        sessionizer.push(np.asarray([0]), np.asarray([5.0]),
                         np.asarray([1.0]))


def test_restore_validates(tiny_trace):
    a = OnlineSessionizer(2, timeout=100.0)
    meta, arrays = a.state_meta(), a.state_arrays()
    with pytest.raises(CheckpointError, match="clients"):
        OnlineSessionizer(3, timeout=100.0).restore(meta, arrays)
    with pytest.raises(CheckpointError, match="timeout"):
        OnlineSessionizer(2, timeout=200.0).restore(meta, arrays)
    with pytest.raises(CheckpointError, match="missing sessionizer state"):
        OnlineSessionizer(2, timeout=100.0).restore(meta, {})
    for name in arrays:
        short = dict(arrays, **{name: arrays[name][:1]})
        with pytest.raises(CheckpointError, match=name):
            OnlineSessionizer(2, timeout=100.0).restore(meta, short)


def test_merge_helpers_handle_empty():
    assert merge_finalized([]).n_sessions == 0
    assert merge_parts([]).n_sessions == 0
    empty = merge_finalized([])
    assert isinstance(empty, FinalizedSessions)
    assert merge_parts([empty]) is empty


def _push_with_gaps(sessionizer, trace, step):
    """Push ``trace`` in ``step``-row batches; returns (sessions, gaps)."""
    parts, gaps = [], []
    for lo in range(0, len(trace), step):
        hi = lo + step
        finalized, batch_gaps = sessionizer.push_with_gaps(
            trace.client_index[lo:hi], trace.start[lo:hi],
            trace.duration[lo:hi],
            horizon=float(trace.start[hi]) if hi < len(trace) else None)
        parts.append(finalized)
        gaps.append(batch_gaps)
    parts.append(sessionizer.finish())
    return merge_finalized(parts), np.concatenate(gaps)


def test_push_with_gaps_matches_batch_interarrivals(small_trace):
    trace = small_trace
    sessions = sessionize(trace, timeout=1500.0)
    expected = sessions.intra_session_interarrivals()
    displays = np.floor(np.maximum(expected, 0.0)).astype(np.int64) + 1
    reference = OnlineLogMoments()
    values, counts = np.unique(displays, return_counts=True)
    for value, count in zip(values.tolist(), counts.tolist(), strict=True):
        reference.counts[value] = count

    # Uneven batches: the gaps must not depend on the batching.
    merged, gaps = _push_with_gaps(OnlineSessionizer(
        trace.n_clients, timeout=1500.0), trace, 997)
    np.testing.assert_array_equal(np.sort(gaps), np.sort(expected))
    live = OnlineLogMoments()
    live.add_lengths(gaps)
    assert live.moments() == reference.moments()
    assert merged.n_sessions == sessions.n_sessions


def test_grow_preserves_gaps(small_trace):
    trace = small_trace
    grown = OnlineSessionizer(1, timeout=1500.0)
    fixed = OnlineSessionizer(trace.n_clients, timeout=1500.0)
    for lo in range(0, trace.n_transfers, 4096):
        hi = min(lo + 4096, trace.n_transfers)
        top = int(trace.client_index[lo:hi].max()) + 1
        if top > grown.n_clients:
            grown.grow(top)
        columns = (trace.client_index[lo:hi], trace.start[lo:hi],
                   trace.duration[lo:hi])
        a, a_gaps = grown.push_with_gaps(*columns)
        b, b_gaps = fixed.push_with_gaps(*columns)
        np.testing.assert_array_equal(a_gaps, b_gaps)
        np.testing.assert_array_equal(a.start, b.start)


def test_checkpoint_round_trip_continues_gaps(small_trace):
    trace = small_trace
    half = trace.n_transfers // 2
    a = OnlineSessionizer(trace.n_clients, timeout=1500.0)
    a.push(trace.client_index[:half], trace.start[:half],
           trace.duration[:half])
    b = OnlineSessionizer(trace.n_clients, timeout=1500.0)
    b.restore(a.state_meta(), a.state_arrays())
    tail = (trace.client_index[half:], trace.start[half:],
            trace.duration[half:])
    a_sessions, a_gaps = a.push_with_gaps(*tail)
    b_sessions, b_gaps = b.push_with_gaps(*tail)
    assert a_gaps.size > 0
    np.testing.assert_array_equal(a_gaps, b_gaps)
    np.testing.assert_array_equal(a_sessions.start, b_sessions.start)


def test_restore_with_gaps_rejects_mismatched_timeout(small_trace):
    trace = small_trace
    a = OnlineSessionizer(trace.n_clients, timeout=1500.0)
    a.push_with_gaps(trace.client_index, trace.start, trace.duration)
    with pytest.raises(CheckpointError, match="timeout"):
        OnlineSessionizer(trace.n_clients, timeout=60.0).restore(
            a.state_meta(), a.state_arrays())
