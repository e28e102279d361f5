"""Property-based tests of the streaming pipeline's exactness contracts.

The online sessionizer and the streaming log writer must match their
batch counterparts bit for bit on *any* input and *any* batching —
including exact timeout-boundary gaps (integer grids make ``gap == T_o``
common) and heavily interleaved clients.  Checkpoint round trips must be
transparent: state serialized mid-stream and restored into a fresh
consumer continues to the identical result.  Display-length counts
accumulated in batches and merged in any order give the batch lognormal
fit's moments exactly.
"""

import io
import json
from functools import lru_cache

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.model import LiveWorkloadModel
from repro.core.sessionizer import sessionize
from repro.distributions.fitting import fit_lognormal
from repro.parallel.engine import generate_sharded
from repro.stream import GenerationStream, OnlineSessionizer, merge_finalized
from repro.trace.streaming import OnlineLogMoments
from repro.trace.wms_log import StreamingWmsLogWriter, _table_identity, write_wms_log
from repro.units import log_display_time
from tests.conftest import build_trace

# Integer grids make exact-timeout gaps (gap == T_o, not a boundary) and
# end-time ties (the writer's stable-order stressor) likely.
int_transfer_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),        # client
        st.integers(min_value=0, max_value=1),        # object
        st.integers(min_value=0, max_value=400),      # start
        st.integers(min_value=0, max_value=50),       # duration
    ),
    min_size=1, max_size=60,
)

int_timeouts = st.integers(min_value=1, max_value=40)


def _split_batches(data, n):
    """Draw cut points over ``range(n)`` including empty batches."""
    cuts = data.draw(st.lists(st.integers(min_value=0, max_value=n),
                              max_size=6), label="cuts")
    return [0, *sorted(cuts), n]


def _push_all(sessionizer, trace, cutpoints, *, with_horizon, gaps=None):
    """Push the batches; with a ``gaps`` list, through ``push_with_gaps``
    and collecting each batch's gaps into it."""
    parts = []
    n = len(trace)
    for lo, hi in zip(cutpoints, cutpoints[1:], strict=False):
        if with_horizon:
            horizon = float(trace.start[hi]) if hi < n else np.inf
        else:
            horizon = None
        columns = (trace.client_index[lo:hi], trace.start[lo:hi],
                   trace.duration[lo:hi])
        if gaps is None:
            parts.append(sessionizer.push(*columns, horizon=horizon))
        else:
            finalized, batch_gaps = sessionizer.push_with_gaps(
                *columns, horizon=horizon)
            parts.append(finalized)
            gaps.append(batch_gaps)
    parts.append(sessionizer.finish())
    return parts


def _assert_columns_equal(finalized, sessions):
    client, start, end, count = sessions.session_columns()
    np.testing.assert_array_equal(finalized.client_index, client)
    np.testing.assert_array_equal(finalized.start, start)
    np.testing.assert_array_equal(finalized.end, end)
    np.testing.assert_array_equal(finalized.n_transfers, count)
    assert finalized.client_index.dtype == client.dtype
    assert finalized.start.dtype == start.dtype
    assert finalized.end.dtype == end.dtype
    assert finalized.n_transfers.dtype == count.dtype


@given(transfers=int_transfer_lists, timeout=int_timeouts, data=st.data())
@settings(max_examples=200, deadline=None)
def test_online_matches_batch_bit_for_bit(transfers, timeout, data):
    trace = build_trace(transfers, n_clients=5, extent=10_000.0)
    cutpoints = _split_batches(data, len(trace))
    with_horizon = data.draw(st.booleans(), label="with_horizon")
    sessionizer = OnlineSessionizer(trace.n_clients, timeout=float(timeout))
    parts = _push_all(sessionizer, trace, cutpoints,
                      with_horizon=with_horizon)
    merged = merge_finalized(parts)
    batch = sessionize(trace, float(timeout))
    _assert_columns_equal(merged, batch)
    assert sessionizer.n_transfers == len(trace)
    assert sessionizer.n_finalized == batch.n_sessions
    assert sessionizer.n_open == 0

    # The same batches through push_with_gaps: same sessions, and the
    # gaps are the batch intra-session interarrivals (horizons included,
    # so clients evicted and seen again are covered).
    gapped = OnlineSessionizer(trace.n_clients, timeout=float(timeout))
    gaps = [np.empty(0)]
    _assert_columns_equal(merge_finalized(_push_all(
        gapped, trace, cutpoints, with_horizon=with_horizon, gaps=gaps)),
        batch)
    np.testing.assert_array_equal(
        np.sort(np.concatenate(gaps)),
        np.sort(batch.intra_session_interarrivals()))


@given(transfers=int_transfer_lists, timeout=int_timeouts, data=st.data())
@settings(max_examples=100, deadline=None)
def test_single_client_interleaved_feeds(transfers, timeout, data):
    # Everything on one client: maximal overlap, running-max stressing.
    collapsed = [(0, obj, start, dur) for _, obj, start, dur in transfers]
    trace = build_trace(collapsed, n_clients=1, extent=10_000.0)
    cutpoints = _split_batches(data, len(trace))
    sessionizer = OnlineSessionizer(1, timeout=float(timeout))
    merged = merge_finalized(_push_all(sessionizer, trace, cutpoints,
                                       with_horizon=True))
    _assert_columns_equal(merged, sessionize(trace, float(timeout)))


@given(transfers=int_transfer_lists, timeout=int_timeouts, data=st.data())
@settings(max_examples=100, deadline=None)
def test_checkpoint_roundtrip_is_transparent(transfers, timeout, data):
    """Serializing the open-session table mid-stream and restoring it into
    a fresh sessionizer yields the identical finalized sessions."""
    trace = build_trace(transfers, n_clients=5, extent=10_000.0)
    n = len(trace)
    split = data.draw(st.integers(min_value=0, max_value=n), label="split")

    first = OnlineSessionizer(trace.n_clients, timeout=float(timeout))
    head = [first.push(trace.client_index[:split], trace.start[:split],
                       trace.duration[:split],
                       horizon=float(trace.start[split])
                       if split < n else np.inf)]
    # The JSON round trip is part of the contract: checkpoint meta is
    # stored as JSON and floats must survive exactly.
    meta = json.loads(json.dumps(first.state_meta()))
    arrays = first.state_arrays()

    second = OnlineSessionizer(trace.n_clients, timeout=float(timeout))
    second.restore(meta, arrays)
    cutpoints = [split + c for c in
                 _split_batches(data, n - split)]
    tail = _push_all(second, trace, cutpoints, with_horizon=True)
    merged = merge_finalized(head + tail)
    _assert_columns_equal(merged, sessionize(trace, float(timeout)))
    assert second.n_transfers == n


_GEN_SEED = 4242
_GEN_DAYS = 0.5
_GEN_BLOCKS = 6


@lru_cache(maxsize=1)
def _generated_workload():
    model = LiveWorkloadModel.paper_defaults(mean_session_rate=0.01,
                                             n_clients=100)
    trace = generate_sharded(model, _GEN_DAYS, seed=_GEN_SEED,
                             blocks=_GEN_BLOCKS).trace
    return model, trace


@given(chunk_size=st.integers(min_value=1, max_value=40))
@settings(max_examples=15, deadline=None)
def test_generator_horizons_drive_consumers_exactly(chunk_size):
    """The horizons the generator actually stamps on its batches — not
    hand-built next-batch-start bounds — retire consumer state without
    changing results: log bytes and sessions match the batch path for
    any chunk size, including sibling batches within one block (a batch
    of a split block must bound its siblings' starts, not the block
    emit horizon)."""
    model, trace = _generated_workload()
    want_log = io.StringIO()
    write_wms_log(trace, want_log)

    stream = GenerationStream(model, _GEN_DAYS, seed=_GEN_SEED,
                              chunk_size=chunk_size, blocks=_GEN_BLOCKS)
    got_log = io.StringIO()
    writer = StreamingWmsLogWriter(got_log, _table_identity(trace))
    sessionizer = OnlineSessionizer(model.n_clients)
    parts = []
    saw_split_block = False
    for step in stream.block_steps():
        saw_split_block = saw_split_block or len(step) > 1
        for batch in step:
            writer.push(client_index=batch.client_index,
                        object_id=batch.object_id,
                        start=batch.start, duration=batch.duration,
                        bandwidth_bps=batch.bandwidth_bps,
                        global_offset=batch.global_offset,
                        horizon=batch.horizon)
            parts.append(sessionizer.push_batch(batch))
    assert writer.finish() == trace.n_transfers
    parts.append(sessionizer.finish())
    # Pigeonhole: if the trace outnumbers blocks * chunk, some block
    # must have split into sibling batches — the regression case.
    if trace.n_transfers > _GEN_BLOCKS * chunk_size:
        assert saw_split_block
    assert got_log.getvalue() == want_log.getvalue()
    _assert_columns_equal(merge_finalized(parts), sessionize(trace))


@given(transfers=int_transfer_lists, data=st.data())
@settings(max_examples=100, deadline=None)
def test_streaming_writer_bytes_identical(transfers, data):
    """Pushing in arbitrary start-ordered batches with valid horizons
    writes byte-identical logs to the one-shot batch writer — including
    end-time ties, which the integer grid makes frequent."""
    trace = build_trace(transfers, n_clients=5, extent=10_000.0)
    want = io.StringIO()
    write_wms_log(trace, want)

    got = io.StringIO()
    writer = StreamingWmsLogWriter(got, _table_identity(trace))
    n = len(trace)
    cutpoints = _split_batches(data, n)
    for lo, hi in zip(cutpoints, cutpoints[1:], strict=False):
        horizon = float(trace.start[hi]) if hi < n else np.inf
        writer.push(
            client_index=trace.client_index[lo:hi],
            object_id=trace.object_id[lo:hi],
            start=trace.start[lo:hi], duration=trace.duration[lo:hi],
            bandwidth_bps=trace.bandwidth_bps[lo:hi],
            packet_loss=trace.packet_loss[lo:hi],
            server_cpu=trace.server_cpu[lo:hi],
            status=trace.status[lo:hi],
            global_offset=lo, horizon=horizon)
    assert writer.finish() == n
    assert got.getvalue() == want.getvalue()
    assert writer.n_buffered == 0


# Small whole seconds repeat display values; wide floats spread them.
lengths_lists = st.lists(
    st.one_of(st.integers(min_value=0, max_value=30).map(float),
              st.floats(min_value=0.0, max_value=1e6)),
    min_size=2, max_size=80)


@given(lengths=lengths_lists, data=st.data())
@settings(max_examples=200, deadline=None)
def test_merged_log_moments_equal_batch_fit(lengths, data):
    """Batched, merged-in-any-order counts fit like ``fit_lognormal``."""
    displays = log_display_time(lengths)
    assume(np.unique(displays).size >= 2)
    cuts = _split_batches(data, len(lengths))
    parts = []
    for lo, hi in zip(cuts, cuts[1:], strict=False):
        part = OnlineLogMoments()
        part.add_lengths(np.asarray(lengths[lo:hi]))
        parts.append(part)
    merged = OnlineLogMoments()
    for k in data.draw(st.permutations(range(len(parts))), label="order"):
        merged.merge(parts[k])
    fit = fit_lognormal(displays)
    assert merged.moments() == (fit.mu, fit.sigma)
