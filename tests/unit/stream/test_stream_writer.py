"""Unit tests for the incremental WMS log writer."""

import io

import numpy as np
import pytest

from repro.core.gismo import synthetic_client_identity
from repro.errors import TraceError
from repro.trace.codecs import write_binary_trace
from repro.trace.wms_log import StreamingWmsLogWriter, _table_identity, read_wms_log, write_wms_log
from tests.conftest import build_trace


def _interleaved_trace():
    # End-time ties across clients stress the (end, position) ordering.
    return build_trace([
        (0, 0, 0.0, 10.0),
        (1, 1, 2.0, 8.0),     # ends at 10 too: tie with the row above
        (2, 0, 5.0, 100.0),
        (0, 1, 30.0, 5.0),
        (1, 0, 31.0, 4.0),    # ends at 35: tie with the row above
    ], n_clients=3, extent=200.0)


def test_batched_pushes_match_one_shot():
    trace = _interleaved_trace()
    want = io.StringIO()
    write_wms_log(trace, want)

    got = io.StringIO()
    writer = StreamingWmsLogWriter(got, _table_identity(trace))
    for k in range(len(trace)):
        sl = slice(k, k + 1)
        horizon = (float(trace.start[k + 1]) if k + 1 < len(trace)
                   else -np.inf)
        writer.push(client_index=trace.client_index[sl],
                    object_id=trace.object_id[sl],
                    start=trace.start[sl], duration=trace.duration[sl],
                    bandwidth_bps=trace.bandwidth_bps[sl],
                    packet_loss=trace.packet_loss[sl],
                    server_cpu=trace.server_cpu[sl],
                    status=trace.status[sl],
                    global_offset=k, horizon=horizon)
    assert writer.finish() == len(trace)
    assert got.getvalue() == want.getvalue()


def test_horizon_holds_entries_back():
    trace = _interleaved_trace()
    stream = io.StringIO()
    writer = StreamingWmsLogWriter(stream, _table_identity(trace))
    # Horizon 0: nothing can be proven complete yet.
    written = writer.push(
        client_index=trace.client_index, object_id=trace.object_id,
        start=trace.start, duration=trace.duration,
        bandwidth_bps=trace.bandwidth_bps, global_offset=0, horizon=0.0)
    assert written == 0
    assert writer.n_buffered == len(trace)
    # Horizon 40: the four entries ending before 40 flush; the long
    # transfer (ends at 105) stays in flight.
    written = writer.push(
        client_index=np.empty(0, dtype=np.int64),
        object_id=np.empty(0, dtype=np.int64),
        start=np.empty(0), duration=np.empty(0),
        bandwidth_bps=np.empty(0), global_offset=5, horizon=40.0)
    assert written == 4
    assert writer.n_buffered == 1
    writer.finish()
    assert writer.n_written == len(trace)


def test_state_round_trip_preserves_bytes():
    trace = _interleaved_trace()
    want = io.StringIO()
    write_wms_log(trace, want)

    first = io.StringIO()
    writer = StreamingWmsLogWriter(first, _table_identity(trace))
    writer.push(client_index=trace.client_index[:3],
                object_id=trace.object_id[:3],
                start=trace.start[:3], duration=trace.duration[:3],
                bandwidth_bps=trace.bandwidth_bps[:3],
                global_offset=0, horizon=30.0)
    meta, arrays = writer.state_meta(), writer.state_arrays()

    second = io.StringIO()
    second.write(first.getvalue())
    resumed = StreamingWmsLogWriter(second, _table_identity(trace),
                                    write_header=False)
    resumed.restore(meta, arrays)
    assert resumed.n_buffered == writer.n_buffered
    resumed.push(client_index=trace.client_index[3:],
                 object_id=trace.object_id[3:],
                 start=trace.start[3:], duration=trace.duration[3:],
                 bandwidth_bps=trace.bandwidth_bps[3:],
                 global_offset=3, horizon=np.inf)
    resumed.finish()
    assert second.getvalue() == want.getvalue()


@pytest.mark.parametrize("field", ["start", "duration"])
def test_push_refuses_a_row_that_never_ends(field):
    """A row whose ``start + duration`` is not finite could never be
    flushed: ``push`` names the first such row and its check and
    buffers nothing; the batch's admitted rows alone are written."""
    columns = {"start": np.array([1.0, 2.0, 3.0]),
               "duration": np.array([1.0, 1.0, 1.0])}
    columns[field][1:] = [np.nan, np.inf]
    stream = io.StringIO()
    writer = StreamingWmsLogWriter(
        stream, lambda k: ("10.0.0.1", "p0", "Windows_98"),
        write_header=False)
    with pytest.raises(TraceError,
                       match=f"transfer 6: {field} is not finite"):
        writer.push(client_index=np.zeros(3, dtype=np.int64),
                    object_id=np.zeros(3, dtype=np.int64),
                    bandwidth_bps=np.ones(3), global_offset=5,
                    horizon=np.inf, **columns)
    assert writer.n_buffered == 0
    writer.push(client_index=np.zeros(1, dtype=np.int64),
                object_id=np.zeros(1, dtype=np.int64),
                bandwidth_bps=np.ones(1), global_offset=5, horizon=np.inf,
                **{name: values[:1] for name, values in columns.items()})
    assert writer.finish() == 1
    assert stream.getvalue().split()[0] == "2"


def test_trace_writers_refuse_a_nan_duration(tmp_path):
    """A trace with a NaN duration is refused by both codecs' writers,
    not written short.  ``Trace`` refuses one at construction, so the
    column is poisoned afterwards."""
    trace = build_trace([(0, 0, 0.0, 10.0), (1, 0, 2.0, 5.0)])
    trace.duration[1] = np.nan
    with pytest.raises(TraceError, match="transfer 1: "):
        write_wms_log(trace, io.StringIO())
    with pytest.raises(TraceError, match="transfer 1: "):
        write_binary_trace(trace, tmp_path / "t.bin")


def test_default_columns_round_trip():
    """Omitted loss/cpu/status columns default exactly like the batch
    trace constructor (zeros and HTTP 200)."""
    trace = _interleaved_trace()
    stream = io.StringIO()
    writer = StreamingWmsLogWriter(stream, _table_identity(trace))
    writer.push(client_index=trace.client_index,
                object_id=trace.object_id,
                start=trace.start, duration=trace.duration,
                bandwidth_bps=trace.bandwidth_bps,
                global_offset=0, horizon=-np.inf)
    writer.finish()
    stream.seek(0)
    parsed = read_wms_log(stream, extent=trace.extent)
    assert np.all(parsed.status == 200)
    assert np.all(parsed.packet_loss == 0.0)


def test_synthetic_identity_formula():
    ip, player, os_name = synthetic_client_identity(0x01_02_03)
    assert ip == "10.1.2.3"
    assert player == "gismo-0066051"
    assert os_name == "Windows_98"
