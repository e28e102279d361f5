"""Pinned sha256 digests of the bytes of written WMS text logs.

The readers' outputs are pinned in ``test_pinned_text_outputs.py``; this
module pins what the writer produces.  Two seeded logs come out of the
streaming pipeline, one of them with a chunk size that splits the
generation blocks into several pushes.  A hand-built trace then puts the
rounding edges of every numeric column through ``write_wms_log``:
durations and bandwidths exactly at ``x.5``, loss and CPU at
four-decimal ties, ``1.0`` written as ``1.0000``, a bandwidth past
``2**53``, zeros, an empty OS (written ``-``), timestamps past ``1e9``
and a row of negative values.
"""

import hashlib
import io

import pytest

from repro.core.model import LiveWorkloadModel
from repro.stream import run_streaming_generation
from repro.trace.builder import TraceBuilder
from repro.trace.records import ClientRecord
from repro.trace.wms_log import read_wms_log, write_wms_log

#: (seed, chunk_size) -> sha256 of the streamed text log.
STREAMED = {
    (11, 4096): (
        "5c03fadf50c12181f72983e060775d76cb8dad74fed04c106e0eea6e7e93d776"),
    (23, 37): (
        "43d887a75aa53b55a235b56d7b90fb4176c7459ddde694ae3b061f9d5689ebd9"),
}

#: sha256 of the edge-value log.
EDGES = (
    "d8a8c93f38c96dd04acb2ba681014c99c0c2d5222dda0b2380cca4506bc6f07b")


def edge_trace():
    """A trace whose values sit on the text format's rounding edges."""
    builder = TraceBuilder()
    a = builder.add_client(ClientRecord("p-a", "10.0.0.1", os_name=""))
    b = builder.add_client(ClientRecord("p-b", "192.168.200.254",
                                        os_name="Windows_XP"))
    rows = [
        # (client, object, start, duration, bandwidth, loss, cpu, status)
        (a, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 200),
        (a, 1, 1.25, 0.5, 0.5, 0.00005, 0.00015, 200),
        (b, 2, 3.0, 1.5, 1.5, 0.12345, 0.99995, 404),
        (b, 0, 7.75, 2.5, 2.5, 0.99995, 1.0, 200),
        (a, 12, 20.0, 3.5, 2.0 ** 53, 1.0, 0.12345, 500),
        (b, 1, 30.5, 100.5, 2.0 ** 53 + 2, 0.00045, 0.5, 200),
        # Past 2**53 (the scalar formatter) but below 2**63, the largest
        # bandwidth a .rtb file can hold.
        (a, 3, 40.0, 7.0, 2.0 ** 62, 0.99994999, 0.00004999, 0),
        (b, 9, 1.5e9 + 0.7, 4.5, 56_000.5, 0.25, 0.75, 206),
        (a, 4, 2e9, 1e6 + 0.5, 3e6 + 0.5, 0.33335, 0.66665, 200),
        (b, 5, 1e9 + 1e-3, 0.4999999999999999, 12345.4999999, 1e-12,
         0.9999499999999999, 200),
        # Negative values and a negative zero take the scalar formatter.
        (b, 6, -10.0, 2.5, -0.4, -0.00005, -0.0, 200),
    ]
    for client, obj, start, duration, bw, loss, cpu, status in rows:
        builder.add_transfer(client, obj, start, duration, bandwidth_bps=bw,
                             packet_loss=loss, server_cpu=cpu, status=status)
    return builder.build()


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(("seed", "chunk_size"), sorted(STREAMED))
def test_streamed_log_bytes(tmp_path, seed, chunk_size):
    model = LiveWorkloadModel.paper_defaults(mean_session_rate=0.05,
                                             n_clients=200)
    path = tmp_path / "streamed.log"
    run_streaming_generation(model, 1.0, seed=seed, log_path=path,
                             chunk_size=chunk_size, collect_sessions=False)
    assert _sha256(path.read_bytes()) == STREAMED[seed, chunk_size]


def test_edge_value_log_bytes(tmp_path):
    path = tmp_path / "edges.log"
    trace = edge_trace()
    assert write_wms_log(trace, path) == trace.n_transfers
    data = path.read_bytes()
    assert _sha256(data) == EDGES, data.decode("ascii")
    # The same bytes through a text stream, and readable back.
    buffer = io.StringIO()
    write_wms_log(trace, buffer)
    assert buffer.getvalue().encode("ascii") == data
    assert read_wms_log(path).n_transfers == trace.n_transfers
