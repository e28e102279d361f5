"""Property-based tests of codec interchangeability.

The contract under test: for *any* trace, the text log and the columnar
binary file are two encodings of one artifact — decoding either yields
bit-identical traces, and re-formatting the binary entry stream through
the text formatter reproduces the text log's data lines byte for byte.
"""

import io
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.trace.codecs import (
    BinaryTraceReader,
    BinaryTraceWriter,
    format_quantized_entry,
    read_binary_trace,
    write_binary_trace,
)
from repro.trace.store import TRANSFER_COLUMNS, ClientTable, Trace
from repro.trace.wms_log import (
    StreamingWmsLogWriter,
    read_wms_log,
    write_wms_log,
)

finite = dict(allow_nan=False, allow_infinity=False)

# Transfers with every statistic column randomized: the ratio columns
# draw from [0, 1] where the 4-decimal quantization's half-even rounding
# and re-format stability actually bite.
rich_transfers = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),                  # client
        st.integers(min_value=0, max_value=2),                  # object
        st.floats(min_value=0.0, max_value=90_000.0, **finite),  # start
        st.floats(min_value=0.0, max_value=900.0, **finite),     # duration
        st.floats(min_value=0.0, max_value=5e6, **finite),       # bandwidth
        st.floats(min_value=0.0, max_value=1.0, **finite),       # loss
        st.floats(min_value=0.0, max_value=1.0, **finite),       # cpu
        st.sampled_from([200, 304, 404, 500]),                   # status
    ),
    min_size=0, max_size=40)

identity_strings = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1, max_size=64)


def _build_trace(transfers):
    clients = ClientTable(
        player_ids=[f"player-{i:05d}" for i in range(4)],
        ips=[f"10.9.0.{i}" for i in range(4)],
        as_numbers=[7, 7, 9, 11], countries=["US", "BR", "US", "DE"],
        os_names=["Windows_98", "Windows_2000", "", "Mac_OS"])
    columns = (list(zip(*transfers, strict=True)) if transfers
               else [[]] * 8)
    return Trace(clients, columns[0], columns[1], columns[2], columns[3],
                 bandwidth_bps=columns[4], packet_loss=columns[5],
                 server_cpu=columns[6], status=columns[7],
                 extent=100_000.0)


@given(transfers=rich_transfers)
@settings(max_examples=60, deadline=None)
def test_binary_decode_bit_identical_to_text_decode(transfers):
    trace = _build_trace(transfers)
    text = io.StringIO()
    write_wms_log(trace, text)
    text.seek(0)
    from_text = read_wms_log(text, extent=trace.extent)

    handle, path = tempfile.mkstemp(suffix=".rtb")
    os.close(handle)
    try:
        write_binary_trace(trace, path)
        from_binary = read_binary_trace(path, extent=trace.extent)
    finally:
        os.unlink(path)

    for column in TRANSFER_COLUMNS:
        a, b = getattr(from_text, column), getattr(from_binary, column)
        assert a.dtype == b.dtype, column
        assert np.array_equal(a, b), column
    for column in ("player_ids", "ips", "os_names"):
        assert np.array_equal(getattr(from_text.clients, column),
                              getattr(from_binary.clients, column)), column
    assert from_text.extent == from_binary.extent


@given(transfers=rich_transfers)
@settings(max_examples=60, deadline=None)
def test_binary_entry_stream_reformats_to_text_lines(transfers):
    trace = _build_trace(transfers)
    text = io.StringIO()
    write_wms_log(trace, text)
    data_lines = [line for line in text.getvalue().splitlines()
                  if not line.startswith("#")]

    handle, path = tempfile.mkstemp(suffix=".rtb")
    os.close(handle)
    try:
        write_binary_trace(trace, path)
        with BinaryTraceReader(path) as reader:
            identity = reader.identity_lookup()
            formatted = [
                format_quantized_entry(quantized, row, identity)
                for quantized in reader.iter_quantized()
                for row in range(int(quantized["timestamp"].shape[0]))]
    finally:
        os.unlink(path)
    assert formatted == data_lines


@given(player=identity_strings, os_name=identity_strings)
@settings(max_examples=40, deadline=None)
def test_identity_width_round_trip(player, os_name):
    """Arbitrary-width printable identity strings survive the binary
    fixed-width client blocks."""
    clients = ClientTable(player_ids=[player], ips=["198.51.100.7"],
                          as_numbers=[3], countries=["US"],
                          os_names=[os_name])
    trace = Trace(clients, [0], [0], [1.0], [2.0], extent=10.0)
    handle, path = tempfile.mkstemp(suffix=".rtb")
    os.close(handle)
    try:
        write_binary_trace(trace, path)
        with BinaryTraceReader(path) as reader:
            identities = reader.client_identity_map()
    finally:
        os.unlink(path)
    assert identities[0] == ("198.51.100.7", player, os_name)


#: Values at the edges of the entry rule and of both codecs' integer
#: quantization: signed zeros, ties, 2**53, the largest doubles below
#: 2**63 and 2**53 / 10**4, and what lies past them.
EDGE_VALUES = [
    0.0, -0.0, 0.5, 1.5, -4.0, 0.00005, 0.99995, 1e4, 2.0**53 - 1,
    2.0**53, 2.0**53 + 2, 2.0**62, 2.0**63 - 1024, 2.0**63, -(2.0**63),
    -(2.0**63) + 1024, 1e20, 900719925474.0991, 2.0**53 / 1e4,
    -900719925474.0991, 1.44115188e+13, 999999999999999.0,
    np.inf, -np.inf, np.nan,
]

edge_value = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(),
                       st.floats(-1e6, 1e6, **finite))


@st.composite
def edge_columns(draw):
    n = draw(st.integers(1, 8))
    column = st.lists(edge_value, min_size=n, max_size=n).map(np.asarray)
    columns = {name: draw(column) for name in (
        "start", "duration", "bandwidth_bps", "packet_loss", "server_cpu")}
    if draw(st.booleans()):
        # Admitted rows, values past a bound replaced by one at its edge.
        columns["duration"] = np.abs(np.nan_to_num(
            columns["duration"], posinf=3.0, neginf=2.0)) % 2.0**53
        columns["start"] = np.nan_to_num(columns["start"]) % 2.0**62
        for name, bound, edge in (
                ("bandwidth_bps", 2.0**63, 2.0**63 - 1024),
                ("packet_loss", 2.0**53 / 1e4, 900719925474.0991),
                ("server_cpu", 2.0**53 / 1e4, -900719925474.0991)):
            values = columns[name]
            columns[name] = np.where(np.abs(values) < bound, values, edge)
    columns["client_index"] = np.arange(n, dtype=np.int64) % 3
    columns["object_id"] = np.zeros(n, dtype=np.int64)
    columns["status"] = np.full(n, 200, dtype=np.int64)
    return columns


def _identity(k):
    return (f"10.0.0.{k}", f"player-{k}", "Windows_98")


def _write(writer, columns):
    writer.push(global_offset=0, horizon=-np.inf, **columns)
    return writer.finish()


def _write_binary(path, columns):
    with open(path, "wb") as stream:
        return _write(BinaryTraceWriter(stream, _identity), columns)


@given(columns=edge_columns())
@settings(max_examples=200, deadline=None)
def test_codecs_refuse_or_round_trip_the_same_rows(columns):
    """Both writers refuse a batch at the same first row and check, or
    both files read back the same entries: the entry rule admits exactly
    what both codecs can write and read back."""
    text = io.StringIO()
    handle, path = tempfile.mkstemp(suffix=".rtb")
    os.close(handle)
    try:
        outcomes = []
        for write in (
                lambda: _write(StreamingWmsLogWriter(text, _identity),
                               columns),
                lambda: _write_binary(path, columns)):
            try:
                outcomes.append(write())
            except TraceError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        if isinstance(outcomes[0], str):
            return
        text.seek(0)
        from_text = read_wms_log(text)
        from_binary = read_binary_trace(path)
    finally:
        os.unlink(path)
    assert from_text.n_transfers == from_binary.n_transfers == outcomes[0]
    for column in TRANSFER_COLUMNS:
        assert np.array_equal(getattr(from_text, column),
                              getattr(from_binary, column)), column
