"""The WMS text codec at column speed: writer and readers.

The text writer renders whole batches as bytes and the parser reads
whole batches by digit arithmetic; each keeps a scalar statement of its
rule (``_format_entry``, the per-value entry rule) for the rows it does
not vouch for.  These tests hold the column paths to those rules, and
cover what the writer refuses to write, how ``read_wms_log`` builds its
client table and that every log file reader breaks a log into the same
lines.
"""

import io
import json

import numpy as np
import pytest

from repro.errors import LogParseError, TraceError
from repro.parallel.characterize import (
    characterize_chunk,
    characterize_logs,
    plan_log_chunks,
)
from repro.rng import make_rng
from repro.trace.entries import entry_rule
from repro.trace.streaming import StreamingCharacterizer
from repro.trace.wms_log import (
    LOG_FIELDS,
    PARSE_BATCH_LINES,
    StreamingWmsLogWriter,
    _format_entry,
    parse_log_lines,
    read_wms_log,
    write_wms_log,
)

HEADER = "#Fields: " + " ".join(LOG_FIELDS)


def _push(writer, n, **columns):
    base = dict(client_index=np.zeros(n, dtype=np.int64),
                object_id=np.zeros(n, dtype=np.int64),
                start=np.zeros(n), duration=np.zeros(n),
                bandwidth_bps=np.zeros(n), packet_loss=np.zeros(n),
                server_cpu=np.zeros(n), status=np.full(n, 200))
    base.update(columns)
    writer.push(**base, global_offset=0, horizon=np.inf)


@pytest.mark.parametrize(("identity", "field"), [
    (("", "p1", "Windows_98"), "IP"),
    (("10.0.0.2", "", "Windows_98"), "player ID"),
    (("10.0.0.2", "a b", "Windows_98"), "player ID"),
    (("10.0.0.2", "pé", "Windows_98"), "player ID"),
    (("10.0.0.2", "p1", "Mac OS"), "OS"),
    (("10.0.\t0.2", "p1", "Windows_98"), "IP"),
])
def test_writer_refuses_unwritable_identity(identity, field):
    """A client whose line would not read back is refused, naming its
    index, before any byte of its batch is written."""
    identities = {0: ("10.0.0.1", "p0", "Windows_98"), 7: identity}
    stream = io.StringIO()
    writer = StreamingWmsLogWriter(stream, identities.__getitem__,
                                   write_header=False)
    with pytest.raises(TraceError, match=f"client 7: {field} "):
        _push(writer, 3, client_index=np.array([0, 7, 0]))
    assert stream.getvalue() == ""


def test_write_wms_log_refuses_player_with_space(tiny_trace):
    clients = tiny_trace.clients
    clients.player_ids = np.asarray([clients.player_ids[0], "two words"],
                                    dtype=np.str_)
    with pytest.raises(TraceError, match="client 1: player ID 'two words'"):
        write_wms_log(tiny_trace, io.StringIO())


def test_empty_os_is_written_as_dash():
    stream = io.StringIO()
    writer = StreamingWmsLogWriter(stream, lambda i: ("10.0.0.1", "p", ""),
                                   write_header=False)
    _push(writer, 1)
    assert stream.getvalue().split()[3] == "-"


def _reference_lines(identity, emit):
    """The writer's lines, one :func:`_format_entry` call per row."""
    order = np.lexsort((np.arange(emit["end"].size), emit["end"]))
    return [_format_entry(
        timestamp=int(emit["end"][k]),
        ip=identity(int(emit["client_index"][k]))[0],
        player_id=identity(int(emit["client_index"][k]))[1],
        os_name=identity(int(emit["client_index"][k]))[2],
        object_id=int(emit["object_id"][k]),
        duration=int(round(float(emit["duration"][k]))),
        bandwidth=float(emit["bandwidth_bps"][k]),
        loss=float(emit["packet_loss"][k]), cpu=float(emit["server_cpu"][k]),
        status=int(emit["status"][k])) for k in order.tolist()]


@pytest.mark.parametrize("seed", range(4))
def test_rendered_lines_match_format_entry(seed):
    """Random rows, a third of them at rounding ties, out of range,
    negative, signed zero or not finite, render as ``_format_entry``:
    the batch is refused at its first row the entry rule refuses, and
    its admitted rows render."""
    rng = make_rng(seed)
    n = 3000
    edges = np.array([0.0, -0.0, 0.5, 1.5, 2.5, 0.00005, 0.12345, 0.99995,
                      1.0, -0.4, -0.00005, 2.0**53, 2.0**53 + 2, 1e20, 1e4,
                      9999.99995, np.inf, -np.inf, np.nan, 1e9 + 0.5])
    columns = {}
    for name, scale in (("duration", 1e4), ("bandwidth_bps", 1e7),
                        ("packet_loss", 1.0), ("server_cpu", 1.0)):
        values = rng.random(n) * scale
        pick = rng.random(n) < 0.3
        values[pick] = rng.choice(edges, pick.sum())
        columns[name] = values
    # Durations and ends must convert to int: keep them finite.
    columns["duration"] = np.abs(np.nan_to_num(columns["duration"],
                                               posinf=3.5, neginf=2.5))
    start = rng.random(n) * 2e5
    start[rng.random(n) < 0.05] = -rng.random() * 100
    start[rng.random(n) < 0.05] = 2.0**53 + rng.random() * 4
    client = rng.integers(0, 50, n) * 3
    object_id = rng.integers(0, 12, n)
    object_id[rng.random(n) < 0.02] = -3
    status = rng.choice([200, 404, 0, -1, 10**17], n)
    identity = {k: (f"10.0.{k}.{k % 7}", f"gismo-{k:05d}", "" if k % 5
                    else "Linux") for k in range(0, 150, 3)}.__getitem__
    columns.update(client_index=client, object_id=object_id, start=start,
                   status=status)
    admitted, _ = entry_rule(columns)
    assert 0 < admitted.sum() < n
    stream = io.StringIO()
    writer = StreamingWmsLogWriter(stream, identity, write_header=False)
    with pytest.raises(TraceError,
                       match=f"transfer {np.argmin(admitted)}: "):
        writer.push(global_offset=0, horizon=np.inf, **columns)
    assert writer.n_buffered == 0
    kept = {name: values[admitted] for name, values in columns.items()}
    writer.push(global_offset=0, horizon=np.inf, **kept)
    emit = {"end": kept.pop("start") + kept["duration"], **kept}
    assert stream.getvalue().splitlines() == _reference_lines(identity, emit)


GOOD = "17 10.0.0.1 p1 Windows_98 /live/feed1 5 56000 0.0100 0.2000 200 -"


def _batches_blob():
    """Lines past two parse batches, remarks on and around the batch
    boundary, one damaged line."""
    lines = [GOOD.replace("17", str(k), 1)
             for k in range(2 * PARSE_BATCH_LINES + 17)]
    for k in (100, PARSE_BATCH_LINES - 1, PARSE_BATCH_LINES,
              PARSE_BATCH_LINES + 500):
        lines[k] = "#Remark: harvest boundary"
    lines[7] = lines[7].replace(" 5 ", " x ")
    return ("\n".join(lines) + "\n").encode()


#: Log bodies (after a header) and the ``(entries, skipped)`` every file
#: reader finds in them.  A line ends at ``\n``, ``\r`` or ``\r\n``
#: only; the other bytes ``str.splitlines`` breaks at (``\v``, ``\f``,
#: ``\x1c``-``\x1e``) stay inside their line, which then has too many
#: columns.
BLOBS = {
    # Remark, directive that reorders the layout, a line of the old one.
    "directives": ((HEADER + "\n#Remark: x\n" + GOOD + "\n"
                    "#Fields: " + " ".join(reversed(LOG_FIELDS)) + "\n"
                    + " ".join(reversed(GOOD.split())) + "\n" + GOOD
                    + "\n").encode(), (2, 1)),
    # A leading blank, a blank line and CRLF endings take the string route.
    "string-route": ((" " + GOOD + "\n\n" + GOOD + "\r\n" + GOOD).encode(),
                     (3, 0)),
    "non-ascii": ((GOOD + "\n" + GOOD.replace("p1", "pé") + "\n").encode(),
                  (1, 1)),
    "scalar-values": ((GOOD + "\n" + GOOD.replace(" 5 ", " 0037 ") + "\n"
                       + GOOD.replace(" 5 ", " +5 ") + "\n"
                       + GOOD.replace("56000", "12345678901234567")
                       + "\n").encode(), (4, 0)),
    "batches": (_batches_blob(), (2 * PARSE_BATCH_LINES + 12, 1)),
    "vertical-tab": ((GOOD + "\x0b" + GOOD + "\n" + GOOD).encode(), (1, 1)),
    "form-feed": ((GOOD + "\x0c" + GOOD + "\n" + GOOD).encode(), (1, 1)),
    "file-separator": ((GOOD + "\x1c" + GOOD + "\n" + GOOD).encode(),
                       (1, 1)),
    "lone-cr": ((GOOD + "\r" + GOOD + "\r").encode(), (2, 0)),
    "crlf": ((GOOD + "\r\n" + GOOD + "\r\n").encode(), (2, 0)),
    "nul-vertical-tab-nul": (b"\x00\x0b\x00", (0, 1)),
}


def _state(characterizer):
    return json.dumps(characterizer.state_dict())


@pytest.mark.parametrize("name", BLOBS)
def test_file_readers_agree(tmp_path, name):
    """The serial characterizer, the map-reduce one at any chunk size and
    the trace reader break a log file into the same lines."""
    blob, (n_entries, n_skipped) = BLOBS[name]
    path = tmp_path / "blob.log"
    path.write_bytes((HEADER + "\n").encode() + blob)
    serial = StreamingCharacterizer()
    assert serial.consume(path) == n_entries
    assert serial.summary().n_skipped == n_skipped
    errors = []
    trace = read_wms_log(path, on_error="skip", error_sink=errors)
    assert (trace.n_transfers, len(errors)) == (n_entries, n_skipped)
    for chunk_bytes in (max(1, len(blob) // 64), max(1, len(blob) // 3),
                        1 << 30):
        mapped = StreamingCharacterizer()
        for chunk in plan_log_chunks([path], chunk_bytes=chunk_bytes):
            mapped.merge(characterize_chunk(chunk))
        assert _state(mapped) == _state(serial), chunk_bytes
        summary = characterize_logs(path, chunk_bytes=chunk_bytes)
        assert (summary.n_entries, summary.n_skipped) == (n_entries,
                                                          n_skipped)


def test_file_readers_reject_incomplete_directive(tmp_path):
    path = tmp_path / "blob.log"
    path.write_text(HEADER + "\n" + GOOD + "\n#Fields: x-timestamp\n"
                    + GOOD + "\n")
    match = "line 3: log is missing"
    with pytest.raises(LogParseError, match=match):
        StreamingCharacterizer().consume(path)
    with pytest.raises(LogParseError, match=match):
        read_wms_log(path, on_error="skip")
    with pytest.raises(LogParseError, match=match):
        characterize_logs(path)
    with pytest.raises(LogParseError, match="log is missing"):
        characterize_logs(path, chunk_bytes=1)


@pytest.mark.parametrize("uri", ["/l", "/live/fe", "/live/feed",
                                 "/live/feed7", "/live/feeds"])
def test_short_uri_last_in_layout(uri):
    """A URI stem ending the last line is read inside the buffer."""
    fields = [f for f in LOG_FIELDS if f != "cs-uri-stem"] + ["cs-uri-stem"]
    line = "17 10.0.0.1 p1 Windows_98 5 56000 0.0100 0.2000 200 - " + uri
    batch = parse_log_lines([GOOD.replace("/live/feed1 ", "") + " /x", line],
                            fields)
    assert batch.n_entries == (uri == "/live/feed7")
    assert batch.columns["object_id"].tolist() == [7] * batch.n_entries
    assert [str(e) for e in batch.errors] == (
        ["unexpected URI stem '/x'"]
        + ([] if uri == "/live/feed7" else [
            "invalid literal for int() with base 10: 's'"
            if uri == "/live/feeds" else
            "invalid literal for int() with base 10: ''"
            if uri == "/live/feed" else f"unexpected URI stem {uri!r}"]))


def test_short_string_last_in_layout():
    """A short string field ending the block is read inside the buffer
    even when another line's field is much longer."""
    fields = [f for f in LOG_FIELDS if f != "c-os"] + ["c-os"]
    lines = [GOOD.replace(" Windows_98", "") + " " + os_name
             for os_name in ("Windows_98_Second_Edition_Plus_Pack", "W")]
    batch = parse_log_lines(lines, fields)
    assert batch.os_names == ["Windows_98_Second_Edition_Plus_Pack", "W"]
    assert batch.errors == []


def test_read_wms_log_resolves_each_client_once(tiny_trace):
    buffer = io.StringIO()
    write_wms_log(tiny_trace, buffer)
    calls = []

    def resolver(ip):
        calls.append(ip)
        return 7, "BR"

    buffer.seek(0)
    trace = read_wms_log(buffer, resolver=resolver)
    assert len(calls) == trace.n_clients < trace.n_transfers
    assert sorted(calls) == sorted(trace.clients.ips.tolist())
    assert set(trace.clients.as_numbers.tolist()) == {7}


def test_read_wms_log_rejects_a_player_with_two_ips():
    lines = [HEADER, GOOD, GOOD.replace("10.0.0.1", "10.0.0.2")]
    with pytest.raises(TraceError, match="player 'p1' re-registered"):
        read_wms_log(io.StringIO("\n".join(lines)))
