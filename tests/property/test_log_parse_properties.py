"""Property-based tests of the WMS log-line parser.

Well-formed log lines are mutated field by field — hostile number
spellings, foreign URI stems, split or merged fields, stray whitespace
and non-ASCII characters — and :func:`parse_log_lines` is checked
against :func:`_reference_parse_line`, a one-line-at-a-time statement
of the line checks: the line is ASCII and has one column per field, each
field parses with ``int``/``float`` (the URI stem as
``/live/feed<int>``) and the integers fit in int64; then the entry rule
of :mod:`repro.trace.entries`, restated check by check over the line's
values: the duration is finite and in ``[0, 2**53)`` seconds, ``start =
timestamp - duration`` is finite and ``start + duration`` floors to an
int64, the bandwidth is below 2**63 in magnitude and loss and CPU below
``2**53 / 10**4``.  The parser reads
most lines by digit arithmetic on their bytes and hands the rest to the
scalar rule, so lines at the edge of that fast path — signs, leading
zeros, long mantissas, odd separators — are fuzzed on their own, as are
log files of arbitrary bytes read by every file reader.
"""

import functools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LogParseError
from repro.parallel.characterize import (
    characterize_chunk,
    characterize_logs,
    plan_log_chunks,
)
from repro.trace.streaming import StreamingCharacterizer
from repro.trace.wms_log import (
    LOG_FIELDS,
    parse_log_lines,
    read_wms_log,
)

INT64 = range(-(1 << 63), 1 << 63)


#: The typed fields in the order they parse.
TYPED = (("x-timestamp", int), ("x-duration", float), ("cs-uri-stem", int),
         ("avg-bandwidth", float), ("packet-loss-rate", float),
         ("s-cpu-util", float), ("sc-status", int))


def _entry_rule(v):
    """The entry rule's checks over one line's values, in order:
    ``(field named, condition, admitted)``."""
    duration = v["x-duration"]
    start = v["x-timestamp"] - duration
    quantum = 2**53 / 10**4
    return (
        ("x-duration", "is not finite", math.isfinite(duration)),
        ("x-duration", "outside [0, 2**53)", 0 <= duration < 2**53),
        ("x-timestamp", "is not finite", math.isfinite(start)),
        ("x-timestamp", "does not floor to an int64",
         -(2**63) <= start + duration < 2**63),
        ("avg-bandwidth", "outside (-2**63, 2**63)",
         abs(v["avg-bandwidth"]) < 2**63),
        ("packet-loss-rate", "outside (-2**53, 2**53) / 10**4",
         abs(v["packet-loss-rate"]) < quantum),
        ("s-cpu-util", "outside (-2**53, 2**53) / 10**4",
         abs(v["s-cpu-util"]) < quantum),
    )


def _reference_parse_line(line, fields):
    """``(typed entry, None)`` for an entry of one data line, ``(None,
    message)`` naming the first check a skipped line fails."""
    if not line.isascii():
        return None, "undecodable bytes (non-ASCII) in entry"
    parts = line.split()
    if len(parts) != len(fields):
        return None, f"expected {len(fields)} columns, got {len(parts)}"
    row = dict(zip(fields, parts, strict=True))
    values = {}
    for field, convert in TYPED:
        text = row[field]
        if field == "cs-uri-stem":
            if not text.startswith("/live/feed"):
                return None, f"unexpected URI stem {text!r}"
            text = text[len("/live/feed"):]
        try:
            value = convert(text)
        except ValueError as exc:
            return None, str(exc)
        if convert is int and value not in INT64:
            return None, f"{field} out of range: {text!r}"
        values[field] = value
    for field, condition, admitted in _entry_rule(values):
        if not admitted:
            return None, f"{field} {condition}: {row[field]!r}"
    return (*(values[field] for field, _ in TYPED),
            row["c-ip"], row["c-playerid"], row["c-os"]), None


finite = dict(allow_nan=False, allow_infinity=False)

def _format_line(ts, ip, player, os_name, feed, dur, bw, loss, cpu,
                 status):
    return " ".join((str(ts), ip, player, os_name, f"/live/feed{feed}",
                     str(dur), f"{bw:.0f}", f"{loss:.4f}", f"{cpu:.4f}",
                     str(status), "-"))


well_formed = st.builds(
    _format_line,
    st.integers(0, 10**7),
    st.sampled_from(["10.0.0.1", "192.168.4.20"]),
    st.sampled_from(["p0001", "p0002", "player-x"]),
    st.sampled_from(["Windows_98", "-", "Mac_OS"]),
    st.integers(0, 12),
    st.integers(0, 90_000),
    st.floats(0.0, 5e6, **finite),
    st.floats(0.0, 1.0, **finite),
    st.floats(0.0, 1.0, **finite),
    st.sampled_from([200, 304, 404]),
)

#: Replacement field texts: hostile numbers and URI stems among them.
hostile_token = st.one_of(
    st.sampled_from([
        "nan", "-nan", "inf", "-inf", "Infinity", "1e400", "-1e400", "-5",
        "1e20", "9223372036854775807.0", "9223372036854774784",
        "999999999999999", "900719925474.0991", "900719925474.0992",
        "-0", "-0.0", "+7", "1_000", "0x1f", "1e3", "12.5", ".5", "5.",
        "xyz", "-", "/live/feed", "/live/feed-3", "/live/feed+4",
        "/live/feedx", "/live/feed1_0", "/vod/feed3", "/live/feed9e9",
        "99999999999999999999", "-9223372036854775809",
        "9223372036854775807", "/live/feed9223372036854775808",
        "٣", "café",
    ]),
    st.text(alphabet="0123456789+-._eEinfa/livefd", min_size=1,
            max_size=8),
)


@st.composite
def mutated_line(draw):
    parts = draw(well_formed).split(" ")
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(parts) - 1))
        action = draw(st.sampled_from(
            ["replace", "replace", "drop", "split", "pad"]))
        if action == "replace":
            parts[k] = draw(hostile_token)
        elif action == "drop":
            del parts[k]
            if not parts:
                parts = ["0"]
        elif action == "split":
            parts.insert(k, draw(hostile_token))
        else:
            parts[k] += draw(st.sampled_from(["\t", "\x1c", " ", " ",
                                              " ", "\x0b"]))
    return " ".join(parts)


@settings(max_examples=300, deadline=None)
@given(st.lists(mutated_line(), min_size=1, max_size=12))
def test_parser_matches_reference(lines):
    _check_batch(lines)


def _check_batch(lines, fields=LOG_FIELDS):
    """``parse_log_lines`` agrees with the reference on every line: the
    entries' values bit for bit, the skipped lines and their messages."""
    fields = list(fields)
    batch = parse_log_lines(lines, fields,
                            line_numbers=range(1, len(lines) + 1))
    reference = [_reference_parse_line(line, fields) for line in lines]
    expected = [row for row, _ in reference if row is not None]
    columns = batch.columns
    got = list(zip(
        columns["timestamp"].tolist(), columns["duration"].tolist(),
        columns["object_id"].tolist(), columns["bandwidth_bps"].tolist(),
        columns["packet_loss"].tolist(), columns["server_cpu"].tolist(),
        columns["status"].tolist(), batch.ips, batch.players,
        batch.os_names, strict=True))
    assert got == expected
    # Float equality above treats -0.0 == 0.0; compare the bits too.
    assert [repr(row[:7]) for row in got] == [repr(row[:7])
                                              for row in expected]
    assert [(e.line_number, str(e), e.line) for e in batch.errors] == [
        (k + 1, f"line {k + 1}: {message}", lines[k])
        for k, (row, message) in enumerate(reference) if row is None]


#: Field texts at the edge of the parser's digit-arithmetic fast path:
#: each must be read exactly as ``int``/``float`` read it, or refused.
boundary_token = st.one_of(
    st.sampled_from([
        "+5", "-0", "-0.0", "+0", "1_000", "0037", "000", "0.", "00.50",
        "1e3", "1E3", ".5", "5.", ".", "..5", "5..", "1.2.3", "",
        "123456789012345", "1234567890123456", "12345678901234567",
        "99999999999999999999", "0.000000000000001", "0.0000000000000001",
        "123456789012345.", "12345678.1234567", "1234567.12345678",
        "999999999999999999", "1000000000000000000",
        "9223372036854775807", "9223372036854775808",
        "/live/feed", "/live/feed+1", "/live/feed-0", "/live/feedx",
        "/live/feed007", "/live/feed999999999999999999",
        "/live/feed9999999999999999999", "/live/fee", "/Live/feed1",
        "\u0663", "\xe9", "\u00a0", "1\u2003",
    ]),
    st.integers(0, 10**20).map(str),
    st.integers(0, 10**16).map(lambda v: f"{v / 10 ** (v % 17):.{v % 9}f}"),
    st.text(alphabet="0123456789.", min_size=1, max_size=20),
)

#: Separators the fast path must refuse: every one but a single space
#: changes the column count or the ASCII check.
separator = st.sampled_from([" ", " ", " ", "  ", "\t", "\x0b", "\x0c",
                             "\x1c", "\x1f", "\r", "\x00", "\x85",
                             "\u3000"])


@st.composite
def boundary_line(draw, order=tuple(range(len(LOG_FIELDS)))):
    """A well-formed line with its fields or separators at the edge, its
    fields in ``order``."""
    parts = draw(well_formed).split(" ")
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(parts) - 1))
        token = draw(boundary_token)
        if LOG_FIELDS[k] == "cs-uri-stem" and not token.startswith("/"):
            token = "/live/feed" + token
        parts[k] = token
    parts = [parts[k] for k in order]
    seps = [draw(separator) for _ in parts[1:]]
    return parts[0] + "".join(sep + part
                              for sep, part in zip(seps, parts[1:],
                                                   strict=True))


@st.composite
def boundary_batch(draw):
    """Lines at the fast path's edge under a random column order."""
    order = draw(st.permutations(range(len(LOG_FIELDS))))
    reorder = well_formed.map(
        lambda line: " ".join(line.split(" ")[k] for k in order))
    lines = draw(st.lists(st.one_of(boundary_line(order), reorder),
                          min_size=1, max_size=12))
    return lines, [LOG_FIELDS[k] for k in order]


@settings(max_examples=200, deadline=None)
@given(boundary_batch())
def test_fast_path_boundary_matches_reference(batch):
    _check_batch(*batch)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(mutated_line(), boundary_line(), well_formed),
                max_size=20),
       st.integers(1, 5))
def test_characterizer_only_skips(lines, cut):
    """Any mix of lines is consumed or skipped, never a crash."""
    characterizer = StreamingCharacterizer()
    characterizer.consume_lines(lines[:cut], list(LOG_FIELDS))
    characterizer.consume_lines(lines[cut:], list(LOG_FIELDS))
    summary = characterizer.summary()
    n_data = sum(1 for line in lines
                 if line.strip() and not line.strip().startswith("#"))
    assert summary.n_entries + summary.n_skipped == n_data
    assert summary.n_entries == sum(
        1 for line in lines
        if _reference_parse_line(line.strip(), LOG_FIELDS)[0] is not None)


def _log_bytes(lines):
    """Bytes a harvested log may hold: mostly ``lines``, some damage."""
    return st.lists(st.one_of(
        st.sampled_from([b"\n", b" ", b"#", b"#Fields: ", b"\r\n", b"\t",
                         b"\x00", b"\xff", b"\xc3\xa9", b"\x0b", b"\x0c",
                         b"\x1c", b"\r", b"/live/feed", b"."]),
        lines.map(lambda line: line.encode("ascii") + b"\n"),
        st.binary(max_size=12)), max_size=16).map(b"".join)


def _one_client(line):
    """``line`` as client ``p0001``'s (the trace reader refuses a player
    ID seen with two IPs or OSs)."""
    ts, _, _, _, *rest = line.split()
    return " ".join((ts, "10.0.0.1", "p0001", "Windows_98", *rest))


log_bytes = _log_bytes(well_formed)
one_client_log_bytes = _log_bytes(well_formed.map(_one_client))


HEADER = ("#Fields: " + " ".join(LOG_FIELDS) + "\n").encode("ascii")


def _lines(blob):
    """The stripped lines of ``blob`` as a log file reader sees them:
    ASCII with replacement, broken at ``\\n``, ``\\r`` and ``\\r\\n``."""
    text = blob.decode("ascii", errors="replace")
    return [line.strip()
            for line in text.replace("\r\n", "\n").replace("\r", "\n")
            .split("\n")]


def _mapped_state(path, chunk_bytes):
    characterizer = StreamingCharacterizer()
    for chunk in plan_log_chunks([path], chunk_bytes=chunk_bytes):
        characterizer.merge(characterize_chunk(chunk))
    return json.dumps(characterizer.state_dict())


def _serial_state(path):
    characterizer = StreamingCharacterizer()
    characterizer.consume(path)
    return json.dumps(characterizer.state_dict())


def _trace_counts(path):
    errors = []
    trace = read_wms_log(path, on_error="skip", error_sink=errors)
    return trace.n_transfers, len(errors)


@settings(max_examples=150, deadline=None)
@given(one_client_log_bytes, st.integers(1, 4))
def test_byte_blobs_parse_as_their_lines(tmp_path_factory, blob, cut):
    """A log file of arbitrary bytes after a header is read as the same
    lines by every file reader: the map-reduce characterizer at any chunk
    size folds the serial one's state, and the trace reader keeps and
    skips as many lines; where one raises, all do."""
    path = tmp_path_factory.mktemp("blob") / "blob.log"
    path.write_bytes(HEADER + blob)
    chunk_sizes = (max(1, len(blob) // cut), 1 << 30)
    try:
        serial = _serial_state(path)
    except LogParseError:
        for read in (*(functools.partial(_mapped_state, path, chunk_bytes)
                       for chunk_bytes in chunk_sizes),
                     functools.partial(_trace_counts, path)):
            with pytest.raises(LogParseError):
                read()
        return
    for chunk_bytes in chunk_sizes:
        assert _mapped_state(path, chunk_bytes) == serial
    state = json.loads(serial)
    assert _trace_counts(path) == (state["n_entries"], state["n_skipped"])


@settings(max_examples=60, deadline=None)
@given(log_bytes, st.integers(1, 4))
def test_byte_blobs_characterize_or_skip(tmp_path_factory, blob, cut):
    """A log file of arbitrary bytes after a header is consumed or
    skipped line by line at any chunk size, never a crash; only a
    ``#Fields`` directive can raise."""
    path = tmp_path_factory.mktemp("blob") / "blob.log"
    path.write_bytes(HEADER + blob)
    lines = _lines(blob)
    try:
        summary = characterize_logs(path,
                                    chunk_bytes=max(1, len(blob) // cut))
    except LogParseError:
        assert any(line.startswith("#Fields:") for line in lines)
        return
    data = [line for line in lines if line and not line.startswith("#")]
    assert summary.n_entries + summary.n_skipped == len(data)
    if not any(line.startswith("#Fields:") for line in lines):
        assert summary.n_entries == sum(
            _reference_parse_line(line, LOG_FIELDS)[0] is not None
            for line in data)
