"""Property-based tests of the WMS log-line parser.

Well-formed log lines are mutated field by field — hostile number
spellings, foreign URI stems, split or merged fields, stray whitespace
and non-ASCII characters — and :func:`parse_log_lines` is checked
against :func:`_reference_parse_line`, a one-line-at-a-time statement
of the entry rule: the line is ASCII and has one column per field, each
field parses with ``int``/``float`` (the URI stem as
``/live/feed<int>``), the floats are finite, the duration is in
``[0, 2**63)`` seconds and the integers fit in int64.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.streaming import StreamingCharacterizer
from repro.trace.wms_log import LOG_FIELDS, parse_log_lines

INT64 = range(-(1 << 63), 1 << 63)


def _reference_parse_line(line, fields):
    """The typed entry of one data line, or ``None`` if it is skipped."""
    if not line.isascii():
        return None
    parts = line.split()
    if len(parts) != len(fields):
        return None
    row = dict(zip(fields, parts, strict=True))
    try:
        timestamp = int(row["x-timestamp"])
        duration = float(row["x-duration"])
        uri = row["cs-uri-stem"]
        if not uri.startswith("/live/feed"):
            raise ValueError(f"unexpected URI stem {uri!r}")
        object_id = int(uri[len("/live/feed"):])
        bandwidth = float(row["avg-bandwidth"])
        loss = float(row["packet-loss-rate"])
        cpu = float(row["s-cpu-util"])
        status = int(row["sc-status"])
    except ValueError:
        return None
    if not all(math.isfinite(v) for v in (duration, bandwidth, loss, cpu)):
        return None
    if not 0 <= duration < 2.0**63 or not all(
            v in INT64 for v in (timestamp, object_id, status)):
        return None
    return (timestamp, duration, object_id, bandwidth, loss, cpu, status,
            row["c-ip"], row["c-playerid"], row["c-os"])


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
    fields = list(LOG_FIELDS)
    batch = parse_log_lines(lines, fields,
                            line_numbers=range(1, len(lines) + 1))
    expected = [(k, row) for k, line in enumerate(lines)
                if (row := _reference_parse_line(line, fields)) is not None]
    columns = batch.columns
    got = list(zip(
        columns["timestamp"].tolist(), columns["duration"].tolist(),
        columns["object_id"].tolist(), columns["bandwidth_bps"].tolist(),
        columns["packet_loss"].tolist(), columns["server_cpu"].tolist(),
        columns["status"].tolist(), batch.ips, batch.players,
        batch.os_names, strict=True))
    assert got == [row for _, row in expected]
    # float equality above treats -0.0 == 0.0; compare the bits too.
    assert [repr(v) for v in columns["duration"].tolist()] == [
        repr(row[1]) for _, row in expected]
    kept = {k for k, _ in expected}
    assert [e.line_number for e in batch.errors] == [
        k + 1 for k in range(len(lines)) if k not in kept]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(mutated_line(), well_formed), max_size=20),
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
        if _reference_parse_line(line.strip(), LOG_FIELDS) is not None)
