"""Unit tests of the WMS data-line parser and its batching driver."""

import pytest

from repro.errors import LogParseError
from repro.trace.wms_log import (
    LOG_FIELDS,
    PARSE_BATCH_LINES,
    parse_log_lines,
    parse_log_stream,
)

GOOD = "100 10.0.0.1 p1 WinNT /live/feed3 10 5000 0.0100 0.2000 200 -"
HEADER = "#Fields: " + " ".join(LOG_FIELDS)


def with_field(field, value, line=GOOD):
    parts = line.split()
    parts[LOG_FIELDS.index(field)] = value
    return " ".join(parts)


def test_typed_columns_and_strings():
    batch = parse_log_lines([GOOD, with_field("c-playerid", "p2")],
                            LOG_FIELDS)
    assert batch.n_entries == 2 and batch.errors == []
    assert batch.columns["timestamp"].tolist() == [100, 100]
    assert batch.columns["object_id"].tolist() == [3, 3]
    assert batch.columns["duration"].tolist() == [10.0, 10.0]
    assert batch.columns["bandwidth_bps"].tolist() == [5000.0, 5000.0]
    assert batch.columns["status"].dtype.kind == "i"
    assert batch.players == ["p1", "p2"]
    assert batch.ips == ["10.0.0.1"] * 2 and batch.os_names == ["WinNT"] * 2


def test_errors_name_the_first_failed_check_in_order():
    lines = [
        GOOD + " extra",
        with_field("c-ip", "10.0.0.\xe9"),
        with_field("x-timestamp", "1.5"),
        # Several defects: every field parses before the entry rule runs.
        with_field("cs-uri-stem", "/vod/x", with_field("x-duration", "nan")),
        with_field("cs-uri-stem", "/vod/x"),
        with_field("x-duration", "-0.5"),
        with_field("x-duration", "1e20"),
        with_field("packet-loss-rate", "-inf"),
        with_field("sc-status", "99999999999999999999"),
        with_field("x-duration", "nan"),
        # An int64 timestamp whose double is 2**63: no .rtb entry holds it.
        with_field("x-timestamp", "9223372036854775807"),
        GOOD,
    ]
    batch = parse_log_lines(lines, LOG_FIELDS,
                            line_numbers=range(11, 11 + len(lines)))
    assert batch.n_entries == 1
    assert [str(e) for e in batch.errors] == [
        "line 11: expected 11 columns, got 12",
        "line 12: undecodable bytes (non-ASCII) in entry",
        "line 13: invalid literal for int() with base 10: '1.5'",
        "line 14: unexpected URI stem '/vod/x'",
        "line 15: unexpected URI stem '/vod/x'",
        "line 16: x-duration outside [0, 2**53): '-0.5'",
        "line 17: x-duration outside [0, 2**53): '1e20'",
        "line 18: packet-loss-rate outside (-2**53, 2**53) / 10**4: '-inf'",
        "line 19: sc-status out of range: '99999999999999999999'",
        "line 20: x-duration is not finite: 'nan'",
        "line 21: x-timestamp does not floor to an int64: "
        "'9223372036854775807'",
    ]
    assert [e.line for e in batch.errors] == lines[:-1]


def test_last_duplicate_field_wins():
    fields = [*LOG_FIELDS, "x-duration"]
    batch = parse_log_lines([GOOD + " 42"], fields)
    assert batch.columns["duration"].tolist() == [42.0]


def test_incomplete_layout_raises():
    with pytest.raises(LogParseError, match="missing required fields"):
        parse_log_lines([GOOD], LOG_FIELDS[:-1])


def test_stream_follows_directives_and_numbers_lines():
    reordered = [LOG_FIELDS[1], LOG_FIELDS[0], *LOG_FIELDS[2:]]
    swapped = " ".join([GOOD.split()[1], GOOD.split()[0],
                        *GOOD.split()[2:]])
    lines = ["#Software: x", HEADER, GOOD, "", "  ", "#Remark: y",
             "#Fields: " + " ".join(reordered), swapped, "bad"]
    batches = list(parse_log_stream(lines))
    # Each directive yields an empty batch under its layout.
    assert [(b.n_entries, len(b.errors)) for b in batches] == [
        (0, 0), (1, 0), (0, 0), (1, 1)]
    assert list(batches[2].fields) == reordered
    assert batches[3].fields is batches[2].fields
    assert [b.columns["timestamp"].tolist() for b in batches[1::2]] == [
        [100], [100]]
    assert [e.line_number for e in batches[3].errors] == [9]


def test_stream_batches_are_bounded():
    lines = [HEADER, *[GOOD] * (PARSE_BATCH_LINES + 5), "x y"]
    batches = list(parse_log_stream(lines))
    assert max(b.n_entries + len(b.errors) for b in batches) <= (
        PARSE_BATCH_LINES)
    assert sum(b.n_entries for b in batches) == PARSE_BATCH_LINES + 5
    assert batches[-1].errors[0].line_number == PARSE_BATCH_LINES + 7


def test_stream_data_before_layout_raises():
    with pytest.raises(LogParseError, match="line 2: data before #Fields"):
        list(parse_log_stream(["#Software: x", GOOD]))
    batch, = parse_log_stream([GOOD], LOG_FIELDS)
    assert batch.n_entries == 1
    with pytest.raises(LogParseError, match="line 2: log is missing"):
        list(parse_log_stream([GOOD, "#Fields: x-timestamp"], LOG_FIELDS))
