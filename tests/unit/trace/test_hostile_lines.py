"""Hostile log lines are skipped alike by every text reader.

Each line below breaks the entry rule of
:func:`repro.trace.wms_log.parse_log_lines`: a duration that is not
finite, negative or beyond int64 seconds, an infinite bandwidth, or a
loss rate that is no number at all.  Every reader must skip exactly
those lines — the batch reader, the streaming characterizer, the
map-reduce characterizer and the live feed — and none may raise
anything but a typed :class:`~repro.errors.ReproError` on them.
"""

import asyncio
import io

import numpy as np
import pytest

from repro.errors import LogParseError
from repro.parallel.characterize import characterize_logs
from repro.serve.feed import FeedWorker
from repro.trace.streaming import StreamingCharacterizer
from repro.trace.wms_log import LOG_FIELDS, read_wms_log, write_wms_log
from tests.conftest import build_trace

#: case -> (field, hostile value).
HOSTILE = {
    "duration-nan": ("x-duration", "nan"),
    "duration-inf": ("x-duration", "inf"),
    "duration-overflow": ("x-duration", "1e400"),
    "duration-negative": ("x-duration", "-5"),
    "duration-beyond-int64": ("x-duration", "1e20"),
    "bandwidth-inf": ("avg-bandwidth", "inf"),
    "loss-not-a-number": ("packet-loss-rate", "xyz"),
}

N_GOOD = 40


def good_lines():
    trace = build_trace([(i % 5, i % 3, float(i) * 90.0, 30.0 + i,
                          10_000.0 + 1_000.0 * i) for i in range(N_GOOD)],
                        extent=10_000.0)
    buffer = io.StringIO()
    write_wms_log(trace, buffer)
    return buffer.getvalue().splitlines()


def hostile_line(template, field, value):
    parts = template.split()
    parts[LOG_FIELDS.index(field)] = value
    return " ".join(parts)


def log_lines(cases):
    """The good log with one hostile line per case spliced in."""
    lines = good_lines()
    template = lines[5]
    bad = [hostile_line(template, *HOSTILE[case]) for case in cases]
    return lines[:8] + bad + lines[8:], 8 + 1


def write_log(tmp_path, lines):
    path = tmp_path / "hostile.log"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path


CASES = [[case] for case in HOSTILE] + [list(HOSTILE)]
IDS = [*HOSTILE, "all"]


@pytest.fixture(scope="module")
def clean_state():
    characterizer = StreamingCharacterizer()
    characterizer.consume(good_lines())
    return characterizer.state_dict()


@pytest.mark.parametrize("cases", CASES, ids=IDS)
class TestEveryReaderSkips:
    def test_read_wms_log(self, cases, tmp_path):
        lines, first_bad = log_lines(cases)
        errors: list[LogParseError] = []
        trace = read_wms_log(write_log(tmp_path, lines), on_error="skip",
                             error_sink=errors)
        assert trace.n_transfers == N_GOOD
        assert [e.line_number for e in errors] == list(
            range(first_bad, first_bad + len(cases)))
        assert np.all(np.isfinite(trace.duration))
        clean = read_wms_log(io.StringIO("\n".join(good_lines())))
        np.testing.assert_array_equal(trace.start, clean.start)
        np.testing.assert_array_equal(trace.bandwidth_bps,
                                      clean.bandwidth_bps)

    def test_read_wms_log_raise_is_typed(self, cases, tmp_path):
        lines, first_bad = log_lines(cases)
        with pytest.raises(LogParseError) as excinfo:
            read_wms_log(write_log(tmp_path, lines))
        assert excinfo.value.line_number == first_bad

    def test_streaming_consume(self, cases, clean_state):
        lines, _ = log_lines(cases)
        characterizer = StreamingCharacterizer()
        assert characterizer.consume(lines) == N_GOOD
        state = characterizer.state_dict()
        assert state["n_skipped"] == len(cases)
        assert state == {**clean_state, "n_skipped": len(cases)}

    @pytest.mark.parametrize("chunk_bytes", [256, 1 << 20])
    def test_characterize_logs(self, cases, tmp_path, chunk_bytes):
        lines, _ = log_lines(cases)
        summary = characterize_logs(write_log(tmp_path, lines),
                                    chunk_bytes=chunk_bytes)
        assert (summary.n_entries, summary.n_skipped) == (N_GOOD,
                                                          len(cases))

    @pytest.mark.parametrize("batch", [1, 7, 2048])
    def test_feed_ingest_lines(self, cases, clean_state, batch):
        lines, _ = log_lines(cases)
        worker = FeedWorker("feed0")
        for lo in range(0, len(lines), batch):
            worker.ingest_lines(lines[lo:lo + batch])
        assert worker.entries_ingested == N_GOOD
        assert worker.characterizer.state_dict() == {
            **clean_state, "n_skipped": len(cases)}
        sessions = worker.finish()
        assert int(sessions.n_transfers.sum()) == N_GOOD


def test_serve_feed_keeps_consuming():
    """A hostile batch neither kills the consumer loop nor counts as a
    feed error; the batches after it are ingested."""
    lines, first_bad = log_lines(list(HOSTILE))
    head, tail = lines[:first_bad + 2], lines[first_bad + 2:]

    async def scenario():
        worker = FeedWorker("feed0")
        task = asyncio.ensure_future(worker.run())
        assert worker.offer_lines(head)
        assert worker.offer_lines(tail)
        await asyncio.wait_for(worker.drain(), timeout=10.0)
        await worker.shutdown()
        await asyncio.wait_for(task, timeout=10.0)
        return worker

    worker = asyncio.run(scenario())
    assert worker.feed_errors == 0
    assert worker.lines_ingested == len(lines)
    assert worker.entries_ingested == N_GOOD
    assert worker.characterizer.summary().n_skipped == len(HOSTILE)
