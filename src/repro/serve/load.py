"""Replay load harness: stream a recorded WMS log into a live service.

The harness replays a trace log — its codec, text or binary, is sniffed
from the file — into a running
:class:`~repro.serve.service.CharacterizationService` over one TCP
ingest connection per feed (the service's only ingest door), optionally
paced against the log's own data time (``speedup``; ``0`` replays as
fast as the wire accepts).  Both codecs share one connection routine
and one retry loop; a codec supplies only its handshake, its payload
batches and its resume-cursor unit (lines, or ENTRIES frames).  Lines are
partitioned across feeds by object id (``object_id % n_feeds``), which
keeps every per-feed stream in transfer-end order, and header lines are
broadcast to all feeds so each stream stays a well-formed log.

With ``resume_from_service=True`` the harness first asks the service's
``/metrics`` endpoint how far each feed already got (its processed-input
cursor) and replays only the remainder — identity (CLIENTS) frames are
re-sent because they are idempotent.  The same mechanism recovers from
backpressure sheds: when the service rejects input, the harness waits
for the feed's queue to drain, re-reads the cursor, and reconnects.
"""

from __future__ import annotations

import asyncio
import functools
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Awaitable, Callable, Generator

from ..errors import ServeError
from ..trace.codecs import BinaryTraceReader, detect_codec
from ..trace.wms_log import LOG_FIELDS, parse_fields_header
from .protocol import format_handshake, pack_clients, pack_end, pack_entries, pack_meta

#: Identity rows per CLIENTS frame (keeps JSON payloads comfortably
#: under the frame ceiling).
_CLIENTS_CHUNK = 65536

#: Poll interval while waiting for a service-side drain, seconds.
_POLL_S = 0.05

#: Longest wait for a service-side drain, seconds.
_DRAIN_TIMEOUT_S = 120.0


class _SendFailed(Exception):
    """One connection attempt failed; the driver may retry."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class LoadReport:
    """Outcome of one replay run.

    ``codec`` is the sniffed codec of the log.  ``lines_sent`` counts
    text log lines or binary entry rows actually
    transmitted this run (resumed/skipped input is excluded);
    ``lines_per_sec`` divides that by the wall time from first connect
    to service-side drain, so it measures *sustained processed*
    throughput, not just socket writes.  Latency quantiles are the
    worst (max) per-feed ingest latency reported by ``/metrics``, or
    ``None`` when no metrics port was given.
    """

    log_path: str
    codec: str
    n_feeds: int
    speedup: float
    lines_sent: int
    frames_sent: int
    wall_seconds: float
    lines_per_sec: float
    latency_p50_s: float | None
    latency_p99_s: float | None
    retries: int
    resumed: bool
    feeds: dict[str, dict[str, int]]

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly form (written by ``repro serve-load --out``)."""
        return {
            "log_path": self.log_path,
            "codec": self.codec,
            "n_feeds": self.n_feeds,
            "speedup": self.speedup,
            "lines_sent": self.lines_sent,
            "frames_sent": self.frames_sent,
            "wall_seconds": self.wall_seconds,
            "lines_per_sec": self.lines_per_sec,
            "latency_p50_s": self.latency_p50_s,
            "latency_p99_s": self.latency_p99_s,
            "retries": self.retries,
            "resumed": self.resumed,
            "feeds": {name: dict(sorted(counters.items()))
                      for name, counters in sorted(self.feeds.items())},
        }


# ----------------------------------------------------------------------
# Minimal HTTP client (stdlib sockets only; the service speaks a tiny
# HTTP/1.1 subset with Connection: close)
# ----------------------------------------------------------------------
async def _get_json(host: str, port: int, path: str) -> Any:
    try:
        reader, writer = await asyncio.open_connection(host, port)
    except OSError as exc:
        raise ServeError(
            f"cannot reach service metrics port {host}:{port}: {exc}"
        ) from exc
    try:
        request = (f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
                   f"Content-Length: 0\r\n"
                   f"Connection: close\r\n\r\n").encode("ascii")
        writer.write(request)
        await writer.drain()
        raw = await reader.read(-1)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown
            pass
    head, _, payload = raw.partition(b"\r\n\r\n")
    status_parts = head.split(None, 2)
    if len(status_parts) < 2:
        raise ServeError(f"malformed HTTP response from {path}")
    status = int(status_parts[1])
    if status != 200:
        detail = payload.decode("utf-8", errors="replace").strip()
        raise ServeError(f"GET {path} returned HTTP {status}: {detail}")
    return json.loads(payload)


async def _feed_counters(host: str, port: int, feed: str) -> dict[str, Any]:
    metrics = await _get_json(host, port, "/metrics")
    block = metrics.get("feeds", {}).get(feed)
    if block is None:
        return {}
    return dict(block.get("counters", {})) | {
        "queue_depth": block.get("queue_depth", 0)}


async def _settled_cursor(host: str, port: int, feed: str, key: str) -> int:
    """The feed's processed-input cursor once its queue has drained."""
    deadline = time.perf_counter() + _DRAIN_TIMEOUT_S
    previous = -1
    while True:
        counters = await _feed_counters(host, port, feed)
        cursor = int(counters.get(key, 0))
        if int(counters.get("queue_depth", 0)) == 0 and cursor == previous:
            return cursor
        previous = cursor
        if time.perf_counter() > deadline:
            raise ServeError(
                f"feed {feed!r} queue did not drain within "
                f"{_DRAIN_TIMEOUT_S}s")
        await asyncio.sleep(_POLL_S)


async def _await_drain(host: str, port: int, key: str,
                       targets: dict[str, int]) -> None:
    """Block until every feed's ``key`` cursor reaches its replay target."""
    deadline = time.perf_counter() + _DRAIN_TIMEOUT_S
    while True:
        metrics = await _get_json(host, port, "/metrics")
        feeds = metrics.get("feeds", {})
        done = True
        for feed, target in sorted(targets.items()):
            counters = feeds.get(feed, {}).get("counters", {})
            if int(counters.get(key, -1)) < target:
                done = False
                break
        if done:
            return
        if time.perf_counter() > deadline:
            raise ServeError(
                f"service did not finish processing within "
                f"{_DRAIN_TIMEOUT_S}s")
        await asyncio.sleep(_POLL_S)


async def _pace(t0_wall: float, ts0: float, ts: float,
                speedup: float) -> None:
    delay = t0_wall + (ts - ts0) / speedup - time.perf_counter()
    if delay > 0:
        await asyncio.sleep(delay)


# ----------------------------------------------------------------------
# The two codecs' replays
# ----------------------------------------------------------------------
def _partition_text(data: bytes, n_feeds: int, *, want_ts: bool
                    ) -> tuple[list[list[bytes]], list[list[float]] | None]:
    """Split raw log bytes into per-feed line streams.

    Data lines go to ``object_id % n_feeds``; header/blank/unparseable
    lines are broadcast (headers keep every stream self-describing, and
    with one feed the stream is byte-identical to the input).
    """
    lines = data.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    per_feed: list[list[bytes]] = [[] for _ in range(n_feeds)]
    stamps: list[list[float]] | None = (
        [[] for _ in range(n_feeds)] if want_ts else None)
    fields = list(LOG_FIELDS)
    uri_at = fields.index("cs-uri-stem")
    ts_at = fields.index("x-timestamp")
    uri_prefix = b"/live/feed"
    last_ts = 0.0
    for number, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        target: int | None = None
        if stripped and not stripped.startswith(b"#"):
            parts = stripped.split()
            if want_ts and ts_at < len(parts):
                try:
                    last_ts = float(parts[ts_at])
                except ValueError:
                    pass
            if n_feeds > 1 and uri_at < len(parts):
                uri = parts[uri_at]
                if uri.startswith(uri_prefix):
                    suffix = uri[len(uri_prefix):]
                    if suffix.isdigit():
                        target = int(suffix) % n_feeds
            if target is None:
                target = 0
        elif stripped.startswith(b"#Fields:"):
            try:
                fields = list(parse_fields_header(
                    stripped.decode("utf-8", errors="replace"), number))
                uri_at = fields.index("cs-uri-stem")
                ts_at = fields.index("x-timestamp")
            except Exception:
                pass
        if target is None:  # header / blank: broadcast
            for feed_index in range(n_feeds):
                per_feed[feed_index].append(raw)
                if stamps is not None:
                    stamps[feed_index].append(last_ts)
        else:
            per_feed[target].append(raw)
            if stamps is not None:
                stamps[target].append(last_ts)
    return per_feed, stamps


#: One replay message: the data time to pace it at (or ``None``), its
#: bytes (``None`` for input the resume cursor skips), the resume-cursor
#: units it covers, and the lines or rows it sends.
_Message = tuple[float | None, bytes | None, int, int]


class _TextReplay:
    """A text log split into per-feed line streams, sent in batches of
    ``batch_lines``; the resume cursor counts lines."""

    codec = "text"
    cursor_key = "lines_ingested"
    item = "lines"

    def __init__(self, path: Path, feeds: int, *, batch_lines: int,
                 paced: bool) -> None:
        self._lines, self._stamps = _partition_text(
            path.read_bytes(), feeds, want_ts=paced)
        self._batch_lines = batch_lines
        first = [stamps[0] for stamps in self._stamps or () if stamps]
        self.ts0 = min(first) if first else 0.0

    def messages(self, index: int, skip: int
                 ) -> Generator[_Message, None, None]:
        lines = self._lines[index]
        stamps = None if self._stamps is None else self._stamps[index]
        yield None, None, min(skip, len(lines)), 0
        for at in range(skip, len(lines), self._batch_lines):
            batch = lines[at:at + self._batch_lines]
            yield (None if stamps is None else stamps[at],
                   b"\n".join(batch) + b"\n", len(batch), len(batch))

    @staticmethod
    def counts(units: int, sent: int) -> dict[str, int]:
        return {"lines_sent": sent}


class _BinaryReplay:
    """A ``.rtb`` file sent as identity frames, then one ENTRIES frame
    per segment that holds rows of the feed; the resume cursor counts
    ENTRIES frames (identity frames are idempotent and always re-sent)."""

    codec = "binary"
    cursor_key = "frames_ingested"
    item = "rows"

    def __init__(self, path: Path, feeds: int, *, paced: bool) -> None:
        self._path = path
        self._feeds = feeds
        with BinaryTraceReader(path) as trace:
            self._identity_rows = [
                (index, ip, player, os_name) for index, (ip, player, os_name)
                in sorted(trace.client_identity_map().items())]
            self.ts0 = (_first_timestamp(trace.segment_quantized(0))
                        if paced and trace.n_segments else 0.0)

    def messages(self, index: int, skip: int
                 ) -> Generator[_Message, None, None]:
        yield None, pack_meta({"source": str(self._path),
                               "feed_index": index}), 0, 0
        rows = self._identity_rows
        for at in range(0, len(rows), _CLIENTS_CHUNK):
            yield None, pack_clients(rows[at:at + _CLIENTS_CHUNK]), 0, 0
        with BinaryTraceReader(self._path) as trace:
            frames = 0
            for segment in range(trace.n_segments):
                quantized = trace.segment_quantized(segment)
                if self._feeds > 1:
                    mask = (quantized["object_id"] % self._feeds) == index
                    if not bool(mask.any()):
                        continue
                    quantized = {name: column[mask]
                                 for name, column in quantized.items()}
                if frames < skip:
                    yield None, None, 1, 0
                else:
                    yield (_first_timestamp(quantized),
                           pack_entries(quantized), 1,
                           int(quantized["timestamp"].size))
                frames += 1
        yield None, pack_end(), 0, 0

    @staticmethod
    def counts(units: int, sent: int) -> dict[str, int]:
        return {"frames_total": units, "rows_sent": sent}


def _first_timestamp(quantized: dict[str, Any]) -> float:
    return float(quantized["timestamp"][0])


async def _send_once(host: str, port: int, feed: str,
                     replay: _TextReplay | _BinaryReplay, index: int,
                     skip: int, *, speedup: float,
                     t0_wall: float) -> tuple[int, int]:
    """One ingest connection replaying feed ``index`` from cursor
    ``skip``; returns (cursor units covered, lines or rows sent)."""
    try:
        reader, writer = await asyncio.open_connection(host, port)
    except OSError as exc:
        raise ServeError(
            f"cannot reach ingest port {host}:{port}: {exc}") from exc
    messages = replay.messages(index, skip)
    units = sent = 0
    try:
        try:
            writer.write(format_handshake(replay.codec, feed))
            for stamp, payload, n_units, n_items in messages:
                units += n_units
                if payload is None:
                    continue
                if speedup > 0 and stamp is not None:
                    await _pace(t0_wall, replay.ts0, stamp, speedup)
                writer.write(payload)
                await writer.drain()
                sent += n_items
            if writer.can_write_eof():
                writer.write_eof()
            response = await reader.readline()
        except (ConnectionError, OSError) as exc:
            raise _SendFailed(f"connection lost after {sent} "
                              f"{replay.item}: {exc}") from exc
    finally:
        messages.close()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown
            pass
    if not response.startswith(b"OK"):
        raise _SendFailed(
            response.decode("utf-8", errors="replace").strip()
            or "connection closed without a response")
    return units, sent


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
async def _drive_feed(feed: str, attempt: Callable[[int], Awaitable[Any]],
                      *, initial_cursor: int, cursor_key: str, host: str,
                      http_port: int | None,
                      max_retries: int) -> tuple[Any, int]:
    """Run ``attempt`` with backpressure-aware retries from the cursor."""
    skip = initial_cursor
    retries = 0
    while True:
        try:
            return await attempt(skip), retries
        except _SendFailed as exc:
            retries += 1
            if retries > max_retries:
                raise ServeError(
                    f"feed {feed!r} failed after {max_retries} retries: "
                    f"{exc.reason}") from exc
            if http_port is None:
                raise ServeError(
                    f"feed {feed!r} was rejected ({exc.reason}) and no "
                    f"http_port is configured to resume from") from exc
            skip = await _settled_cursor(host, http_port, feed, cursor_key)


async def run_load_async(log_path: str | Path, *, host: str = "127.0.0.1",
                         tcp_port: int = 7070, http_port: int | None = None,
                         feeds: int = 1, speedup: float = 0.0,
                         batch_lines: int = 512,
                         resume_from_service: bool = False,
                         max_retries: int = 3) -> LoadReport:
    """Replay ``log_path`` into a running service; see :func:`run_load`."""
    path = Path(log_path)
    if not path.exists():
        raise ServeError(f"load log does not exist: {path}")
    if feeds < 1:
        raise ServeError(f"feeds must be positive, got {feeds}")
    if batch_lines < 1:
        raise ServeError(f"batch_lines must be positive, got {batch_lines}")
    if speedup < 0:
        raise ServeError(f"speedup must be >= 0, got {speedup}")
    if resume_from_service and http_port is None:
        raise ServeError("resume_from_service requires http_port")
    codec = detect_codec(path)
    replay_type = _TextReplay if codec == "text" else _BinaryReplay
    cursor_key = replay_type.cursor_key
    feed_names = [f"feed{index}" for index in range(feeds)]

    cursors = {name: 0 for name in feed_names}
    if resume_from_service:
        assert http_port is not None
        for name in feed_names:
            counters = await _feed_counters(host, http_port, name)
            cursors[name] = int(counters.get(cursor_key, 0))

    t0_wall = time.perf_counter()
    replay = (_TextReplay(path, feeds, batch_lines=batch_lines,
                          paced=speedup > 0) if codec == "text"
              else _BinaryReplay(path, feeds, paced=speedup > 0))
    results = await asyncio.gather(*(
        _drive_feed(name, functools.partial(
                        _send_once, host, tcp_port, name, replay, index,
                        speedup=speedup, t0_wall=t0_wall),
                    initial_cursor=cursors[name], cursor_key=cursor_key,
                    host=host, http_port=http_port, max_retries=max_retries)
        for index, name in enumerate(feed_names)))
    per_feed_counts: dict[str, dict[str, int]] = {}
    targets: dict[str, int] = {}
    for name, ((units, sent), retries) in zip(feed_names, results,
                                              strict=True):
        per_feed_counts[name] = replay.counts(units, sent) | {
            "skipped": cursors[name], "retries": retries}
        targets[name] = units

    latency_p50: float | None = None
    latency_p99: float | None = None
    if http_port is not None:
        await _await_drain(host, http_port, cursor_key, targets)
        metrics = await _get_json(host, http_port, "/metrics")
        blocks = [metrics.get("feeds", {}).get(name, {})
                  for name in feed_names]
        p50s = [block.get("latency_p50_s") for block in blocks]
        p99s = [block.get("latency_p99_s") for block in blocks]
        p50s = [value for value in p50s if value is not None]
        p99s = [value for value in p99s if value is not None]
        latency_p50 = max(p50s) if p50s else None
        latency_p99 = max(p99s) if p99s else None
    wall = time.perf_counter() - t0_wall
    total_sent = sum(sent for (_, sent), _ in results)

    return LoadReport(
        log_path=str(path),
        codec=codec,
        n_feeds=feeds,
        speedup=speedup,
        lines_sent=total_sent,
        frames_sent=0 if codec == "text" else sum(targets.values()),
        wall_seconds=wall,
        lines_per_sec=(total_sent / wall if wall > 0 else 0.0),
        latency_p50_s=latency_p50,
        latency_p99_s=latency_p99,
        retries=sum(retries for _, retries in results),
        resumed=resume_from_service,
        feeds=per_feed_counts,
    )


def run_load(log_path: str | Path, **kwargs: Any) -> LoadReport:
    """Synchronous wrapper around :func:`run_load_async`.

    Accepts the same keyword arguments; runs its own event loop, so it
    must not be called from inside one (use :func:`run_load_async`
    there).
    """
    return asyncio.run(run_load_async(log_path, **kwargs))
