"""Replay load harness: stream a recorded WMS log into a live service.

The harness replays a trace log — text or binary codec — into a running
:class:`~repro.serve.service.CharacterizationService` over one ingest
connection per feed, optionally paced against the log's own data time
(``speedup``; ``0`` replays as fast as the wire accepts).  Lines are
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
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Awaitable, Callable

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

    ``lines_sent`` counts text log lines or binary entry rows actually
    transmitted this run (resumed/skipped input is excluded);
    ``lines_per_sec`` divides that by the wall time from first connect
    to service-side drain, so it measures *sustained processed*
    throughput, not just socket writes.  Latency quantiles are the
    worst (max) per-feed ingest latency reported by ``/metrics``, or
    ``None`` when no metrics port was given.
    """

    log_path: str
    codec: str
    transport: str
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
            "transport": self.transport,
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
async def _http_json(host: str, port: int, method: str, path: str,
                     body: bytes = b"") -> Any:
    try:
        reader, writer = await asyncio.open_connection(host, port)
    except OSError as exc:
        raise ServeError(
            f"cannot reach service metrics port {host}:{port}: {exc}"
        ) from exc
    try:
        request = (f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
                   f"Content-Length: {len(body)}\r\n"
                   f"Connection: close\r\n\r\n").encode("ascii") + body
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
        raise ServeError(f"{method} {path} returned HTTP {status}: {detail}")
    return json.loads(payload)


async def _feed_counters(host: str, port: int, feed: str) -> dict[str, Any]:
    metrics = await _http_json(host, port, "GET", "/metrics")
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


async def _await_drain(host: str, port: int,
                       targets: dict[str, tuple[str, int]]) -> None:
    """Block until every feed's cursor reaches its replay target."""
    deadline = time.perf_counter() + _DRAIN_TIMEOUT_S
    while True:
        metrics = await _http_json(host, port, "GET", "/metrics")
        feeds = metrics.get("feeds", {})
        done = True
        for feed, (key, target) in sorted(targets.items()):
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
# Text replay
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


async def _send_text_once(host: str, port: int, feed: str,
                          lines: list[bytes], stamps: list[float] | None,
                          start: int, *, batch_lines: int, speedup: float,
                          ts0: float, t0_wall: float) -> int:
    try:
        reader, writer = await asyncio.open_connection(host, port)
    except OSError as exc:
        raise ServeError(
            f"cannot reach ingest port {host}:{port}: {exc}") from exc
    sent = 0
    try:
        try:
            writer.write(format_handshake("text", feed))
            for at in range(start, len(lines), batch_lines):
                if speedup > 0 and stamps is not None:
                    await _pace(t0_wall, ts0, stamps[at], speedup)
                writer.write(b"\n".join(lines[at:at + batch_lines]) + b"\n")
                await writer.drain()
                sent += len(lines[at:at + batch_lines])
            if writer.can_write_eof():
                writer.write_eof()
            response = await reader.readline()
        except (ConnectionError, OSError) as exc:
            raise _SendFailed(f"connection lost after {sent} lines: "
                              f"{exc}") from exc
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown
            pass
    if not response.startswith(b"OK"):
        raise _SendFailed(
            response.decode("utf-8", errors="replace").strip()
            or "connection closed without a response")
    return sent


async def _send_http_once(host: str, port: int, feed: str,
                          lines: list[bytes], stamps: list[float] | None,
                          start: int, *, batch_lines: int, speedup: float,
                          ts0: float, t0_wall: float) -> int:
    sent = 0
    for at in range(start, len(lines), batch_lines):
        if speedup > 0 and stamps is not None:
            await _pace(t0_wall, ts0, stamps[at], speedup)
        body = b"\n".join(lines[at:at + batch_lines]) + b"\n"
        try:
            await _http_json(host, port, "POST", f"/ingest/{feed}", body)
        except ServeError as exc:
            raise _SendFailed(str(exc)) from exc
        sent += len(lines[at:at + batch_lines])
    return sent


# ----------------------------------------------------------------------
# Binary replay
# ----------------------------------------------------------------------
def _first_timestamp(quantized: dict[str, Any]) -> float:
    return float(quantized["timestamp"][0])


async def _send_binary_once(host: str, port: int, feed: str,
                            feed_index: int, n_feeds: int, log_path: Path,
                            identity_rows: list[tuple[int, str, str, str]],
                            start_frame: int, *, speedup: float, ts0: float,
                            t0_wall: float) -> tuple[int, int]:
    """Send this feed's ENTRIES frames; returns (total_frames, rows_sent)."""
    trace = BinaryTraceReader(log_path)
    try:
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except OSError as exc:
            raise ServeError(
                f"cannot reach ingest port {host}:{port}: {exc}") from exc
        frames = 0
        rows_sent = 0
        try:
            try:
                writer.write(format_handshake("binary", feed))
                writer.write(pack_meta({"source": str(log_path),
                                        "feed_index": feed_index}))
                for at in range(0, len(identity_rows), _CLIENTS_CHUNK):
                    writer.write(pack_clients(
                        identity_rows[at:at + _CLIENTS_CHUNK]))
                    await writer.drain()
                for segment in range(trace.n_segments):
                    quantized = trace.segment_quantized(segment)
                    if n_feeds > 1:
                        mask = (quantized["object_id"] % n_feeds
                                ) == feed_index
                        if not bool(mask.any()):
                            continue
                        quantized = {name: column[mask]
                                     for name, column in quantized.items()}
                    if frames >= start_frame:
                        if speedup > 0:
                            await _pace(t0_wall, ts0,
                                        _first_timestamp(quantized), speedup)
                        writer.write(pack_entries(quantized))
                        await writer.drain()
                        rows_sent += int(quantized["timestamp"].size)
                    frames += 1
                writer.write(pack_end())
                await writer.drain()
                response = await reader.readline()
            except (ConnectionError, OSError) as exc:
                raise _SendFailed(f"connection lost after {rows_sent} "
                                  f"rows: {exc}") from exc
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
        if not response.startswith(b"OK"):
            raise _SendFailed(
                response.decode("utf-8", errors="replace").strip()
                or "connection closed without a response")
        return frames, rows_sent
    finally:
        trace.close()


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
                         batch_lines: int = 512, transport: str = "tcp",
                         codec: str | None = None,
                         resume_from_service: bool = False,
                         max_retries: int = 3) -> LoadReport:
    """Replay ``log_path`` into a running service; see :func:`run_load`."""
    path = Path(log_path)
    if not path.exists():
        raise ServeError(f"load log does not exist: {path}")
    if transport not in ("tcp", "http"):
        raise ServeError(f"unknown transport {transport!r} "
                         "(want 'tcp' or 'http')")
    if feeds < 1:
        raise ServeError(f"feeds must be positive, got {feeds}")
    if batch_lines < 1:
        raise ServeError(f"batch_lines must be positive, got {batch_lines}")
    if speedup < 0:
        raise ServeError(f"speedup must be >= 0, got {speedup}")
    if resume_from_service and http_port is None:
        raise ServeError("resume_from_service requires http_port")
    if codec is None:
        codec = detect_codec(path)
    if transport == "http" and codec != "text":
        raise ServeError("the http transport only carries the text codec")
    feed_names = [f"feed{index}" for index in range(feeds)]

    cursor_key = "lines_ingested" if codec == "text" else "frames_ingested"
    cursors = {name: 0 for name in feed_names}
    if resume_from_service:
        assert http_port is not None
        for name in feed_names:
            counters = await _feed_counters(host, http_port, name)
            cursors[name] = int(counters.get(cursor_key, 0))

    per_feed_counts: dict[str, dict[str, int]] = {}
    targets: dict[str, tuple[str, int]] = {}
    total_sent = 0
    total_frames = 0
    total_retries = 0

    t0_wall = time.perf_counter()
    if codec == "text":
        data = path.read_bytes()  # reprolint: disable=RL040, one-shot preload before the replay clock starts; the harness owns this loop
        per_feed, stamps = _partition_text(data, feeds,
                                           want_ts=speedup > 0)
        ts0 = 0.0
        if speedup > 0 and stamps is not None:
            first = [feed_stamps[0] for feed_stamps in stamps if feed_stamps]
            ts0 = min(first) if first else 0.0
        send = (_send_http_once if transport == "http" else _send_text_once)
        port = http_port if transport == "http" else tcp_port
        assert port is not None

        def text_attempt(index: int) -> Callable[[int], Awaitable[int]]:
            async def attempt(skip: int) -> int:
                return await send(
                    host, port, feed_names[index], per_feed[index],
                    stamps[index] if stamps is not None else None, skip,
                    batch_lines=batch_lines, speedup=speedup, ts0=ts0,
                    t0_wall=t0_wall)
            return attempt

        results = await asyncio.gather(*(
            _drive_feed(feed_names[index], text_attempt(index),
                        initial_cursor=cursors[feed_names[index]],
                        cursor_key=cursor_key, host=host,
                        http_port=http_port, max_retries=max_retries)
            for index in range(feeds)))
        for index, (sent, retries) in enumerate(results):
            name = feed_names[index]
            per_feed_counts[name] = {
                "lines_sent": int(sent),
                "skipped": cursors[name],
                "retries": retries,
            }
            targets[name] = (cursor_key, len(per_feed[index]))
            total_sent += int(sent)
            total_retries += retries
    else:
        with BinaryTraceReader(path) as trace:
            identity_rows = [(index, ip, player, os_name)
                             for index, (ip, player, os_name)
                             in sorted(trace.client_identity_map().items())]
            ts0 = 0.0
            if speedup > 0 and trace.n_segments:
                ts0 = _first_timestamp(trace.segment_quantized(0))

        def binary_attempt(index: int
                           ) -> Callable[[int], Awaitable[tuple[int, int]]]:
            async def attempt(skip: int) -> tuple[int, int]:
                return await _send_binary_once(
                    host, tcp_port, feed_names[index], index, feeds, path,
                    identity_rows, skip, speedup=speedup, ts0=ts0,
                    t0_wall=t0_wall)
            return attempt

        results = await asyncio.gather(*(
            _drive_feed(feed_names[index], binary_attempt(index),
                        initial_cursor=cursors[feed_names[index]],
                        cursor_key=cursor_key, host=host,
                        http_port=http_port, max_retries=max_retries)
            for index in range(feeds)))
        for index, ((frames, rows_sent), retries) in enumerate(results):
            name = feed_names[index]
            per_feed_counts[name] = {
                "frames_total": int(frames),
                "rows_sent": int(rows_sent),
                "skipped": cursors[name],
                "retries": retries,
            }
            targets[name] = (cursor_key, int(frames))
            total_sent += int(rows_sent)
            total_frames += int(frames)
            total_retries += retries

    latency_p50: float | None = None
    latency_p99: float | None = None
    if http_port is not None:
        await _await_drain(host, http_port, targets)
        metrics = await _http_json(host, http_port, "GET", "/metrics")
        blocks = [metrics.get("feeds", {}).get(name, {})
                  for name in feed_names]
        p50s = [block.get("latency_p50_s") for block in blocks]
        p99s = [block.get("latency_p99_s") for block in blocks]
        p50s = [value for value in p50s if value is not None]
        p99s = [value for value in p99s if value is not None]
        latency_p50 = max(p50s) if p50s else None
        latency_p99 = max(p99s) if p99s else None
    wall = time.perf_counter() - t0_wall

    return LoadReport(
        log_path=str(path),
        codec=codec,
        transport=transport,
        n_feeds=feeds,
        speedup=speedup,
        lines_sent=total_sent,
        frames_sent=total_frames,
        wall_seconds=wall,
        lines_per_sec=(total_sent / wall if wall > 0 else 0.0),
        latency_p50_s=latency_p50,
        latency_p99_s=latency_p99,
        retries=total_retries,
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
