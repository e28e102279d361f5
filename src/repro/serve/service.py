"""The live characterization service: TCP ingest, HTTP metrics, checkpoints.

::

    repro serve --tcp-port 7070 --http-port 8080 --checkpoint serve.npz

One asyncio event loop runs everything:

* a TCP ingest server, the only way data comes in (wire protocol of
  :mod:`repro.serve.protocol`: a ``REPRO-SERVE/1 <codec> <feed>``
  handshake, then text lines or binary frames);
* a minimal HTTP server for reads and control — ``GET /metrics``
  (operational metrics + parameter drift), ``GET /state`` (the
  deterministic state document), ``GET /healthz`` and
  ``POST /checkpoint`` (checkpoint now);
* one consumer task per :class:`~repro.serve.feed.FeedWorker`;
* a periodic checkpoint task writing atomic ``.npz`` snapshots through
  :mod:`repro.stream.checkpoint` — a ``kill -9`` at any moment loses at
  most the batches processed since the last checkpoint, and those are
  re-ingestable from the per-feed cursors the checkpoint captures.  A
  failed save is counted (``checkpoint_errors`` in ``/metrics``) and
  tried again at the next interval; the previous checkpoint stays.

Because a worker processes each batch without touching the event loop,
any coroutine that runs between batches (checkpointing, ``/state``)
observes a consistent cut of every accumulator.
"""

from __future__ import annotations

import asyncio
import codecs
import io
import json
from typing import Any, Mapping

import numpy as np

from ..conform.registry import load_registry
from ..errors import CheckpointError, ProtocolError, ReproError, ServeError
from ..state import restore_state, save_state
from ..stream.checkpoint import load_checkpoint, require_match, save_checkpoint
from .config import ServeConfig
from .feed import FeedWorker
from .metrics import feed_metrics
from .protocol import (
    FRAME_CLIENTS,
    FRAME_END,
    FRAME_ENTRIES,
    FRAME_META,
    parse_handshake,
    read_frame,
    unpack_clients,
    unpack_entries,
    unpack_meta,
)
from .tracking import BIN_SECONDS, WINDOW_BINS, RateMeter

#: Bytes per text-ingest read chunk.
_READ_CHUNK = 1 << 16

#: Longest partial text line (bytes after the last ``\n``) a connection
#: may hold between reads; a longer one is refused with ProtocolError, so
#: a sender that never ends its line cannot grow the buffer without bound.
MAX_PARTIAL_LINE = 1 << 20

#: Ceiling on one HTTP request body (no route reads one; it is drained).
_MAX_HTTP_BODY = 64 * 1024

_CHECKPOINT_FORMAT = "repro-serve-v2"


def _http_response(status: str, body: bytes,
                   content_type: str = "application/json") -> bytes:
    return (f"HTTP/1.1 {status}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n").encode("ascii") + body


def _json_body(document: Mapping[str, Any]) -> bytes:
    return (json.dumps(document, sort_keys=True) + "\n").encode("ascii")


class CharacterizationService:
    """Long-running live characterization over many concurrent feeds."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config.validate()
        self.workers: dict[str, FeedWorker] = {}
        self._tasks: dict[str, asyncio.Task[None]] = {}
        self._rates: dict[str, RateMeter] = {}
        self._tcp_server: asyncio.AbstractServer | None = None
        self._http_server: asyncio.AbstractServer | None = None
        self._checkpoint_task: asyncio.Task[None] | None = None
        self._started_at = 0.0
        self.n_connections = 0
        self.checkpoints_written = 0
        self.checkpoint_errors = 0
        self.last_checkpoint_error: str | None = None
        self._registry: dict[str, Any] | None = None
        if config.golden_workload is not None:
            self._registry = load_registry()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Resume (if configured), bind both servers, start checkpointing."""
        if self.config.resume:
            assert self.config.checkpoint_path is not None
            self.restore_from(self.config.checkpoint_path)
        loop = asyncio.get_running_loop()
        for name, worker in self.workers.items():
            if name not in self._tasks:
                self._tasks[name] = asyncio.ensure_future(worker.run())
        self._started_at = loop.time()
        self._tcp_server = await asyncio.start_server(
            self._handle_tcp, host=self.config.host,
            port=self.config.tcp_port)
        self._http_server = await asyncio.start_server(
            self._handle_http, host=self.config.host,
            port=self.config.http_port)
        if self.config.checkpoint_path is not None:
            self._checkpoint_task = asyncio.ensure_future(
                self._checkpoint_loop())

    @property
    def tcp_port(self) -> int:
        """The bound ingest port (resolves ``port=0`` requests)."""
        assert self._tcp_server is not None and self._tcp_server.sockets
        return int(self._tcp_server.sockets[0].getsockname()[1])

    @property
    def http_port(self) -> int:
        """The bound metrics/control HTTP port."""
        assert self._http_server is not None and self._http_server.sockets
        return int(self._http_server.sockets[0].getsockname()[1])

    async def serve_forever(self) -> None:
        """Serve until cancelled."""
        assert self._tcp_server is not None
        async with self._tcp_server:
            await self._tcp_server.serve_forever()

    async def stop(self) -> None:
        """Close the servers, drain every worker, then write a final
        checkpoint; a failed final save raises once the workers are
        down."""
        for server in (self._tcp_server, self._http_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        if self._checkpoint_task is not None:
            self._checkpoint_task.cancel()
            try:
                await self._checkpoint_task
            except asyncio.CancelledError:
                pass
        for name in sorted(self.workers):
            await self.workers[name].shutdown()
            await self._tasks[name]
        if self.config.checkpoint_path is not None:
            self.checkpoint_now()

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    def worker(self, feed: str) -> FeedWorker:
        """Get or lazily create (and schedule) the worker for ``feed``."""
        existing = self.workers.get(feed)
        if existing is not None:
            return existing
        worker = self._new_worker(feed)
        self.workers[feed] = worker
        self._rates[feed] = RateMeter()
        self._tasks[feed] = asyncio.ensure_future(worker.run())
        return worker

    def _new_worker(self, feed: str) -> FeedWorker:
        cfg = self.config
        return FeedWorker(
            feed, timeout=cfg.timeout, lateness=cfg.lateness,
            queue_batches=cfg.queue_batches)

    def _record_rate(self, feed: str, n: int) -> None:
        loop = asyncio.get_running_loop()
        self._rates[feed].add(loop.time(), n)

    # ------------------------------------------------------------------
    # TCP ingest
    # ------------------------------------------------------------------
    async def _handle_tcp(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        self.n_connections += 1
        try:
            try:
                handshake = await reader.readline()
                codec, feed = parse_handshake(handshake)
                worker = self.worker(feed)
                if codec == "text":
                    summary = await self._serve_text(reader, worker)
                else:
                    summary = await self._serve_binary(reader, worker)
            except (ProtocolError, _Backpressure) as exc:
                writer.write(f"ERR {exc}\n".encode("ascii", "replace"))
                await writer.drain()
                return
            writer.write(b"OK " + _json_body(summary))
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer vanished mid-conversation; worker state is intact
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _serve_text(self, reader: asyncio.StreamReader,
                          worker: FeedWorker) -> dict[str, Any]:
        offered = 0
        carry = ""
        # The decoding of :func:`~repro.trace.wms_log.open_log`: a line
        # ends at ``\n``, ``\r`` or ``\r\n``, and a ``\r`` that ends
        # one read waits for the next.
        decoder = io.IncrementalNewlineDecoder(
            codecs.getincrementaldecoder("ascii")(errors="replace"),
            translate=True)
        while True:
            chunk = await reader.read(_READ_CHUNK)
            lines = decoder.decode(chunk, final=not chunk).split("\n")
            lines[0] = carry + lines[0]
            carry = lines.pop()
            if len(carry) > MAX_PARTIAL_LINE:
                raise ProtocolError(
                    f"text line longer than {MAX_PARTIAL_LINE} bytes "
                    f"on feed {worker.name!r}")
            if lines:
                if not worker.offer_lines(lines):
                    raise _Backpressure(
                        f"backpressure: feed {worker.name!r} queue is full "
                        f"({len(lines)} lines shed)")
                offered += len(lines)
                self._record_rate(worker.name, len(lines))
            if not chunk:
                break
        if carry:
            # A partial trailing line can never be parsed: count it
            # rather than guessing at its contents.
            worker.truncated_lines += 1
        return {"feed": worker.name, "codec": "text",
                "lines_offered": offered,
                "truncated": 1 if carry else 0,
                "feed_errors": worker.feed_errors}

    async def _serve_binary(self, reader: asyncio.StreamReader,
                            worker: FeedWorker) -> dict[str, Any]:
        frames = 0
        rows = 0
        meta: dict[str, Any] = {}
        while True:
            try:
                frame_type, payload = await read_frame(reader)
            except EOFError:
                break
            if frame_type == FRAME_END:
                break
            if frame_type == FRAME_META:
                meta = unpack_meta(payload)
                continue
            if frame_type == FRAME_CLIENTS:
                if not worker.offer_clients(unpack_clients(payload)):
                    raise _Backpressure(
                        f"backpressure: feed {worker.name!r} queue is "
                        "full (CLIENTS frame shed)")
                frames += 1
                continue
            assert frame_type == FRAME_ENTRIES
            quantized = unpack_entries(payload)
            n = int(quantized["timestamp"].size)
            if not worker.offer_entries(quantized):
                raise _Backpressure(
                    f"backpressure: feed {worker.name!r} queue is full "
                    f"(ENTRIES frame of {n} rows shed)")
            frames += 1
            rows += n
            self._record_rate(worker.name, n)
        return {"feed": worker.name, "codec": "binary",
                "frames_offered": frames, "rows_offered": rows,
                "sender_meta": meta, "feed_errors": worker.feed_errors}

    # ------------------------------------------------------------------
    # HTTP
    # ------------------------------------------------------------------
    async def _handle_http(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            response = await self._http_dispatch(reader)
        except (ConnectionError, asyncio.IncompleteReadError):
            writer.close()
            return
        except ReproError as exc:
            response = _http_response(
                "400 Bad Request",
                _json_body({"error": f"{type(exc).__name__}: {exc}"}))
        try:
            writer.write(response)
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _http_dispatch(self, reader: asyncio.StreamReader) -> bytes:
        request = (await reader.readline()).decode("ascii", "replace")
        parts = request.split()
        if len(parts) < 2:
            return _http_response("400 Bad Request",
                                  _json_body({"error": "bad request line"}))
        method, target = parts[0], parts[1]
        content_length = 0
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("ascii", "replace").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return _http_response(
                        "400 Bad Request",
                        _json_body({"error": "bad Content-Length"}))
        if content_length > _MAX_HTTP_BODY:
            return _http_response(
                "413 Payload Too Large",
                _json_body({"error": f"body exceeds {_MAX_HTTP_BODY}"}))
        await reader.readexactly(content_length)

        if method == "GET" and target == "/healthz":
            return _http_response("200 OK", _json_body({"status": "ok"}))
        if method == "GET" and target == "/metrics":
            return _http_response("200 OK",
                                  _json_body(self.metrics_document()))
        if method == "GET" and target == "/state":
            return _http_response("200 OK",
                                  _json_body(self.state_document()))
        if method == "POST" and target == "/checkpoint":
            if self.config.checkpoint_path is None:
                return _http_response(
                    "409 Conflict",
                    _json_body({"error": "service runs without a "
                                         "checkpoint path"}))
            error = self._checkpoint_counted()
            if error is not None:
                return _http_response("500 Internal Server Error",
                                      _json_body({"error": error}))
            return _http_response(
                "200 OK",
                _json_body({"path": self.config.checkpoint_path,
                            "checkpoints": self.checkpoints_written}))
        return _http_response("404 Not Found",
                              _json_body({"error": f"no route for "
                                                   f"{method} {target}"}))

    # ------------------------------------------------------------------
    # Documents
    # ------------------------------------------------------------------
    def _config_fingerprint(self) -> dict[str, float | int]:
        cfg = self.config
        return {"timeout": cfg.timeout, "lateness": cfg.lateness,
                "bin_seconds": BIN_SECONDS, "window_bins": WINDOW_BINS}

    def state_document(self) -> dict[str, Any]:
        """The deterministic state of every feed (the ``/state`` body).

        A pure function of each feed's processed input: two services fed
        the same batches — directly, or via kill -9 and resume — render
        the identical document.
        """
        feeds: dict[str, Any] = {}
        for name in sorted(self.workers):
            meta, arrays = save_state(self.workers[name])
            feeds[name] = {"meta": meta, "arrays": {
                key: value.tolist() for key, value in sorted(arrays.items())}}
        return {"format": _CHECKPOINT_FORMAT,
                "config": self._config_fingerprint(), "feeds": feeds}

    def metrics_document(self) -> dict[str, Any]:
        """The operational ``/metrics`` body."""
        try:
            now = asyncio.get_running_loop().time()
        except RuntimeError:  # outside the loop (tests)
            now = self._started_at

        feeds: dict[str, Any] = {}
        total_rate = 0.0
        for name in sorted(self.workers):
            rate = self._rates[name].rate(now)
            total_rate += rate
            feeds[name] = feed_metrics(
                self.workers[name], lines_per_sec=rate,
                workload=self.config.golden_workload,
                registry=self._registry)
            feeds[name]["last_error"] = self.workers[name].last_error
        return {
            "service": {
                "uptime_s": (now - self._started_at
                             if self._started_at else 0.0),
                "n_feeds": len(self.workers),
                "n_connections": self.n_connections,
                "lines_per_sec": total_rate,
                "checkpoints_written": self.checkpoints_written,
                "checkpoint_errors": self.checkpoint_errors,
                "last_checkpoint_error": self.last_checkpoint_error,
                "checkpoint_path": self.config.checkpoint_path,
            },
            "feeds": feeds,
        }

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint_now(self) -> str:
        """Write an atomic checkpoint; returns its path.

        Raises
        ------
        ServeError
            If the service was configured without a checkpoint path.
        """
        path = self.config.checkpoint_path
        if path is None:
            raise ServeError("service has no checkpoint path")
        meta: dict[str, Any] = {
            "format": _CHECKPOINT_FORMAT,
            "fingerprint": dict(self._config_fingerprint(), kind="serve"),
            "feeds": {},
        }
        arrays: dict[str, np.ndarray[Any, np.dtype[Any]]] = {}
        for position, name in enumerate(sorted(self.workers)):
            prefix = f"f{position}_"
            feed_meta, feed_arrays = save_state(self.workers[name], prefix)
            meta["feeds"][name] = dict(feed_meta, array_prefix=prefix)
            arrays.update(feed_arrays)
        save_checkpoint(path, meta, arrays)
        self.checkpoints_written += 1
        return path

    def restore_from(self, path: str) -> None:
        """Restore every feed worker from a service checkpoint.

        Raises
        ------
        CheckpointError
            If the checkpoint was written by a differently-configured
            service (timeout/lateness/binning must match exactly), or a
            feed's state is missing or does not fit its schema.
        """
        meta, arrays = load_checkpoint(path)
        if meta.get("format") != _CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"{path!r} is not a serve checkpoint "
                f"(format {meta.get('format')!r})")
        require_match(meta, self._config_fingerprint(), path)
        feeds = meta.get("feeds")
        if not isinstance(feeds, dict):
            raise CheckpointError(f"checkpoint {path!r} has no feed table")
        for position, name in enumerate(sorted(feeds)):
            worker = self._new_worker(name)
            # checkpoint_now numbers the feeds' prefixes in this order.
            restore_state(worker, feeds[name], arrays, f"f{position}_")
            self.workers[name] = worker
            self._rates[name] = RateMeter()

    def _checkpoint_counted(self) -> str | None:
        """:meth:`checkpoint_now`, but a failed save is counted and its
        message returned rather than raised (the previous checkpoint
        stays in place)."""
        try:
            # Blocking the loop between batches is what makes the
            # snapshot a consistent cut.
            self.checkpoint_now()
        except OSError as exc:
            self.checkpoint_errors += 1
            self.last_checkpoint_error = f"{type(exc).__name__}: {exc}"
            return self.last_checkpoint_error
        return None

    async def _checkpoint_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.checkpoint_interval)
            self._checkpoint_counted()


class _Backpressure(ServeError):
    """Raised connection-side when an offer is shed (closes the peer)."""
