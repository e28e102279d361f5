"""Windows-Media-Server-style log writing and parsing.

The paper's trace is a Windows Media Services 4.1 log: one space-separated
entry per client/server request-response with client identification,
environment, requested object, transfer statistics, server load, and a
one-second-resolution timestamp (Section 2.3).  This module emulates that
format closely enough that the sanitization and characterization pipeline
exercises the same parsing realities — coarse timestamps, ``-`` placeholders,
and per-entry (not per-session) rows.

The log intentionally does *not* carry autonomous-system or country columns:
the paper derived those by tracing IPs back to ASes with external routing
data (Section 3.1).  :func:`read_wms_log` accepts an optional ``resolver``
callable standing in for that external mapping.

The text format implemented here is one of the interchangeable trace
codecs registered in :mod:`repro.trace.codecs`; the columnar binary codec
shares this module's :class:`StreamingTraceWriter` reorder buffer, so both
emit entries in the identical ``(end, trace position)`` order.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np
import numpy.typing as npt

from .._typing import FloatArray, IntArray
from ..errors import LogParseError
from .builder import TraceBuilder
from .records import ClientRecord
from .store import Trace

#: An ndarray of any dtype (the reorder buffer mixes floats and ints).
_AnyArray = np.ndarray[Any, np.dtype[Any]]

#: Columns written by :func:`write_wms_log`, in order.
LOG_FIELDS: tuple[str, ...] = (
    "x-timestamp",        # integer seconds since trace start (entry creation)
    "c-ip",
    "c-playerid",
    "c-os",
    "cs-uri-stem",        # /live/feed<object_id>
    "x-duration",         # transfer length, integer seconds
    "avg-bandwidth",      # bits per second
    "packet-loss-rate",   # fraction in [0, 1]
    "s-cpu-util",         # fraction in [0, 1]
    "sc-status",
    "cs-referer",
)

_URI_PREFIX = "/live/feed"

#: Type of the optional IP -> (as_number, country) resolver.
IpResolver = Callable[[str], tuple[int, str]]


def _format_entry(timestamp: int, ip: str, player_id: str, os_name: str,
                  object_id: int, duration: int, bandwidth: float,
                  loss: float, cpu: float, status: int) -> str:
    return " ".join((
        str(timestamp),
        ip,
        player_id,
        os_name or "-",
        f"{_URI_PREFIX}{object_id}",
        str(duration),
        f"{bandwidth:.0f}",
        f"{loss:.4f}",
        f"{cpu:.4f}",
        str(status),
        "-",
    ))


#: Type of the client-identity provider used by the streaming writers:
#: maps a client index to ``(ip, player_id, os_name)``.
ClientIdentity = Callable[[int], tuple[str, str, str]]

#: Per-transfer columns buffered by :class:`StreamingTraceWriter`, in
#: checkpoint/state order.
_WRITER_COLUMNS: tuple[tuple[str, type], ...] = (
    ("end", np.float64), ("position", np.int64),
    ("client_index", np.int64), ("object_id", np.int64),
    ("duration", np.float64), ("bandwidth_bps", np.float64),
    ("packet_loss", np.float64), ("server_cpu", np.float64),
    ("status", np.int64),
)


def _table_identity(trace: Trace) -> ClientIdentity:
    """Client identities looked up from a trace's client table."""
    clients = trace.clients

    def identity(index: int) -> tuple[str, str, str]:
        return (str(clients.ips[index]), str(clients.player_ids[index]),
                str(clients.os_names[index]))

    return identity


class StreamingTraceWriter:
    """Reorder buffer shared by every incremental trace codec writer.

    The server logs an entry when a transfer *completes*, so the emitted
    stream is ordered by transfer end while generation streams transfers
    by start.  The writer keeps an in-flight reorder buffer: a pushed
    transfer is held until the caller's ``horizon`` — a lower bound on
    every future transfer's start — guarantees no later transfer can end
    before it (``end >= start >= horizon``).  Buffered memory is
    therefore bounded by the workload's peak concurrency, never by the
    trace length, and entries are handed to the codec-specific
    :meth:`_emit_entries` in ``(end, trace position)`` order — exactly
    the batch writer's stable sort by end.

    Subclasses implement :meth:`_emit_entries` (and may extend the
    checkpoint state via :meth:`state_meta` / :meth:`state_arrays` /
    :meth:`restore`).

    Parameters
    ----------
    identity:
        Maps a client index to ``(ip, player_id, os_name)`` — e.g. a
        client-table lookup, or
        :func:`repro.core.gismo.synthetic_client_identity` for generated
        workloads where materializing the table would defeat the memory
        bound.
    """

    def __init__(self, identity: ClientIdentity) -> None:
        self._identity = identity
        self.n_written = 0
        self._buffer: dict[str, _AnyArray] = {
            name: np.empty(0, dtype=dtype)
            for name, dtype in _WRITER_COLUMNS}

    @property
    def n_buffered(self) -> int:
        """Number of in-flight (pushed, not yet flushed) entries."""
        return int(self._buffer["end"].size)

    def push(self, *, client_index: IntArray, object_id: IntArray,
             start: FloatArray, duration: FloatArray,
             bandwidth_bps: FloatArray, global_offset: int,
             horizon: float,
             packet_loss: FloatArray | None = None,
             server_cpu: FloatArray | None = None,
             status: IntArray | None = None) -> int:
        """Buffer one batch of transfers and flush what the horizon allows.

        ``global_offset`` is the trace position of the batch's first
        transfer (positions break end-time ties exactly like the batch
        writer's stable sort).  ``horizon`` promises that every transfer
        of every *later* push starts at or after it; entries with
        ``end < horizon`` are flushed now.  Returns the number of entries
        written by this call.
        """
        start = np.asarray(start, dtype=np.float64)
        n = start.size
        new: dict[str, _AnyArray] = {
            "end": start + np.asarray(duration, dtype=np.float64),
            "position": global_offset + np.arange(n, dtype=np.int64),
            "client_index": np.asarray(client_index, dtype=np.int64),
            "object_id": np.asarray(object_id, dtype=np.int64),
            "duration": np.asarray(duration, dtype=np.float64),
            "bandwidth_bps": np.asarray(bandwidth_bps, dtype=np.float64),
            "packet_loss": (np.zeros(n, dtype=np.float64)
                            if packet_loss is None
                            else np.asarray(packet_loss, dtype=np.float64)),
            "server_cpu": (np.zeros(n, dtype=np.float64)
                           if server_cpu is None
                           else np.asarray(server_cpu, dtype=np.float64)),
            "status": (np.full(n, 200, dtype=np.int64) if status is None
                       else np.asarray(status, dtype=np.int64)),
        }
        self._buffer = {name: np.concatenate([col, new[name]])
                        for name, col in self._buffer.items()}
        return self._flush_below(horizon)

    def _flush_below(self, horizon: float) -> int:
        """Emit buffered entries with ``end < horizon``; keep the rest."""
        buffer = self._buffer
        ready = buffer["end"] < horizon
        n_ready = int(np.count_nonzero(ready))
        if n_ready == 0:
            return 0
        keep = ~ready
        emit = {name: col[ready] for name, col in buffer.items()}
        self._buffer = {name: col[keep].copy()
                        for name, col in buffer.items()}
        # (end, trace position) == the batch writer's stable sort by end.
        order = np.lexsort((emit["position"], emit["end"]))
        self._emit_entries({name: col[order] for name, col in emit.items()})
        self.n_written += n_ready
        return n_ready

    def _emit_entries(self, emit: Mapping[str, _AnyArray]) -> None:
        """Write one flushed batch, already in ``(end, position)`` order.

        ``emit`` holds the :data:`_WRITER_COLUMNS` arrays; codec
        subclasses serialize them however their format requires.
        """
        raise NotImplementedError

    def finish(self) -> int:
        """Flush every buffered entry; returns the total written so far.

        The output stream itself is left open (the caller owns it).
        """
        self._flush_below(np.inf)
        return self.n_written

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_meta(self) -> dict[str, Any]:
        """JSON-serializable scalar writer state (for checkpointing)."""
        return {"n_written": self.n_written}

    def state_arrays(self) -> dict[str, _AnyArray]:
        """The reorder buffer as named arrays (for checkpointing)."""
        return {name: col.copy() for name, col in self._buffer.items()}

    def restore(self, meta: Mapping[str, Any],
                arrays: Mapping[str, _AnyArray]) -> None:
        """Restore a checkpointed buffer and written-entry count."""
        self.n_written = int(meta["n_written"])
        self._buffer = {
            name: np.asarray(arrays[name], dtype=dtype)
            for name, dtype in _WRITER_COLUMNS}


class StreamingWmsLogWriter(StreamingTraceWriter):
    """Writes a WMS-style text log from start-ordered transfer batches.

    The emitted file is byte-identical to :func:`write_wms_log` over the
    materialized trace (see :class:`StreamingTraceWriter` for the
    ordering argument).

    Parameters
    ----------
    stream:
        Open text stream to write to (the caller owns it).
    identity:
        See :class:`StreamingTraceWriter`.
    software:
        The ``#Software`` header value.
    write_header:
        Write the three header lines immediately.  Pass ``False`` when
        resuming into a log file that already has them.
    """

    def __init__(self, stream: TextIO, identity: ClientIdentity, *,
                 software: str = "Windows Media Services 4.1",
                 write_header: bool = True) -> None:
        super().__init__(identity)
        self._stream = stream
        if write_header:
            stream.write(f"#Software: {software}\n")
            stream.write("#Version: 1.0\n")
            stream.write(f"#Fields: {' '.join(LOG_FIELDS)}\n")

    def _emit_entries(self, emit: Mapping[str, _AnyArray]) -> None:
        identity = self._identity
        lines = []
        rows = zip(*(emit[name].tolist() for name, _ in _WRITER_COLUMNS),
                   strict=True)
        for end, _, client, obj, dur, bw, loss, cpu, stat in rows:
            ip, player_id, os_name = identity(client)
            lines.append(_format_entry(
                timestamp=int(end), ip=ip, player_id=player_id,
                os_name=os_name, object_id=obj,
                duration=int(round(dur)), bandwidth=bw, loss=loss,
                cpu=cpu, status=stat))
        lines.append("")
        self._stream.write("\n".join(lines))


def write_wms_log(trace: Trace, path: str | Path | TextIO, *,
                  software: str = "Windows Media Services 4.1") -> int:
    """Write ``trace`` as a WMS-style log; returns the number of entries.

    Entries are emitted in order of entry-creation time (the transfer *end*,
    floored to whole seconds — the server logs a request/response when the
    transfer completes).  Durations are rounded to whole seconds, matching
    the paper's one-second resolution.

    This is the one-shot front end to :class:`StreamingWmsLogWriter`: the
    whole trace is pushed as a single batch and flushed, which is what
    makes the incremental writer byte-identical to this function by
    construction.
    """
    own = isinstance(path, (str, Path))
    stream: TextIO = (open(path, "w", encoding="ascii")
                      if isinstance(path, (str, Path)) else path)
    try:
        writer = StreamingWmsLogWriter(stream, _table_identity(trace),
                                       software=software)
        writer.push(
            client_index=trace.client_index, object_id=trace.object_id,
            start=trace.start, duration=trace.duration,
            bandwidth_bps=trace.bandwidth_bps,
            packet_loss=trace.packet_loss, server_cpu=trace.server_cpu,
            status=trace.status, global_offset=0, horizon=-np.inf)
        return writer.finish()
    finally:
        if own:
            stream.close()


def parse_fields_header(line: str, line_number: int) -> list[str]:
    """The column layout of a ``#Fields:`` directive line; raises
    :class:`LogParseError` if it lacks any of :data:`LOG_FIELDS`."""
    fields = line[len("#Fields:"):].split()
    missing = [f for f in LOG_FIELDS if f not in fields]
    if missing:
        raise LogParseError(f"log is missing required fields: {missing}",
                            line_number=line_number, line=line)
    return fields


#: Lines per batch of :func:`parse_log_stream`, which bounds the memory of
#: every text reader.  Smaller batches keep the split rows in cache; larger
#: ones repeat the per-batch numpy overhead less often.
PARSE_BATCH_LINES = 1024


#: The typed columns of an entry, in the order the entry rule checks
#: them: ``(log field, column, dtype)``; int64 fields parse with ``int``.
_TYPED_FIELDS: tuple[tuple[str, str, type], ...] = (
    ("x-timestamp", "timestamp", np.int64),
    ("x-duration", "duration", np.float64),
    ("cs-uri-stem", "object_id", np.int64),
    ("avg-bandwidth", "bandwidth_bps", np.float64),
    ("packet-loss-rate", "packet_loss", np.float64),
    ("s-cpu-util", "server_cpu", np.float64),
    ("sc-status", "status", np.int64),
)


@dataclass(frozen=True)
class ParsedLog:
    """Data lines parsed by :func:`parse_log_lines` under ``fields`` (one
    object per directive in :func:`parse_log_stream`): the entries' typed
    ``columns`` (see :data:`_TYPED_FIELDS`), their ``c-ip``/
    ``c-playerid``/``c-os`` strings, one error per skipped line."""

    fields: Sequence[str]
    columns: dict[str, _AnyArray]
    ips: list[str]
    players: list[str]
    os_names: list[str]
    errors: list[LogParseError]

    @property
    def n_entries(self) -> int:
        """Number of lines that passed the entry rule."""
        return len(self.players)


def parse_log_lines(lines: Sequence[str], fields: Sequence[str], *,
                    line_numbers: Sequence[int] | None = None) -> ParsedLog:
    """Parse WMS log data lines under a ``#Fields`` layout.

    The one parser of a WMS data line.  A line is an entry when it is
    ASCII and splits into exactly ``len(fields)`` columns; its timestamp,
    duration, URI stem (``/live/feed<int>``), bandwidth, loss, CPU and
    status parse with ``int``/``float``, the integers fit int64, the
    floats are finite and ``x-duration`` is in ``[0, 2**63)`` seconds.
    Other lines get a :class:`LogParseError` (labelled by
    ``line_numbers``) naming the first check they fail, in that order.
    Fields convert column by column, value by value only in a column
    with a bad value.  A layout lacking any of :data:`LOG_FIELDS` raises.
    """
    missing = [f for f in LOG_FIELDS if f not in fields]
    if missing:
        raise LogParseError(f"layout is missing required fields: {missing}")
    # The last of duplicated field names wins, as in a row dict.
    at = {name: k for k, name in enumerate(fields)}
    width = len(fields)
    n = len(lines)
    alive = np.ones(n, dtype=bool)
    failures: list[tuple[int, str]] = []

    def reject(messages: dict[int, str]) -> None:  # first failure wins
        for k, message in messages.items():
            if alive[k]:
                alive[k] = False
                failures.append((k, message))

    rows = [line.split() for line in lines]
    reject({k: "undecodable bytes (non-ASCII) in entry"
            if not line.isascii()
            else f"expected {width} columns, got {len(parts)}"
            for k, (line, parts) in enumerate(zip(lines, rows, strict=True))
            if len(parts) != width or not line.isascii()})
    if not alive.all():
        # A parseable stand-in keeps every column aligned with ``lines``.
        filler = ["0"] * width
        filler[at["cs-uri-stem"]] = _URI_PREFIX + "0"
        for k in np.flatnonzero(~alive).tolist():
            rows[k] = filler
    texts: list[Sequence[str]] = (list(zip(*rows, strict=True)) if rows
                                  else [()] * width)

    columns: dict[str, _AnyArray] = {}
    for field, name, dtype in _TYPED_FIELDS:
        convert: Callable[[str], Any] = float if dtype is np.float64 else int
        raw = texts[at[field]]
        if field == "cs-uri-stem":
            reject({k: f"unexpected URI stem {uri!r}"
                    for k, uri in enumerate(raw)
                    if not uri.startswith(_URI_PREFIX)})
            raw = [uri[len(_URI_PREFIX):] for uri in raw]
        try:
            values = np.fromiter(map(convert, raw), dtype=dtype, count=n)
        except (ValueError, OverflowError):
            values = np.zeros(n, dtype=dtype)
            messages: dict[int, str] = {}
            for k, text in enumerate(raw):
                try:
                    values[k] = convert(text)
                except ValueError as exc:
                    messages[k] = str(exc)
                except OverflowError:
                    messages[k] = f"{field} out of range: {text!r}"
            reject(messages)
        reject({k: f"{field} is not finite: {raw[k]!r}"
                for k in np.flatnonzero(~np.isfinite(values)).tolist()})
        if field == "x-duration":
            # Whole seconds must fit int64 (the floor(t) + 1 display).
            reject({k: f"x-duration outside [0, 2**63): {raw[k]!r}"
                    for k in np.flatnonzero(
                        (values < 0) | (values >= 2.0**63)).tolist()})
        columns[name] = values

    strings = [texts[at[field]] for field in ("c-ip", "c-playerid", "c-os")]
    if not alive.all():
        keep = np.flatnonzero(alive)
        columns = {name: values[keep] for name, values in columns.items()}
        strings = [[column[k] for k in keep.tolist()] for column in strings]
    failures.sort()
    ips, players, os_names = map(list, strings)
    return ParsedLog(
        fields=fields, columns=columns, ips=ips, players=players,
        os_names=os_names, errors=[LogParseError(
            message, line=lines[k],
            line_number=None if line_numbers is None else line_numbers[k])
            for k, message in failures])


def parse_log_stream(lines: Iterable[str],
                     fields: Sequence[str] | None = None
                     ) -> Iterator[ParsedLog]:
    """Parse a log's lines in batches of at most :data:`PARSE_BATCH_LINES`.

    Lines are stripped, blank and comment lines dropped; a ``#Fields:``
    directive sets the layout of the lines after it and yields an empty
    batch under it.  ``fields`` is the layout before any directive (with
    ``None``, a data line there raises :class:`LogParseError`, as does an
    incomplete directive).  Errors number lines from 1 within ``lines``.
    """
    source = iter(lines)
    base = 0
    while slab := [raw.strip() for raw in islice(source, PARSE_BATCH_LINES)]:
        lo = 0
        for k in [*(j for j, line in enumerate(slab)
                    if not line or line[0] == "#"), len(slab)]:
            if k > lo:
                if fields is None:
                    raise LogParseError("data before #Fields header",
                                        line_number=base + lo + 1,
                                        line=slab[lo])
                yield parse_log_lines(
                    slab[lo:k], fields,
                    line_numbers=range(base + lo + 1, base + k + 1))
            if k < len(slab) and slab[k].startswith("#Fields:"):
                fields = parse_fields_header(slab[k], base + k + 1)
                yield parse_log_lines([], fields)
            lo = k + 1
        base += len(slab)


def read_wms_log(path: str | Path | TextIO, *,
                 resolver: IpResolver | None = None,
                 extent: float | None = None,
                 on_error: str = "raise",
                 error_sink: list[LogParseError] | None = None) -> Trace:
    """Parse a WMS-style log back into a :class:`Trace`.

    Parameters
    ----------
    path:
        Log file path or open text stream.  Paths are opened with
        ``errors="replace"`` so undecodable (non-ASCII) bytes surface as
        per-line parse errors instead of aborting the whole read; pass an
        open stream with the same error handling to get identical
        behaviour for corrupt bytes.
    resolver:
        Optional ``ip -> (as_number, country)`` mapping standing in for the
        external IP-to-AS traceback the paper performed; unresolved clients
        get AS 0 and an empty country.
    extent:
        Observation-window length override.  When omitted, the latest entry
        timestamp is used.
    on_error:
        ``"raise"`` (default) aborts on the first line that breaks the
        entry rule of :func:`parse_log_lines`; ``"skip"`` drops those
        lines and continues — real month-long logs contain truncated or
        corrupt lines at harvest boundaries.  A missing or incomplete
        ``#Fields`` header always raises.
    error_sink:
        With ``on_error="skip"``, an optional list that collects the
        :class:`LogParseError` for every skipped line.

    Raises
    ------
    LogParseError
        On malformed lines (``on_error="raise"``) or a missing/incomplete
        ``#Fields`` header.
    """
    if on_error not in ("raise", "skip"):
        raise ValueError(f"on_error must be 'raise' or 'skip', got {on_error!r}")
    if isinstance(path, (str, Path)):
        with open(path, "r", encoding="ascii", errors="replace") as stream:
            return read_wms_log(stream, resolver=resolver, extent=extent,
                                on_error=on_error, error_sink=error_sink)
    builder = TraceBuilder()
    for batch in parse_log_stream(path):
        if batch.errors and on_error == "raise":
            raise batch.errors[0]
        if error_sink is not None:
            error_sink.extend(batch.errors)
        rows = zip(batch.ips, batch.players, batch.os_names,
                   *(batch.columns[name].tolist() for name in (
                       "object_id", "timestamp", "duration", "bandwidth_bps",
                       "packet_loss", "server_cpu", "status")), strict=True)
        for ip, player, os_name, feed, ts, dur, bw, loss, cpu, status in rows:
            as_number, country = (resolver(ip) if resolver is not None
                                  else (0, ""))
            builder.add_transfer(
                builder.add_client(ClientRecord(
                    player, ip, as_number, country, os_name)),
                feed, ts - dur, dur, bandwidth_bps=bw, packet_loss=loss,
                server_cpu=cpu, status=status)
    return builder.build(extent=extent)


def log_round_trip(trace: Trace, *, resolver: IpResolver | None = None) -> Trace:
    """Serialize ``trace`` through the log format and parse it back.

    Useful in tests: the result reflects exactly what the paper's pipeline
    could have seen (one-second timestamps, rounded durations).
    """
    buffer = io.StringIO()
    write_wms_log(trace, buffer)
    buffer.seek(0)
    return read_wms_log(buffer, resolver=resolver, extent=trace.extent)
