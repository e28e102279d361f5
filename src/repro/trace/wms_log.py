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
from itertools import count, filterfalse, islice
from pathlib import Path
from typing import (IO, Any, Callable, Iterable, Iterator, Mapping,
                    NamedTuple, Sequence, TextIO)

import numpy as np
import numpy.typing as npt

from .._typing import FloatArray, IntArray
from ..arrayops import ReorderBuffer, sorted_slots
from ..errors import LogParseError, TraceError
from ..state import Scalar, Schema, Stateful, Table
from .entries import ENTRY_CHECKS, entry_rule, require_entries
from .store import ClientTable, Trace

#: An ndarray of any dtype (the reorder buffer mixes floats and ints).
_AnyArray = np.ndarray[Any, np.dtype[Any]]

#: The ``#Software`` header value of every written log (and the
#: ``software`` provenance field of the binary trace header and footer).
LOG_SOFTWARE = "Windows Media Services 4.1"

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


# ----------------------------------------------------------------------
# Quantization: the text format's resolution, exactly
# ----------------------------------------------------------------------
def quantize_decimal(values: FloatArray, decimals: int) -> IntArray:
    """Round ``values`` to ``decimals`` places, returning scaled integers.

    Matches ``float(f"{v:.{decimals}f}") * 10**decimals`` element-wise —
    i.e. the integer whose decimal string the text formatter would emit.
    Printf-style formatting rounds the *exact* binary value of the double
    half-to-even; ``np.rint(values * 10**decimals)`` does the same except
    when the scaling multiplication's rounding error pushes the product
    across a rounding boundary, which can only happen within a hair of a
    half-integer.  Those rare suspects are recomputed exactly through the
    formatter itself, so the vectorized fast path never changes a value.
    """
    scale = float(10 ** decimals)
    scaled = np.asarray(values, dtype=np.float64) * scale
    quantized = np.rint(scaled).astype(np.int64)
    fractional = scaled - np.floor(scaled)
    suspects = np.flatnonzero(np.abs(fractional - 0.5) < 1e-6)
    if suspects.size:
        exact = [int(f"{v:.{decimals}f}".replace(".", ""))
                 for v in np.asarray(values, dtype=np.float64)[suspects].tolist()]
        quantized[suspects] = np.asarray(exact, dtype=np.int64)
    return quantized


def quantize_entry_columns(emit: Mapping[str, Any]) -> dict[str, IntArray]:
    """Quantize one flushed writer batch to the integer entry columns.

    ``emit`` holds the reorder buffer's float/int columns (``end``,
    ``client_index``, ``object_id``, ``duration``, ``bandwidth_bps``,
    ``packet_loss``, ``server_cpu``, ``status``).  Every rounding rule
    mirrors the text writer: timestamps truncate (``int(end)``),
    durations round half-even (``round()``), bandwidth rounds half-even
    (``f"{bw:.0f}"``), loss/CPU quantize to four decimals
    (``f"{v:.4f}"``).
    """
    end = np.asarray(emit["end"], dtype=np.float64)
    return {
        # C-cast truncation toward zero == Python int(end) for floats.
        "timestamp": end.astype(np.int64),
        "client_index": np.asarray(emit["client_index"], dtype=np.int64),
        "object_id": np.asarray(emit["object_id"], dtype=np.int64),
        "duration": np.rint(
            np.asarray(emit["duration"], dtype=np.float64)).astype(np.int64),
        "bandwidth_bps": np.rint(
            np.asarray(emit["bandwidth_bps"],
                       dtype=np.float64)).astype(np.int64),
        "packet_loss_q": quantize_decimal(
            np.asarray(emit["packet_loss"], dtype=np.float64), 4),
        "server_cpu_q": quantize_decimal(
            np.asarray(emit["server_cpu"], dtype=np.float64), 4),
        "status": np.asarray(emit["status"], dtype=np.int64),
    }


# ----------------------------------------------------------------------
# Rendering a batch of entries as bytes
# ----------------------------------------------------------------------
#: Rows rendered per byte matrix by the text writer, which bounds its
#: scratch memory on one-shot writes of whole traces.
_RENDER_ROWS = 4096

#: Bounds of the values the vectorized writer renders.  Integers (and
#: ``int(end)``, ``round(duration)``) below 2**53 are exact doubles; loss
#: and CPU below 10**4 scale to four decimals with half an ulp to spare
#: (see :func:`quantize_decimal`).  Any other row the entry rule
#: admits — negative, signed zero or larger — goes through
#: :func:`_format_entry`.
_EXACT_LIMIT = 2.0 ** 53
_DECIMAL_LIMIT = 1e4

#: Byte that pads the rendered fields of the text writer's byte matrix;
#: never part of a log line, which is ASCII.
_PAD = 0xFF


def _digit_words(strip: bool, keep_zero: bool) -> npt.NDArray[np.uint32]:
    """The four ASCII digits of each integer in ``[0, 10**4)`` as one
    word; ``strip`` pads the leading ``0`` digits (all four of 0 unless
    ``keep_zero``)."""
    digits = np.stack([(np.arange(10_000) // 10 ** k) % 10 + ord("0")
                       for k in (3, 2, 1, 0)], axis=1).astype(np.uint8)
    if strip:
        lead = np.logical_or.accumulate(digits != ord("0"), axis=1)
        lead[:, -1] |= keep_zero
        digits[~lead] = _PAD
    return digits.view(np.uint32).ravel()


#: Four-digit words: full (``0042``), stripped (``__42``, with ``____``
#: for 0), and stripped for a number's last group (``___0`` for 0).
_FULL, _STRIPPED, _STRIPPED_LAST = (_digit_words(False, False),
                                    _digit_words(True, False),
                                    _digit_words(True, True))


def _renderable(emit: Mapping[str, _AnyArray]) -> npt.NDArray[np.bool_]:
    """Rows of a writer batch whose line :func:`_render_block` writes
    exactly as :func:`_format_entry` would."""
    ok = np.ones(emit["end"].size, dtype=bool)
    for name in ("end", "duration", "bandwidth_bps", "object_id", "status"):
        ok &= (emit[name] >= 0) & (emit[name] < _EXACT_LIMIT)
    for name in ("bandwidth_bps", "packet_loss", "server_cpu"):
        ok &= ~np.signbit(emit[name])  # "-0" survives rounding
    for name in ("packet_loss", "server_cpu"):
        ok &= emit[name] < _DECIMAL_LIMIT
    return ok


def _digit_block(values: IntArray) -> npt.NDArray[np.uint8]:
    """The decimal digits of non-negative ``values`` below ``10**16``,
    right-aligned in rows of a byte block and padded with :data:`_PAD`.

    Each group of four digits is one word lookup; a group is written in
    full when a higher group is nonzero, stripped of its leading zeros
    otherwise.
    """
    words = []
    rest, low = np.divmod(values, 10_000)
    words.append(np.where(rest > 0, _FULL[low], _STRIPPED_LAST[low]))
    while np.any(rest):
        rest, low = np.divmod(rest, 10_000)
        words.append(np.where(rest > 0, _FULL[low], _STRIPPED[low]))
    return np.stack(words[::-1], axis=1).view(np.uint8)


def _render_block(quantized: Mapping[str, IntArray],
                  identity: npt.NDArray[np.uint8]) -> bytes:
    """The text lines of quantized, renderable rows, as one byte string.

    ``identity`` holds each row's ``" ip player os"`` bytes,
    padded with :data:`_PAD`.  Every field becomes a block of byte
    columns, padded where a row's value is shorter than the block; the
    blocks side by side hold each line in order, so the unpadded bytes
    in row order are the log text.
    """
    n = identity.shape[0]

    def literal(text: bytes) -> npt.NDArray[np.uint8]:
        return np.broadcast_to(np.frombuffer(text, dtype=np.uint8),
                               (n, len(text)))

    def fixed(name: str) -> list[npt.NDArray[np.uint8]]:
        whole, part = np.divmod(quantized[name], 10_000)
        return [_digit_block(whole), literal(b"."),
                _FULL[part].view(np.uint8).reshape(n, 4)]

    space = literal(b" ")
    matrix = np.concatenate([
        _digit_block(quantized["timestamp"]), identity,
        literal(f" {_URI_PREFIX}".encode("ascii")),
        _digit_block(quantized["object_id"]), space,
        _digit_block(quantized["duration"]), space,
        _digit_block(quantized["bandwidth_bps"]), space,
        *fixed("packet_loss_q"), space, *fixed("server_cpu_q"), space,
        _digit_block(quantized["status"]), literal(b" -\n"),
    ], axis=1)
    return matrix[matrix != _PAD].tobytes()


#: Type of the client-identity provider used by the streaming writers:
#: maps a client index to ``(ip, player_id, os_name)``.
ClientIdentity = Callable[[int], tuple[str, str, str]]

#: Per-transfer columns buffered by :class:`StreamingTraceWriter`, in
#: checkpoint/state order.
_WRITER_COLUMNS: tuple[tuple[str, type], ...] = (
    ("end", np.float64), ("client_index", np.int64), ("object_id", np.int64),
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


class StreamingTraceWriter(Stateful):
    """Reorder buffer shared by every incremental trace codec writer.

    The server logs an entry when a transfer *completes*, so the emitted
    stream is ordered by transfer end while generation streams transfers
    by start.  The writer keeps an in-flight reorder buffer: a pushed
    transfer is held until the caller's ``horizon`` — a lower bound on
    every future transfer's start — guarantees no later transfer can end
    before it (``end >= start >= horizon``).  Buffered memory is
    therefore bounded by the workload's peak concurrency, never by the
    trace length.  Pushes arrive in trace order, so the buffer's stable
    sort by end hands entries to the codec-specific :meth:`_emit_entries`
    in ``(end, trace position)`` order — exactly the batch writer's
    stable sort by end.

    Subclasses implement :meth:`_emit_entries` (and may extend the
    declared checkpoint state, ``CHECKPOINT``).

    Parameters
    ----------
    identity:
        Maps a client index to ``(ip, player_id, os_name)`` — e.g. a
        client-table lookup, or
        :func:`repro.core.gismo.synthetic_client_identity` for generated
        workloads where materializing the table would defeat the memory
        bound.
    """

    CHECKPOINT = Schema("log writer", (
        Scalar("n_written", int, "n_written"),
        Table("", "_buffer.table", _WRITER_COLUMNS, "buffer"),
    ))

    def __init__(self, identity: ClientIdentity) -> None:
        self._identity = identity
        self.n_written = 0
        self._buffer = ReorderBuffer(_WRITER_COLUMNS, "end")

    @property
    def n_buffered(self) -> int:
        """Number of in-flight (pushed, not yet flushed) entries."""
        return self._buffer.n_rows

    def push(self, *, client_index: IntArray, object_id: IntArray,
             start: FloatArray, duration: FloatArray,
             bandwidth_bps: FloatArray, global_offset: int,
             horizon: float,
             packet_loss: FloatArray | None = None,
             server_cpu: FloatArray | None = None,
             status: IntArray | None = None) -> int:
        """Buffer one batch of transfers and flush what the horizon allows.

        ``global_offset`` is the trace position of the batch's first
        transfer; batches are pushed in trace order, which breaks
        end-time ties exactly like the batch writer's stable sort.
        ``horizon`` promises that every transfer
        of every *later* push starts at or after it; entries with
        ``end < horizon`` are flushed now.  Returns the number of entries
        written by this call.  A batch with a row the entry rule
        (:func:`repro.trace.entries.entry_rule`) refuses — one neither
        codec could write and read back — raises :class:`TraceError`
        naming the first such row and its check, and nothing of the batch
        is buffered.
        """
        start = np.asarray(start, dtype=np.float64)
        duration = np.asarray(duration, dtype=np.float64)
        n = start.size
        new: dict[str, _AnyArray] = {
            "client_index": np.asarray(client_index, dtype=np.int64),
            "object_id": np.asarray(object_id, dtype=np.int64),
            "duration": duration,
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
        require_entries({**new, "start": start}, offset=global_offset)
        new["end"] = start + duration
        self._buffer.push(new)
        return self._flush_below(horizon)

    def _flush_below(self, horizon: float) -> int:
        """Emit buffered entries with ``end < horizon``; keep the rest."""
        emit = self._buffer.release(horizon)
        n_ready = int(emit["end"].size)
        if n_ready:
            self._emit_entries(emit)
            self.n_written += n_ready
        return n_ready

    def _emit_entries(self, emit: Mapping[str, _AnyArray]) -> None:
        """Write one flushed batch, already in ``(end, trace position)``
        order.

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
    write_header:
        Write the three header lines immediately.  Pass ``False`` when
        resuming into a log file that already has them.
    """

    def __init__(self, stream: TextIO, identity: ClientIdentity, *,
                 write_header: bool = True) -> None:
        super().__init__(identity)
        self._stream = stream
        # Derived from ``identity``, so not checkpointed: the sorted client
        # indices resolved so far, each one's row in the segment table,
        # and the table (grown by a quarter; the first rows are in use).
        self._clients: IntArray = np.empty(0, dtype=np.int64)
        self._client_rows: IntArray = np.empty(0, dtype=np.int64)
        self._segments = np.full((0, 0), _PAD, dtype=np.uint8)
        if write_header:
            stream.write(f"#Software: {LOG_SOFTWARE}\n")
            stream.write("#Version: 1.0\n")
            stream.write(f"#Fields: {' '.join(LOG_FIELDS)}\n")

    def _emit_entries(self, emit: Mapping[str, _AnyArray]) -> None:
        rows = self._identity_rows(emit["client_index"])
        n = rows.size
        parts: list[bytes] = []
        lo = 0
        for k in [*np.flatnonzero(~_renderable(emit)).tolist(), n]:
            for a in range(lo, k, _RENDER_ROWS):
                b = min(a + _RENDER_ROWS, k)
                parts.append(_render_block(
                    quantize_entry_columns(
                        {name: column[a:b] for name, column in emit.items()}),
                    self._segments[rows[a:b]]))
            if k < n:
                ip, player_id, os_name = self._identity(
                    int(emit["client_index"][k]))
                parts.append(_format_entry(
                    timestamp=int(emit["end"][k]), ip=ip,
                    player_id=player_id, os_name=os_name,
                    object_id=int(emit["object_id"][k]),
                    duration=int(round(float(emit["duration"][k]))),
                    bandwidth=float(emit["bandwidth_bps"][k]),
                    loss=float(emit["packet_loss"][k]),
                    cpu=float(emit["server_cpu"][k]),
                    status=int(emit["status"][k])).encode("ascii") + b"\n")
            lo = k + 1
        self._stream.write(b"".join(parts).decode("ascii"))

    def _identity_rows(self, client: IntArray) -> IntArray:
        """Each entry's row in the identity segment table.

        Clients new to this writer are resolved once each, and the batch
        is refused before any of it is written if one of them has a
        field the log cannot hold (see :func:`_identity_segments`).
        """
        slots, known = sorted_slots(self._clients, client)
        if not np.all(known):
            fresh = np.unique(client[~known])
            table = _identity_segments(
                fresh, [self._identity(index) for index in fresh.tolist()])
            n_old = self._clients.size
            n_new = n_old + fresh.size
            old = self._segments
            if n_new > old.shape[0] or table.shape[1] > old.shape[1]:
                self._segments = np.full(
                    (max(n_new, old.shape[0] + old.shape[0] // 4),
                     max(table.shape[1], old.shape[1])), _PAD, dtype=np.uint8)
                self._segments[:n_old, :old.shape[1]] = old[:n_old]
            self._segments[n_old:n_new, :table.shape[1]] = table
            place = np.searchsorted(self._clients, fresh)
            self._clients = np.insert(self._clients, place, fresh)
            self._client_rows = np.insert(self._client_rows, place,
                                          np.arange(n_old, n_new))
            slots, _ = sorted_slots(self._clients, client)
        return self._client_rows[slots]


#: ASCII bytes that ``str.split()`` treats as whitespace, space aside.
_OTHER_SPACE = np.zeros(256, dtype=bool)
_OTHER_SPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31]] = True


def _identity_segments(index: IntArray,
                       identities: Sequence[tuple[str, str, str]]
                       ) -> npt.NDArray[np.uint8]:
    """The bytes ``" ip player os"`` of each client's lines,
    one row per client, padded with :data:`_PAD`.

    Raises :class:`TraceError` naming the client index of the first
    client (by index) with a field that is empty, non-ASCII or holds
    whitespace: its lines would not split back into their columns.  An
    empty OS is written ``-``.
    """
    texts = [f" {ip} {player} {os_name or '-'}"
             for ip, player, os_name in identities]
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    joined = "".join(texts)
    # Three single spaces and no other whitespace: every field non-empty.
    valid = joined.isascii()
    if valid:
        data = np.frombuffer(joined.encode("ascii"), dtype=np.uint8)
        owner = np.repeat(np.arange(lengths.size), lengths)
        space = data == ord(" ")
        bad = _OTHER_SPACE[data]
        bad[:-1] |= space[:-1] & space[1:]
        valid = bool(np.all(np.bincount(owner[space], minlength=lengths.size)
                            == 3)) and not np.any(bad)
    if not valid:
        for k, (ip, player, os_name) in zip(index.tolist(), identities,
                                            strict=True):
            for name, value in (("IP", ip), ("player ID", player),
                                ("OS", os_name or "-")):
                if not value.isascii() or value.split() != [value]:
                    raise TraceError(
                        f"client {k}: {name} {value!r} cannot be written "
                        "to a WMS log (empty, non-ASCII or whitespace)")
    offsets = np.cumsum(lengths) - lengths
    table = np.full((lengths.size, int(lengths.max())), _PAD, dtype=np.uint8)
    table[owner, np.arange(data.size) - np.repeat(offsets, lengths)] = data
    return table


def write_wms_log(trace: Trace, path: str | Path | TextIO) -> int:
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
        writer = StreamingWmsLogWriter(stream, _table_identity(trace))
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
#: every text reader.  Larger batches repeat the per-batch numpy overhead
#: less often (4096 parses a paper-model log about a third faster);
#: smaller ones hold less scratch memory.
PARSE_BATCH_LINES = 1024


#: The typed columns of an entry, in the order they parse: ``(log
#: field, column, dtype)``; int64 fields parse with ``int``.
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
    status parse with ``int``/``float`` and the integers fit int64; and
    the entry rule (:func:`repro.trace.entries.entry_rule`) admits its
    values, with ``start = timestamp - duration``.  Other lines get a
    :class:`LogParseError` (labelled by ``line_numbers``) naming the
    first check they fail, in that order.  A layout lacking any of
    :data:`LOG_FIELDS` raises.

    The lines are parsed as one byte buffer (see :func:`_parse_block`);
    only the lines its fast path refuses are parsed value by value.  The
    entry rule then runs once over the typed columns of both.
    """
    _check_layout(fields)
    data = "\n".join(lines).encode("utf-8", errors="surrogatepass")
    if len(lines) == 0 or data.count(b"\n") != len(lines) - 1:
        # A line holding a line break of its own: no byte view of it.
        parsed = _parse_scalar(lines, fields)
    else:
        parsed = _parse_block(np.frombuffer(data, dtype=np.uint8), lines,
                              fields)
    columns, strings, rows, failures = parsed
    duration = columns["duration"]
    admitted, checks = entry_rule(
        {**columns, "start": columns["timestamp"] - duration})
    if checks.size:
        at = {name: k for k, name in enumerate(fields)}
        refused = np.flatnonzero(~admitted)
        for k, check in zip(rows[refused].tolist(), checks.tolist(),
                            strict=True):
            column, condition = ENTRY_CHECKS[check]
            field = _CHECK_FIELDS[column]
            failures.append((k, f"{field} {condition}: "
                                f"{lines[k].split()[at[field]]!r}"))
        keep = np.flatnonzero(admitted)
        columns = {name: values[keep] for name, values in columns.items()}
        strings = [[column[j] for j in keep.tolist()] for column in strings]
    failures.sort()
    ips, players, os_names = strings
    return ParsedLog(
        fields=fields, columns=columns, ips=ips, players=players,
        os_names=os_names, errors=[LogParseError(
            message, line=lines[k],
            line_number=None if line_numbers is None else line_numbers[k])
            for k, message in failures])


#: The log field of each column the entry rule checks (``start`` is
#: ``x-timestamp - x-duration``).
_CHECK_FIELDS = {"duration": "x-duration", "start": "x-timestamp",
                 "start + duration": "x-timestamp",
                 "bandwidth_bps": "avg-bandwidth",
                 "packet_loss": "packet-loss-rate",
                 "server_cpu": "s-cpu-util"}


class _Parsed(NamedTuple):
    """Lines parsed up to the entry rule: the typed ``columns`` and
    ``strings`` (IPs, player IDs, OSs) of the lines that parsed, the
    line index of each (``rows``) and ``(line index, message)`` of each
    other line."""

    columns: dict[str, _AnyArray]
    strings: list[list[str]]
    rows: IntArray
    failures: list[tuple[int, str]]


def _check_layout(fields: Sequence[str]) -> None:
    missing = [f for f in LOG_FIELDS if f not in fields]
    if missing:
        raise LogParseError(f"layout is missing required fields: {missing}")


#: Digits the fast path reads into an integer field (the value stays
#: below 10**18) and a float field (below 10**15 < 2**53, so the mantissa
#: is an exact double and ``mantissa / 10**k`` is correctly rounded, as
#: ``float()`` of the text is).
_INT_DIGITS = 18
_FLOAT_DIGITS = 15

#: ``10**k`` for ``k = 0..18``.
_POW10 = 10 ** np.arange(19, dtype=np.int64)

#: Fields are read as little-endian 8-byte words (the first byte is the
#: lowest); a field's bytes are right-aligned in its words for numbers,
#: left-aligned for strings.  ``_SLACK`` filler bytes before the block
#: keep every number's words inside the buffer.
_SLACK = 24
_ONES = np.uint64(0x0101010101010101)
_LOW7 = np.uint64(0x7F7F7F7F7F7F7F7F)
_NIBBLES = np.uint64(0xF0F0F0F0F0F0F0F0)
_ZEROS = np.uint64(0x3030303030303030)
_POINTS = np.uint64(0x2E2E2E2E2E2E2E2E)
#: ``_HIGH[c]``/``_LOW[c]``: the mask of the high/low ``c`` bytes;
#: ``_FILL[c]``, ``0`` digits in the other bytes.
_HIGH = np.array([(1 << 64) - (1 << (64 - 8 * c)) for c in range(9)],
                 dtype=np.uint64)
_FILL = _ZEROS & ~_HIGH
_LOW = np.array([(1 << 8 * c) - 1 for c in range(9)], dtype=np.uint64)
_URI_WORDS = (int.from_bytes(b"/live/fe", "little"),
              int.from_bytes(b"ed", "little"))


def _marked_bytes(word: npt.NDArray[np.uint64]) -> npt.NDArray[np.uint64]:
    """``0x80`` in each zero byte of ``word``, ``0`` in every other."""
    return ~(((word & _LOW7) + _LOW7) | word | _LOW7)


def _byte_count(marks: npt.NDArray[np.uint64]) -> npt.NDArray[np.uint64]:
    """How many bytes of ``marks`` hold ``0x80`` (the others hold 0)."""
    return ((marks >> np.uint64(7)) * _ONES) >> np.uint64(56)


def _eight_digits(word: npt.NDArray[np.uint64]) -> npt.NDArray[np.uint64]:
    """The value of eight ASCII digits held in a word."""
    word = ((word & np.uint64(0x0F0F0F0F0F0F0F0F))
            * np.uint64(2561)) >> np.uint64(8)
    word = ((word & np.uint64(0x00FF00FF00FF00FF))
            * np.uint64(6553601)) >> np.uint64(16)
    return ((word & np.uint64(0x0000FFFF0000FFFF))
            * np.uint64(42949672960001)) >> np.uint64(32)


def _parse_block(block: npt.NDArray[np.uint8], lines: Sequence[str],
                 fields: Sequence[str]) -> _Parsed:
    """Parse the data ``lines``, held in ``block`` one ``\\n`` apart.

    The fast path reads every column of the lines whose bytes it can
    vouch for with array arithmetic: a line passes when it is printable
    ASCII with exactly ``len(fields) - 1`` single spaces, its integer
    fields are 1 to 18 plain digits (the URI stem ``/live/feed`` and such
    digits) and its float fields 1 to 15 digits with at most one ``.``.
    Such a line parses, and its values are the ones ``int``/``float``
    give.  Every other line goes to :func:`_parse_scalar`, and the two
    results merge in line order.
    """
    at = {name: k for k, name in enumerate(fields)}
    width = len(fields)
    breaks = np.flatnonzero(block == ord("\n"))
    starts = np.concatenate(([0], breaks + 1))
    ends = np.append(breaks, block.size)
    spaces = np.flatnonzero(block == ord(" "))
    counts = np.diff(np.searchsorted(spaces, ends), prepend=0)
    passed = counts == width - 1
    refused = ((block < ord(" ")) & (block != ord("\n"))) | (block > ord("~"))
    if np.any(refused):
        passed[np.searchsorted(ends, np.flatnonzero(refused))] = False
    grid = spaces[np.repeat(passed, counts)].reshape(-1, width - 1)
    rows = np.flatnonzero(passed)
    lo = np.concatenate((starts[rows, None], grid + 1), axis=1) + _SLACK
    hi = np.concatenate((grid, ends[rows, None]), axis=1) + _SLACK
    good = np.all(hi > lo, axis=1)

    padded = np.concatenate((np.full(_SLACK, ord("0"), dtype=np.uint8),
                             block, np.zeros(8, dtype=np.uint8)))
    words = np.ndarray((padded.size - 7,), dtype="<u8", buffer=padded,
                       strides=(1,))
    columns: dict[str, _AnyArray] = {}
    for field, name, dtype in _TYPED_FIELDS:
        first, last = lo[:, at[field]], hi[:, at[field]]
        if field == "cs-uri-stem":
            tail = np.minimum(first + 8, words.size - 1)  # a short field
            good &= ((words[first] == _URI_WORDS[0])
                     & (words[tail] & _LOW[2] == _URI_WORDS[1]))
            first = first + len(_URI_PREFIX)
        floats = dtype is np.float64
        value, ok = _read_number(words, first, last,
                                 _FLOAT_DIGITS if floats else _INT_DIGITS,
                                 point=floats)
        good &= ok
        columns[name] = value

    accepted = rows[good]
    if accepted.size < rows.size:
        lo, hi = lo[good], hi[good]
        columns = {name: values[good] for name, values in columns.items()}
    strings = _read_strings(
        words, [(lo[:, at[field]], hi[:, at[field]])
                for field in ("c-ip", "c-playerid", "c-os")])
    if accepted.size == len(lines):
        return _Parsed(columns, strings, accepted, [])
    refused_lines = np.ones(len(lines), dtype=bool)
    refused_lines[accepted] = False
    others = np.flatnonzero(refused_lines)
    scalar = _parse_scalar([lines[k] for k in others.tolist()], fields)
    rows = np.concatenate((accepted, others[scalar.rows]))
    order = np.argsort(rows, kind="stable")
    columns = {name: np.concatenate((values, scalar.columns[name]))[order]
               for name, values in columns.items()}
    strings = [np.asarray([*fast, *extra], dtype=object)[order].tolist()
               for fast, extra in zip(strings, scalar.strings, strict=True)]
    return _Parsed(columns, strings, rows[order],
                   [(int(others[k]), message)
                    for k, message in scalar.failures])


def _read_number(words: npt.NDArray[np.uint64], first: IntArray,
                 last: IntArray, digits: int, *, point: bool
                 ) -> tuple[_AnyArray, npt.NDArray[np.bool_]]:
    """Values of the fields ``[first, last)`` of 1 to ``digits`` plain
    digits (plus at most one ``.`` when ``point``), and the mask of the
    fields that are so; an int64 column, or float64 for ``point``.

    Each word holds eight of a field's bytes, right-aligned, with ``0``
    digits before the field; a point reads as one more ``0`` digit until
    the mantissa drops it.
    """
    length = last - first
    limit = digits + point
    ok = (length >= 1) & (length <= limit)
    whole = np.zeros(first.size, dtype=np.uint64)
    n_points = np.zeros(first.size, dtype=np.int64)
    scale = np.zeros(first.size, dtype=np.int64)
    for i in range(-(-min(int(length.max(initial=1)), limit) // 8)):
        used = np.minimum(np.maximum(length - 8 * i, 0), 8)
        word = (words[last - 8 * (i + 1)] & _HIGH[used]) | _FILL[used]
        dots = _marked_bytes(word ^ _POINTS) if point else None
        if dots is not None and np.any(dots):
            word ^= (dots >> np.uint64(7)) * np.uint64(0x1E)  # "." -> "0"
            n_points += _byte_count(dots).astype(np.int64)
            # The bytes after the point: those of the higher bytes.
            above = ~((dots << np.uint64(1)) - np.uint64(1)) & ~_LOW7
            scale += np.where(dots != 0, 8 * i + _byte_count(above), 0
                              ).astype(np.int64)
        ok &= (((word & _NIBBLES) == _ZEROS)
               & (((word + 6 * _ONES) & _NIBBLES) == _ZEROS))
        whole += _eight_digits(word) * np.uint64(10 ** (8 * i))
    value = whole.astype(np.int64)
    if not point:
        return value, ok
    ok &= (n_points <= 1) & (length - n_points >= 1) & (
        length - n_points <= digits)
    if not np.any(n_points):
        return value.astype(np.float64), ok
    power = _POW10[np.minimum(scale, digits)]
    mantissa = np.where(n_points > 0,
                        value // (10 * power) * power + value % power, value)
    return mantissa.astype(np.float64) / power, ok


def _read_strings(words: npt.NDArray[np.uint64],
                  spans: Sequence[tuple[IntArray, IntArray]]
                  ) -> list[list[str]]:
    """The fields ``[first, last)`` of each span, as lists of strings.

    Each field's bytes are read left-aligned into words zero-filled past
    its end; the fields of a line, a space after each, decode and split
    as one string.
    """
    parts = []
    for first, last in spans:
        length = last - first
        for i in range(-(-int(length.max(initial=0)) // 8)):
            # Past a shorter field's end the word is masked out whole.
            at = np.minimum(first + 8 * i, words.size - 1)
            parts.append(words[at] & _LOW[np.minimum(np.maximum(
                length - 8 * i, 0), 8)])
        parts.append(np.full(first.size, ord(" "), dtype=np.uint64))
    matrix = np.stack(parts, axis=1).astype("<u8", copy=False).view(np.uint8)
    tokens = matrix[matrix != 0].tobytes().decode("ascii").split()
    return [tokens[k::len(spans)] for k in range(len(spans))]


def _parse_scalar(lines: Sequence[str], fields: Sequence[str]) -> _Parsed:
    """The line checks of :func:`parse_log_lines`, value by value.

    Fields convert column by column, value by value only in a column
    with a bad value.
    """
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
        columns[name] = values

    strings = [list(texts[at[field]])
               for field in ("c-ip", "c-playerid", "c-os")]
    keep = np.flatnonzero(alive)
    if keep.size < n:
        columns = {name: values[keep] for name, values in columns.items()}
        strings = [[column[k] for k in keep.tolist()] for column in strings]
    return _Parsed(columns, strings, keep, failures)


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


def open_log(path: str | Path, byte_lo: int = 0,
             byte_hi: int | None = None) -> TextIO:
    """Open a log file, or its bytes ``[byte_lo, byte_hi)``, for reading.

    The one decoder of every log file reader: ASCII, undecodable bytes
    replaced by U+FFFD (so they surface as skipped lines, not as an
    aborted read) and universal newlines (a line ends at ``\\n``, ``\\r``
    or ``\\r\\n``, nowhere else).  A byte range that starts and ends on a
    line boundary (after a ``\\n``) thus reads as the very lines it holds
    in the whole file.
    """
    raw: IO[bytes] = open(path, "rb")
    if byte_lo or byte_hi is not None:
        with raw:
            raw.seek(byte_lo)
            blob = raw.read(-1 if byte_hi is None else byte_hi - byte_lo)
        raw = io.BytesIO(blob)
    return io.TextIOWrapper(raw, encoding="ascii", errors="replace")


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
        :func:`open_log`, so undecodable (non-ASCII) bytes surface as
        per-line parse errors instead of aborting the whole read; pass a
        stream from :func:`open_log` to get identical behaviour for
        corrupt bytes.
    resolver:
        Optional ``ip -> (as_number, country)`` mapping standing in for the
        external IP-to-AS traceback the paper performed; unresolved clients
        get AS 0 and an empty country.  It is called once per distinct
        client, with the IP of the client's first entry.
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

    Clients are interned by player ID in order of first appearance, and
    the trace is built from the parsed columns, not entry by entry.

    Raises
    ------
    LogParseError
        On malformed lines (``on_error="raise"``) or a missing/incomplete
        ``#Fields`` header.
    TraceError
        When a player ID reappears with another IP or OS.
    """
    if on_error not in ("raise", "skip"):
        raise ValueError(f"on_error must be 'raise' or 'skip', got {on_error!r}")
    if isinstance(path, (str, Path)):
        with open_log(path) as stream:
            return read_wms_log(stream, resolver=resolver, extent=extent,
                                on_error=on_error, error_sink=error_sink)
    index: dict[str, int] = {}  # player ID -> client index
    seen: dict[tuple[str, str, str], None] = {}  # (player, ip, os)
    identities: list[list[Any]] = [[], [], [], [], []]  # ClientTable columns
    parts: list[dict[str, _AnyArray]] = []
    for batch in parse_log_stream(path):
        if batch.errors and on_error == "raise":
            raise batch.errors[0]
        if error_sink is not None:
            error_sink.extend(batch.errors)
        fresh = list(filterfalse(seen.__contains__, dict.fromkeys(
            zip(batch.players, batch.ips, batch.os_names))))
        if fresh:
            new_players, new_ips, new_os = zip(*fresh, strict=True)
            if len(dict.fromkeys(new_players).keys() - index.keys()) < len(
                    fresh):
                raise TraceError(
                    f"player {_reregistered(index, new_players)!r} "
                    "re-registered with different identity fields")
            topology = ([resolver(ip) for ip in new_ips]
                        if resolver is not None else [(0, "")] * len(fresh))
            for column, values in zip(identities, (
                    new_players, new_ips, *zip(*topology, strict=True),
                    new_os), strict=True):
                column.extend(values)
            index.update(zip(new_players, count(len(index))))
            seen.update(dict.fromkeys(fresh))
        parts.append({**batch.columns, "client_index": np.fromiter(
            map(index.__getitem__, batch.players), dtype=np.int64,
            count=batch.n_entries)})
    players, ips, as_list, countries, os_names = identities
    as_numbers = np.asarray(as_list, dtype=np.int64)
    if np.any(as_numbers < 0):
        raise ValueError("as_number must be non-negative, got "
                         f"{int(as_numbers[as_numbers < 0][0])}")
    columns = {name: np.concatenate([part[name] for part in parts])
               if parts else np.empty(0, dtype=dtype)
               for name, dtype in (("client_index", np.int64),
                                   *((name, dtype) for _, name, dtype
                                     in _TYPED_FIELDS))}
    return Trace(
        clients=ClientTable(player_ids=players, ips=ips,
                            as_numbers=as_numbers, countries=countries,
                            os_names=os_names),
        client_index=columns["client_index"],
        object_id=columns["object_id"],
        start=columns["timestamp"].astype(np.float64) - columns["duration"],
        duration=columns["duration"],
        bandwidth_bps=columns["bandwidth_bps"],
        packet_loss=columns["packet_loss"],
        server_cpu=columns["server_cpu"],
        status=columns["status"],
        extent=extent)


def _reregistered(index: Mapping[str, int], players: Sequence[str]) -> str:
    """The first of ``players`` already in ``index`` or repeated."""
    known = set(index)
    for player in players:
        if player in known:
            return player
        known.add(player)
    raise AssertionError("no re-registered player")


def log_round_trip(trace: Trace, *, resolver: IpResolver | None = None) -> Trace:
    """Serialize ``trace`` through the log format and parse it back.

    Useful in tests: the result reflects exactly what the paper's pipeline
    could have seen (one-second timestamps, rounded durations).
    """
    buffer = io.StringIO()
    write_wms_log(trace, buffer)
    buffer.seek(0)
    return read_wms_log(buffer, resolver=resolver, extent=trace.extent)
