"""Map-reduce characterization of WMS-style logs and binary traces.

A month-long log is one long sequential read for
:class:`~repro.trace.streaming.StreamingCharacterizer`; this module turns
it into a map-reduce: :func:`plan_log_chunks` splits each file into
chunks — line-aligned byte ranges for text logs, runs of footer-indexed
segments for columnar binary traces (the codec is sniffed per file) —
workers characterize chunks independently, and the exact-merge contract
of :meth:`~repro.trace.streaming.StreamingCharacterizer.merge` reduces
the per-chunk accumulators to the identical
:class:`~repro.trace.streaming.StreamingSummary` the serial path yields.

Determinism: the chunk plan depends only on the input files and
``chunk_bytes`` — never on ``jobs`` — and accumulators are reduced in
chunk order, so the reported summary is independent of the worker count.
"""

from __future__ import annotations

import functools
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .._typing import FloatArray
from ..trace.codecs import (
    ENTRY_COLUMNS,
    _DTYPE_SIZES,
    BinaryTraceReader,
    declared_client_slots,
    detect_codec,
)
from ..trace.streaming import StreamingCharacterizer, StreamingSummary
from ..trace.wms_log import parse_log_stream
from .pool import logger, map_ordered

#: Default target chunk size for splitting log files, in bytes.
DEFAULT_CHUNK_BYTES = 8 * 1024 * 1024


@dataclass(frozen=True)
class LogChunk:
    """One independently characterizable piece of a trace file.

    Attributes
    ----------
    index:
        Global position of the chunk across the whole plan; reductions
        run in this order.
    path:
        The trace file the chunk refers to.
    byte_lo, byte_hi:
        Half-open byte range ``[lo, hi)``.  For text chunks these are
        file offsets aligned to line boundaries; for binary chunks they
        are cumulative *payload* bytes (the summed on-disk size of the
        covered segments), kept for size accounting.
    fields:
        The file's ``#Fields`` layout (text chunks only), extracted once
        by the planner so chunks past the header remain parseable on
        their own.  Empty for binary chunks.
    codec:
        ``"text"`` or ``"binary"``.
    segments:
        The footer segment indices the chunk covers (binary chunks
        only; in file order).
    """

    index: int
    path: str
    byte_lo: int
    byte_hi: int
    fields: tuple[str, ...]
    codec: str = "text"
    segments: tuple[int, ...] = field(default=())

    @property
    def n_bytes(self) -> int:
        """Size of the chunk in bytes."""
        return self.byte_hi - self.byte_lo


def _scan_fields(path: str | Path) -> tuple[str, ...] | None:
    """Extract the ``#Fields`` layout heading a log file.

    This is the first batch :func:`~repro.trace.wms_log.parse_log_stream`
    yields: the header's own empty one.  Returns ``None`` for files with
    neither header nor data; a data line before the header raises
    :class:`~repro.errors.LogParseError`, as in the serial reader.
    """
    with open(path, "r", encoding="ascii", errors="replace") as stream:
        first = next(parse_log_stream(stream), None)
    return None if first is None else tuple(first.fields)


def plan_log_chunks(paths: Sequence[str | Path], *,
                    chunk_bytes: int = DEFAULT_CHUNK_BYTES
                    ) -> list[LogChunk]:
    """Split log files into line-aligned chunks of roughly ``chunk_bytes``.

    Cut points land on the line boundary at or after each even byte
    split, so no log entry straddles two chunks.  Files with no data
    lines contribute no chunks.  The plan is a pure function of the
    files and ``chunk_bytes`` (never of the worker count), which is what
    keeps the reduced summary independent of ``jobs``.

    Raises
    ------
    ValueError
        If ``chunk_bytes`` is not positive.
    LogParseError
        If a file has data lines before its ``#Fields`` header.
    """
    if chunk_bytes < 1:
        raise ValueError(f"chunk_bytes must be positive, got {chunk_bytes}")
    chunks: list[LogChunk] = []
    for path in paths:
        if detect_codec(path) == "binary":
            _plan_binary_chunks(path, chunk_bytes, chunks)
            continue
        fields = _scan_fields(path)
        if fields is None:
            continue
        size = os.path.getsize(path)
        n_chunks = max(1, math.ceil(size / chunk_bytes))
        cuts = [0]
        with open(path, "rb") as stream:
            for k in range(1, n_chunks):
                stream.seek(k * size // n_chunks)
                stream.readline()
                cuts.append(min(stream.tell(), size))
        cuts.append(size)
        for lo, hi in zip(cuts, cuts[1:], strict=False):
            if lo < hi:
                chunks.append(LogChunk(index=len(chunks), path=str(path),
                                       byte_lo=lo, byte_hi=hi,
                                       fields=fields))
    return chunks


def _segment_payload_bytes(segment: dict[str, Any]) -> int:
    """On-disk payload bytes of one binary segment (excluding padding)."""
    total = 0
    for name in ENTRY_COLUMNS:
        descriptor = segment["columns"][name]
        if descriptor["dtype"] is not None:
            total += int(segment["rows"]) * _DTYPE_SIZES[descriptor["dtype"]]
    return total


def _plan_binary_chunks(path: str | Path, chunk_bytes: int,
                        chunks: list[LogChunk]) -> None:
    """Group a binary trace's segments into roughly ``chunk_bytes`` runs.

    Segments are indivisible (they are the writer's flush batches), so
    the planner packs consecutive segments greedily until a chunk reaches
    the byte target.  Like the text planner, the result depends only on
    the file and ``chunk_bytes``.
    """
    with BinaryTraceReader(path) as reader:
        segments = reader.footer["segments"]
    group: list[int] = []
    group_bytes = 0
    cursor = 0
    for index, segment in enumerate(segments):
        group.append(index)
        group_bytes += max(1, _segment_payload_bytes(segment))
        if group_bytes >= chunk_bytes:
            chunks.append(LogChunk(
                index=len(chunks), path=str(path), byte_lo=cursor,
                byte_hi=cursor + group_bytes, fields=(), codec="binary",
                segments=tuple(group)))
            cursor += group_bytes
            group = []
            group_bytes = 0
    if group:
        chunks.append(LogChunk(
            index=len(chunks), path=str(path), byte_lo=cursor,
            byte_hi=cursor + group_bytes, fields=(), codec="binary",
            segments=tuple(group)))


def consume_chunk(characterizer: StreamingCharacterizer,
                  chunk: LogChunk) -> int:
    """Fold one chunk into ``characterizer``; returns entries consumed.

    Text chunks read their byte range and feed
    :meth:`~repro.trace.streaming.StreamingCharacterizer.consume_lines`
    (undecodable bytes become skipped lines, as in the serial reader);
    binary chunks materialize each covered segment's columns from the
    memory map and feed the vectorized
    :meth:`~repro.trace.streaming.StreamingCharacterizer.consume_columns`
    path — no row dicts, no per-line Python.  Player IDs come from a
    table with one row per declared client; an entry whose client no
    client block declares raises :class:`~repro.errors.TraceError`, as
    in :func:`~repro.trace.codecs.read_binary_trace`.
    """
    if chunk.codec == "binary":
        parsed = 0
        with BinaryTraceReader(chunk.path) as reader:
            declared, identities = reader.declared_clients()
            players = np.asarray([player for _, player, _ in identities],
                                 dtype=np.str_)
            for index in chunk.segments:
                columns = reader.segment_columns(index)
                slots = declared_client_slots(
                    declared, columns["client_index"], source=chunk.path)
                parsed += characterizer.consume_columns(
                    columns, players[slots])
        return parsed
    with open(chunk.path, "rb") as stream:
        stream.seek(chunk.byte_lo)
        blob = stream.read(chunk.n_bytes)
    return characterizer.consume_lines(
        blob.decode("ascii", errors="replace").splitlines(),
        list(chunk.fields))


def characterize_chunk(chunk: LogChunk, *, diurnal_bins: int = 96,
                       bandwidth_edges: FloatArray | None = None
                       ) -> StreamingCharacterizer:
    """Characterize one chunk into a fresh accumulator (the map step).

    Module-level so chunks can be shipped to worker processes; the
    returned :class:`~repro.trace.streaming.StreamingCharacterizer`
    pickles back to the parent for reduction.
    """
    characterizer = StreamingCharacterizer(diurnal_bins=diurnal_bins,
                                           bandwidth_edges=bandwidth_edges)
    consume_chunk(characterizer, chunk)
    return characterizer


def characterize_logs(paths: str | Path | Sequence[str | Path], *,
                      jobs: int = 1, diurnal_bins: int = 96,
                      bandwidth_edges: FloatArray | None = None,
                      chunk_bytes: int = DEFAULT_CHUNK_BYTES,
                      top_k: int = 10) -> StreamingSummary:
    """Characterize WMS-style logs with a parallel map-reduce.

    Splits the inputs into line-aligned chunks, characterizes them across
    ``jobs`` worker processes, and merges the accumulators in chunk
    order.  Reports the identical
    :class:`~repro.trace.streaming.StreamingSummary` a single serial
    :class:`~repro.trace.streaming.StreamingCharacterizer` pass produces,
    for any ``jobs`` and ``chunk_bytes``.

    Parameters
    ----------
    paths:
        One log path or a sequence of them.
    jobs:
        Worker-process count; ``1`` runs inline.
    diurnal_bins, bandwidth_edges, top_k:
        Forwarded to the characterizer/summary (see
        :class:`~repro.trace.streaming.StreamingCharacterizer`).
    chunk_bytes:
        Target chunk size for splitting files.
    """
    if isinstance(paths, (str, Path)):
        paths = [paths]
    chunks = plan_log_chunks(paths, chunk_bytes=chunk_bytes)
    worker = functools.partial(characterize_chunk,
                               diurnal_bins=diurnal_bins,
                               bandwidth_edges=bandwidth_edges)
    parts = map_ordered(worker, chunks, jobs=jobs, label="chunk")
    t0 = time.perf_counter()
    total = StreamingCharacterizer(diurnal_bins=diurnal_bins,
                                   bandwidth_edges=bandwidth_edges)
    for part in parts:
        total.merge(part)
    logger.info("reduced %d chunk accumulator(s) in %.3fs",
                len(parts), time.perf_counter() - t0)
    return total.summary(top_k=top_k)
