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
The same exactness makes a run durable: with a checkpoint path,
:func:`characterize_logs` saves the merged accumulator and the chunk
cursor every few merged chunks, and a resumed run reports what an
uninterrupted one does.
"""

from __future__ import annotations

import functools
import math
import os
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .._typing import FloatArray
from ..errors import CheckpointError
from ..stream.checkpoint import load_checkpoint, require_match, save_checkpoint
from ..trace.codecs import (
    ENTRY_COLUMNS,
    _DTYPE_SIZES,
    BinaryTraceReader,
    declared_client_slots,
    detect_codec,
)
from ..trace.streaming import StreamingCharacterizer, StreamingSummary
from ..trace.wms_log import open_log, parse_log_stream
from .pool import imap_ordered, logger

#: Default target chunk size for splitting log files, in bytes.
DEFAULT_CHUNK_BYTES = 8 * 1024 * 1024

#: Chunks merged between two checkpoint saves.
CHECKPOINT_EVERY = 4


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
    with open_log(path) as stream:
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

    Text chunks open their byte range with
    :func:`~repro.trace.wms_log.open_log`, the decoder of every log file
    reader, and feed its lines to
    :meth:`~repro.trace.streaming.StreamingCharacterizer.consume_lines`:
    a range cut after a ``\\n`` holds the very lines the serial reader
    reads there, undecodable bytes becoming skipped lines alike.  Binary
    chunks materialize each covered segment's columns from the
    memory map and feed the vectorized
    :meth:`~repro.trace.streaming.StreamingCharacterizer.consume_columns`
    path — no row dicts, no per-line Python.  Player IDs come from a
    string array with one row per declared client
    (:meth:`~repro.trace.codecs.BinaryTraceReader.declared_columns`,
    which reads no other identity column); an entry whose client no
    client block declares raises :class:`~repro.errors.TraceError`, as
    in :func:`~repro.trace.codecs.read_binary_trace`.
    """
    if chunk.codec == "binary":
        parsed = 0
        with BinaryTraceReader(chunk.path) as reader:
            declared, identity = reader.declared_columns("player_ids")
            players = identity["player_ids"]
            for index in chunk.segments:
                columns = reader.segment_columns(index)
                slots = declared_client_slots(
                    declared, columns["client_index"], source=chunk.path)
                parsed += characterizer.consume_columns(
                    columns, players[slots])
        return parsed
    with open_log(chunk.path, chunk.byte_lo, chunk.byte_hi) as stream:
        return characterizer.consume_lines(stream, chunk.fields)


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


def _log_fingerprint(paths: Sequence[str | Path],
                     chunk_bytes: int, diurnal_bins: int,
                     edges: FloatArray | None) -> dict[str, Any]:
    """Identity of a characterization request: the exact inputs.

    File sizes stand in for content hashes — rewriting a log mid-run is
    already undefined behaviour for the chunk plan; the size check
    catches the common case (a log that grew or was regenerated).
    """
    return {
        "logs": [[os.fspath(path), os.path.getsize(path)]
                 for path in paths],
        "chunk_bytes": int(chunk_bytes),
        "diurnal_bins": int(diurnal_bins),
        "bandwidth_edges": (None if edges is None
                            else np.asarray(edges, dtype=np.float64).tolist()),
    }


def characterize_logs(paths: str | Path | Sequence[str | Path], *,
                      jobs: int = 1, diurnal_bins: int = 96,
                      bandwidth_edges: FloatArray | None = None,
                      chunk_bytes: int = DEFAULT_CHUNK_BYTES,
                      top_k: int = 10,
                      checkpoint_path: str | Path | None = None,
                      resume: bool = False,
                      max_chunks: int | None = None
                      ) -> StreamingSummary | None:
    """Characterize WMS-style logs with a parallel map-reduce.

    Splits the inputs into line-aligned chunks, characterizes them across
    ``jobs`` worker processes, and merges the accumulators in chunk
    order.  Reports the identical
    :class:`~repro.trace.streaming.StreamingSummary` a single serial
    :class:`~repro.trace.streaming.StreamingCharacterizer` pass produces,
    for any ``jobs`` and ``chunk_bytes``.  One pool maps every chunk of
    the call, and each part is merged as it arrives, in chunk order.
    With ``checkpoint_path`` the merged accumulator and the chunk cursor
    are saved (atomically) after every :data:`CHECKPOINT_EVERY` merged
    chunks and at the stop; merging is exact, so a run resumed from any
    checkpoint reports what an uninterrupted one does.

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
        Target chunk size for splitting files (must match across
        resumes — it defines the cursor's meaning).
    checkpoint_path:
        Where to save the accumulator and chunk cursor.
    resume:
        Continue from ``checkpoint_path`` if it exists; the checkpoint
        must have been written for the same logs (path + size),
        ``chunk_bytes`` and binning configuration.
    max_chunks:
        Process at most this many chunks in *this* call (test/ops hook).

    Returns
    -------
    The final :class:`~repro.trace.streaming.StreamingSummary`, or
    ``None`` when ``max_chunks`` stopped the run before the last chunk.

    Raises
    ------
    CheckpointError
        On fingerprint mismatches or a corrupt checkpoint.
    """
    if isinstance(paths, (str, Path)):
        paths = [paths]
    chunks = plan_log_chunks(paths, chunk_bytes=chunk_bytes)
    fingerprint = _log_fingerprint(paths, chunk_bytes, diurnal_bins,
                                   bandwidth_edges)
    total = StreamingCharacterizer(diurnal_bins=diurnal_bins,
                                   bandwidth_edges=bandwidth_edges)
    next_chunk = 0
    if resume:
        if checkpoint_path is None:
            raise CheckpointError("resume=True requires a checkpoint_path")
        if os.path.exists(checkpoint_path):
            meta, _ = load_checkpoint(checkpoint_path)
            require_match(meta, fingerprint, checkpoint_path)
            next_chunk = meta.get("next_chunk")
            if not (isinstance(next_chunk, int)
                    and 0 <= next_chunk <= len(chunks)):
                raise CheckpointError(
                    f"checkpoint chunk cursor {next_chunk!r} out of range "
                    f"for {len(chunks)} chunks")
            total.restore(meta.get("characterizer"), {})

    stop = len(chunks) if max_chunks is None else min(
        len(chunks), next_chunk + max(0, max_chunks))
    worker = functools.partial(characterize_chunk,
                               diurnal_bins=diurnal_bins,
                               bandwidth_edges=bandwidth_edges)
    first = next_chunk
    with closing(imap_ordered(worker, chunks[first:stop], jobs=jobs,
                              label="chunk")) as parts:
        for part in parts:
            total.merge(part)
            next_chunk += 1
            if checkpoint_path is not None and (
                    (next_chunk - first) % CHECKPOINT_EVERY == 0
                    or next_chunk == stop):
                save_checkpoint(checkpoint_path, {
                    "fingerprint": fingerprint,
                    "next_chunk": next_chunk,
                    "characterizer": total.state_dict(),
                }, {})
    logger.info("reduced %d chunk accumulator(s)", next_chunk - first)
    if next_chunk < len(chunks):
        return None
    return total.summary(top_k=top_k)
