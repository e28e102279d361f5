"""Resumable sequential log characterization.

The parallel map-reduce (:func:`repro.parallel.characterize_logs`) is the
fast path over a finished log set; this module is the *durable* path: one
process walks the same deterministic chunk plan in order, folding each
chunk into a single :class:`~repro.trace.streaming.StreamingCharacterizer`
and checkpointing the accumulator plus the chunk cursor.  A killed run
resumed from its checkpoint reports the same
:class:`~repro.trace.streaming.StreamingSummary` as an uninterrupted one
— the characterizer's state round-trips exactly (see
:meth:`~repro.trace.streaming.StreamingCharacterizer.state_dict`), and
the chunk plan is a pure function of the input files.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .._typing import FloatArray
from ..errors import CheckpointError
from ..parallel.characterize import DEFAULT_CHUNK_BYTES, consume_chunk, plan_log_chunks
from ..trace.streaming import StreamingCharacterizer, StreamingSummary
from .checkpoint import load_checkpoint, require_match, save_checkpoint

#: Default number of chunks between checkpoint saves.
DEFAULT_CHECKPOINT_EVERY = 4


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


def characterize_logs_resumable(
        paths: str | Path | Sequence[str | Path], *,
        checkpoint_path: str | Path | None = None,
        resume: bool = False,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        diurnal_bins: int = 96,
        bandwidth_edges: FloatArray | None = None,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        top_k: int = 10,
        max_chunks: int | None = None) -> StreamingSummary | None:
    """Characterize logs sequentially with checkpoint/resume.

    Parameters
    ----------
    paths:
        One log path or a sequence of them.
    checkpoint_path:
        When set, the accumulator and chunk cursor are saved here every
        ``checkpoint_every`` chunks (atomically) and at exit.
    resume:
        Continue from ``checkpoint_path`` if it exists; the checkpoint
        must have been written for the same logs (path + size),
        ``chunk_bytes``, and binning configuration.
    diurnal_bins, bandwidth_edges, top_k:
        Forwarded to the characterizer/summary.
    chunk_bytes:
        Chunk-plan granularity (must match across resumes — it defines
        the cursor's meaning).
    max_chunks:
        Process at most this many chunks in *this* call (test/ops hook);
        returns ``None`` when the plan was left unfinished.

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
    if checkpoint_every < 1:
        raise ValueError(
            f"checkpoint_every must be at least 1, got {checkpoint_every}")
    chunks = plan_log_chunks(paths, chunk_bytes=chunk_bytes)
    fingerprint = _log_fingerprint(paths, chunk_bytes, diurnal_bins,
                                   bandwidth_edges)

    characterizer = StreamingCharacterizer(diurnal_bins=diurnal_bins,
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
            characterizer.restore(meta.get("characterizer"), {})

    def checkpoint_now() -> None:
        assert checkpoint_path is not None
        save_checkpoint(checkpoint_path, {
            "fingerprint": fingerprint,
            "next_chunk": next_chunk,
            "characterizer": characterizer.state_dict(),
        }, {})

    since_checkpoint = 0
    processed = 0
    while next_chunk < len(chunks):
        if max_chunks is not None and processed >= max_chunks:
            break
        consume_chunk(characterizer, chunks[next_chunk])
        next_chunk += 1
        processed += 1
        since_checkpoint += 1
        if checkpoint_path is not None and since_checkpoint >= checkpoint_every:
            checkpoint_now()
            since_checkpoint = 0

    if checkpoint_path is not None and since_checkpoint:
        checkpoint_now()
    if next_chunk < len(chunks):
        return None
    return characterizer.summary(top_k=top_k)
