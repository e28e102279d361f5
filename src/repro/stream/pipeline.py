"""The end-to-end bounded-memory streaming pipeline.

:func:`run_streaming_generation` wires the three streaming stages
together — :class:`~repro.stream.generate.GenerationStream` produces
start-ordered transfer batches, each batch is pushed into the selected
codec's incremental trace writer (text log bytes identical to the batch
writer; the columnar binary codec shares the same reorder buffer) and
the :class:`~repro.stream.sessionize.OnlineSessionizer` (sessions
identical to the batch sessionizer) — while never materializing the
trace.

After every canonical block the pipeline state is a small, serializable
cursor: the generator's pending buffer, the writer's in-flight reorder
buffer, the open-session table, and the collected finalized sessions.
With ``checkpoint_path`` set, that cursor is atomically saved after each
block; a later call with ``resume=True`` restores it, truncates the log
file back to the checkpointed byte offset, and continues — the finished
artifacts are bit-identical to an uninterrupted run, which is what the
kill-and-resume step in CI asserts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any

import numpy as np
from numpy.typing import NDArray

from .._typing import SeedLike
from ..core.gismo import synthetic_client_identity
from ..core.model import LiveWorkloadModel
from ..errors import CheckpointError
from ..scenarios import Scenario, get_scenario, scenario_spec_string
from ..trace.codecs import get_codec
from ..trace.wms_log import StreamingTraceWriter
from ..state import DERIVED, Part, Scalar, Schema, Stateful, Table, restore_state, save_state
from ..units import DEFAULT_SESSION_TIMEOUT
from .checkpoint import load_checkpoint, require_match, save_checkpoint
from .generate import DEFAULT_CHUNK_SIZE, GenerationStream
from .sessionize import FinalizedSessions, OnlineSessionizer, merge_finalized


@dataclass
class _RunState(Stateful):
    """What a run checkpoints; a stage it runs without is ``None``."""

    CHECKPOINT = Schema("streaming run", (
        Scalar("fingerprint", dict, "fingerprint", DERIVED),
        Part("generator", "stream"),
        Part("sessionizer", "sessionizer"),
        Part("writer", "writer", prefix="log_"),
        Scalar("log_offset", (int, type(None)), "log_offset"),
        Table("fin_", "sessions", (("client", np.int64), ("start", np.float64),
                                   ("end", np.float64), ("count", np.int64)),
              "sessions"),
    ))

    fingerprint: dict[str, Any] | None
    stream: GenerationStream
    sessionizer: OnlineSessionizer | None
    collected: list[FinalizedSessions] | None
    writer: StreamingTraceWriter | None = None
    log_offset: int | None = None

    @property
    def sessions(self) -> dict[str, NDArray[Any]] | None:
        """The collected sessions, merged into one canonical batch."""
        if self.collected is None:
            return None
        merged = merge_finalized(self.collected)
        self.collected[:] = [merged]
        return {"client": merged.client_index, "start": merged.start,
                "end": merged.end, "count": merged.n_transfers}

    @sessions.setter
    def sessions(self, table: dict[str, NDArray[Any]]) -> None:
        self.collected = [FinalizedSessions(
            client_index=table["client"], start=table["start"],
            end=table["end"], n_transfers=table["count"])]


@dataclass(frozen=True)
class StreamRunResult:
    """Outcome of one :func:`run_streaming_generation` call.

    Attributes
    ----------
    n_transfers:
        Transfers emitted by the generation stream so far (across
        resumes).
    n_entries:
        Log entries written so far (0 when no log was requested).
    n_sessions:
        Sessions finalized so far (``None`` when sessionization is off).
    sessions:
        The finalized sessions in canonical ``(client, start)`` order
        when collection is on, else ``None``.  Only meaningful once
        ``completed`` is true.
    completed:
        Whether the stream ran to the end of the observation window.
        False only when ``max_blocks`` stopped the run early.
    blocks_run:
        Canonical blocks executed *by this call*.
    peak_open_sessions:
        High-water mark of the open-session table.
    peak_log_buffered:
        High-water mark of the log writer's reorder buffer.
    peak_pending:
        High-water mark of the generator's cross-block pending buffer.
    """

    n_transfers: int
    n_entries: int
    n_sessions: int | None
    sessions: FinalizedSessions | None
    completed: bool
    blocks_run: int
    peak_open_sessions: int
    peak_log_buffered: int
    peak_pending: int


def _workload_fingerprint(model: LiveWorkloadModel, days: float,
                          seed: int, blocks: int, timeout: float,
                          codec: str, scenario: str = "") -> dict[str, Any]:
    return {
        "model": model.to_dict(),
        "days": float(days),
        "seed": int(seed),
        "blocks": int(blocks),
        "timeout": float(timeout),
        "codec": str(codec),
        "scenario": str(scenario),
    }


def run_streaming_generation(
        model: LiveWorkloadModel, days: float, *,
        seed: SeedLike = None,
        log_path: str | Path | None = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        blocks: int | None = None,
        timeout: float = DEFAULT_SESSION_TIMEOUT,
        sessionize: bool = True,
        collect_sessions: bool = True,
        checkpoint_path: str | Path | None = None,
        resume: bool = False,
        max_blocks: int | None = None,
        codec: str = "text",
        scenario: str | Scenario | None = None) -> StreamRunResult:
    """Generate a workload end to end in bounded memory.

    Parameters
    ----------
    model, days, seed:
        The generation request; for a fixed ``(model, days, seed,
        blocks)`` the log file is byte-identical to
        ``write_wms_log(generate_sharded(...).trace)`` and the collected
        sessions match ``sessionize(trace, timeout).session_columns()``.
    log_path:
        WMS-style log destination; ``None`` skips log writing.
    chunk_size:
        Transfers per streamed batch (outputs are invariant to it).
    blocks:
        Canonical block count (default
        :data:`repro.parallel.plan.DEFAULT_BLOCKS`); also the checkpoint
        granularity.
    timeout:
        Sessionization silence threshold ``T_o``.
    sessionize:
        Run the online sessionizer.
    collect_sessions:
        Keep finalized sessions in memory (O(sessions)); turn off for
        count-only paper-scale runs.
    checkpoint_path:
        When set, the pipeline cursor is saved here after every
        block (and again at the end of a completed run).  Requires an integer
        ``seed`` — an unseeded request cannot be re-planned on resume.
    resume:
        Continue from ``checkpoint_path`` if it exists (a missing
        checkpoint file starts from scratch, so a kill-anytime retry
        loop needs no existence check).  The checkpoint's workload
        fingerprint must match this call's arguments.
    max_blocks:
        Stop after this many blocks in *this* call (test/ops hook for
        exercising interrupted runs); the result reports
        ``completed=False`` when the stream was cut short.
    codec:
        Trace serialization for ``log_path``: ``"text"`` (the WMS log)
        or ``"binary"`` (the columnar format of
        :mod:`repro.trace.codecs`).  Part of the checkpoint fingerprint —
        a run cannot resume under a different codec.
    scenario:
        Optional workload perturbation (spec string or
        :class:`~repro.scenarios.Scenario`).  Part of the workload's
        identity and of the checkpoint fingerprint: a run cannot resume
        under a different scenario.

    Raises
    ------
    CheckpointError
        On checkpoint/argument mismatches (wrong workload fingerprint,
        missing log file to resume into, unseeded checkpointed request).
    """
    if checkpoint_path is not None and not isinstance(seed, int):
        raise CheckpointError(
            "checkpointed streaming runs require an integer seed: an "
            "unseeded plan cannot be re-created on resume")
    codec_impl = get_codec(codec)

    resolved_scenario = get_scenario(scenario)
    stream = GenerationStream(model, days, seed=seed, chunk_size=chunk_size,
                              scenario=resolved_scenario,
                              **({} if blocks is None
                                 else {"blocks": blocks}))
    sessionizer = (OnlineSessionizer(model.n_clients, timeout=timeout)
                   if sessionize else None)
    fingerprint: dict[str, Any] | None = None
    if checkpoint_path is not None:
        assert isinstance(seed, int)  # enforced above
        fingerprint = _workload_fingerprint(
            model, days, seed, stream.blocks, timeout, codec,
            scenario_spec_string(resolved_scenario))

    collected: list[FinalizedSessions] | None = (
        [] if sessionizer is not None and collect_sessions else None)
    run = _RunState(fingerprint, stream, sessionizer, collected)
    restored: tuple[dict[str, Any], dict[str, NDArray[Any]]] | None = None
    if resume:
        if checkpoint_path is None:
            raise CheckpointError("resume=True requires a checkpoint_path")
        if os.path.exists(checkpoint_path):
            restored = load_checkpoint(checkpoint_path)
            assert fingerprint is not None
            require_match(restored[0], fingerprint, checkpoint_path)

    own_stream: IO[Any] | None = None
    writer: StreamingTraceWriter | None = None
    try:
        if log_path is not None:
            if restored is None:
                own_stream = codec_impl.open_stream(log_path)
            else:
                offset = restored[0].get("log_offset")
                if not (isinstance(offset, int) and os.path.exists(log_path)
                        and os.path.getsize(log_path) >= offset):
                    raise CheckpointError(
                        f"cannot resume log file {os.fspath(log_path)!r} at "
                        f"checkpointed offset {offset!r}: it is missing, "
                        "shorter, or the run wrote no log")
                own_stream = codec_impl.reopen_stream(log_path, offset)
            writer = codec_impl.make_writer(
                own_stream, synthetic_client_identity,
                write_header=restored is None)
        run.writer = writer
        if restored is not None:
            restore_state(run, *restored)
        collected = run.collected

        peak_open = sessionizer.peak_open if sessionizer is not None else 0
        peak_buffered = writer.n_buffered if writer is not None else 0
        peak_pending = stream.n_pending
        blocks_run = 0

        def checkpoint_now() -> None:
            assert checkpoint_path is not None
            if own_stream is not None:
                own_stream.flush()
                run.log_offset = own_stream.tell()
            save_checkpoint(checkpoint_path, *save_state(run))

        for batches in stream.block_steps():
            for batch in batches:
                if writer is not None:
                    writer.push(
                        client_index=batch.client_index,
                        object_id=batch.object_id,
                        start=batch.start, duration=batch.duration,
                        bandwidth_bps=batch.bandwidth_bps,
                        global_offset=batch.global_offset,
                        horizon=batch.horizon)
                    peak_buffered = max(peak_buffered, writer.n_buffered)
                if sessionizer is not None:
                    finalized = sessionizer.push_batch(batch)
                    if collected is not None and finalized.n_sessions:
                        collected.append(finalized)
            peak_pending = max(peak_pending, stream.n_pending)
            if sessionizer is not None:
                peak_open = max(peak_open, sessionizer.peak_open)
            blocks_run += 1
            if checkpoint_path is not None:
                checkpoint_now()
            if max_blocks is not None and blocks_run >= max_blocks:
                break

        completed = stream.next_block >= stream.n_blocks
        if completed:
            if writer is not None:
                writer.finish()
            if sessionizer is not None:
                finalized = sessionizer.finish()
                if collected is not None and finalized.n_sessions:
                    collected.append(finalized)
        if checkpoint_path is not None and completed:
            checkpoint_now()

        sessions = None if collected is None else merge_finalized(collected)
        return StreamRunResult(
            n_transfers=stream.n_emitted,
            n_entries=writer.n_written if writer is not None else 0,
            n_sessions=(sessionizer.n_finalized
                        if sessionizer is not None else None),
            sessions=sessions,
            completed=completed,
            blocks_run=blocks_run,
            peak_open_sessions=peak_open,
            peak_log_buffered=peak_buffered,
            peak_pending=peak_pending,
        )
    finally:
        if own_stream is not None:
            own_stream.close()
