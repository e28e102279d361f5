"""Bounded-memory streaming pipeline.

Everything the batch pipeline computes — the synthetic trace, the
WMS-style log, the sessionization, the characterization summary — this
subpackage computes in one time-ordered pass with O(open state) memory,
bit-identically, with atomic checkpoint/resume at canonical-block
granularity.  See ``docs/API.md`` ("Streaming at paper scale") for the
memory-bound argument and usage.  Checkpointed characterization of a
finished log set is :func:`repro.parallel.characterize_logs` with a
``checkpoint_path``; it saves through :mod:`repro.stream.checkpoint`.
"""

from .checkpoint import load_checkpoint, require_match, save_checkpoint
from .generate import DEFAULT_CHUNK_SIZE, GenerationStream, TransferBatch
from .pipeline import StreamRunResult, run_streaming_generation
from .sessionize import FinalizedSessions, OnlineSessionizer, merge_finalized

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "FinalizedSessions",
    "GenerationStream",
    "OnlineSessionizer",
    "StreamRunResult",
    "TransferBatch",
    "load_checkpoint",
    "merge_finalized",
    "require_match",
    "run_streaming_generation",
    "save_checkpoint",
]
