"""``repro.parallel``: deterministic block-parallel workload engine.

The scale-out subsystem: paper-scale workloads (28 days, millions of
transfers) are generated and characterized across worker processes, with
a hard determinism contract — *the same model and seed produce a
bit-identical result for any worker count*.  Each job runs on its
canonical units of work, whose decomposition no scheduling choice
changes: one task per generation block, one task per log chunk, and one
pool per driver call.

Four modules:

* :mod:`repro.parallel.plan` — splits a generation request into one
  picklable :class:`ShardSpec` per canonical block, with per-block
  child seeds spawned via ``numpy.random.SeedSequence``.
* :mod:`repro.parallel.engine` — executes the block specs inline or on
  a process pool and sorts their transfers once into one trace.
* :mod:`repro.parallel.characterize` — map-reduce log
  characterization: line-aligned file chunks, per-chunk
  :class:`~repro.trace.streaming.StreamingCharacterizer` accumulators
  merged in chunk order as they arrive, and optional checkpoint/resume.
* :mod:`repro.parallel.pool` — the ordered map both drivers use.

Progress is logged on the ``repro.parallel`` channel (the CLI's
``-v/--verbose`` flag enables it).
"""

from .characterize import (
    DEFAULT_CHUNK_BYTES,
    LogChunk,
    characterize_chunk,
    characterize_logs,
    plan_log_chunks,
)
from .engine import ShardResult, generate_shard, generate_sharded
from .plan import DEFAULT_BLOCKS, GenerationPlan, ShardSpec, plan_generation
from .pool import imap_ordered, map_ordered

__all__ = [
    "DEFAULT_BLOCKS",
    "DEFAULT_CHUNK_BYTES",
    "GenerationPlan",
    "LogChunk",
    "ShardResult",
    "ShardSpec",
    "characterize_chunk",
    "characterize_logs",
    "generate_shard",
    "generate_sharded",
    "imap_ordered",
    "map_ordered",
    "plan_generation",
    "plan_log_chunks",
]
