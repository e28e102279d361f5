"""``repro.parallel``: deterministic sharded workload engine.

The scale-out subsystem: paper-scale workloads (28 days, millions of
transfers) are generated and characterized in shards across worker
processes, with a hard determinism contract — *the same model and seed
produce a bit-identical result for any shard count and any worker
count*.

Three layers:

* :mod:`repro.parallel.plan` — splits a generation request into
  picklable :class:`ShardSpec` units over a canonical block
  decomposition, with per-block child seeds spawned via
  ``numpy.random.SeedSequence``.
* :mod:`repro.parallel.engine` — executes shard specs inline or on a
  :class:`~concurrent.futures.ProcessPoolExecutor` and merges the
  per-shard traces through :func:`repro.trace.transform.merge_traces`.
* :mod:`repro.parallel.characterize` — map-reduce log
  characterization: line-aligned file chunks, per-chunk
  :class:`~repro.trace.streaming.StreamingCharacterizer` accumulators,
  exact merge, and optional checkpoint/resume between windows of chunks.

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
from .plan import (
    DEFAULT_BLOCKS,
    BlockSpec,
    GenerationPlan,
    ShardSpec,
    plan_generation,
)
from .pool import map_ordered

__all__ = [
    "DEFAULT_BLOCKS",
    "DEFAULT_CHUNK_BYTES",
    "BlockSpec",
    "GenerationPlan",
    "LogChunk",
    "ShardResult",
    "ShardSpec",
    "characterize_chunk",
    "characterize_logs",
    "generate_shard",
    "generate_sharded",
    "map_ordered",
    "plan_generation",
    "plan_log_chunks",
]
