"""Sharded execution of GISMO-live generation plans.

Workers execute :class:`~repro.parallel.plan.ShardSpec` objects — the
expensive per-session stages of generation — and the parent merges the
per-shard traces through :func:`repro.trace.transform.merge_traces`.
Because shard timestamps are global trace time (blocks are time windows
of one observation period, not separate collection periods), the merge
uses zero offsets; concatenating *independent* collection periods end to
end is what cumulative offsets are for.

Determinism
-----------
Each canonical block derives its behaviour and bandwidth streams
*statelessly* from its spawned seed sequence, so re-running a spec —
inline or in any worker process — reproduces the same transfers.  Shard
results are merged in shard order and the final stable sort by start
time resolves ties by block order; both are invariant to how blocks were
grouped, which makes ``generate_sharded(shards=k, jobs=j)`` bit-for-bit
equal to the serial :class:`~repro.core.gismo.LiveWorkloadGenerator`
output for every ``k`` and ``j``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import numpy.typing as npt

from .._typing import FloatArray, IntArray, SeedLike
from ..core.gismo import GismoWorkload, _synthetic_client_table
from ..core.model import LiveWorkloadModel
from ..rng import make_rng
from ..scenarios import Scenario
from ..simulation.viewer import generate_sessions
from ..trace.store import Trace
from ..trace.transform import merge_traces
from .plan import DEFAULT_BLOCKS, ShardSpec, plan_generation
from .pool import logger, map_ordered


@dataclass(frozen=True)
class ShardResult:
    """The transfers generated by one shard, sorted by start time.

    Attributes
    ----------
    index:
        The shard's position in the plan.
    start, duration, object_id, bandwidth_bps:
        Per-transfer columns (global trace time, window-clipped).
    transfer_session:
        Global owning-session index of each transfer.
    """

    index: int
    start: FloatArray = field(repr=False)
    duration: FloatArray = field(repr=False)
    object_id: IntArray = field(repr=False)
    bandwidth_bps: FloatArray = field(repr=False)
    transfer_session: IntArray = field(repr=False)

    @property
    def n_transfers(self) -> int:
        """Number of transfers generated by the shard."""
        return int(self.start.size)


def _spawn_child(seq: np.random.SeedSequence,
                 key: int) -> np.random.SeedSequence:
    """Derive child ``key`` of ``seq`` without mutating its spawn state.

    Equivalent to the ``key``-th sequence ``seq.spawn`` would produce on a
    fresh parent, but stateless, so executing the same spec twice (or in
    several processes) derives identical streams.
    """
    return np.random.SeedSequence(entropy=seq.entropy,
                                  spawn_key=seq.spawn_key + (key,),
                                  pool_size=seq.pool_size)


def generate_shard(spec: ShardSpec) -> ShardResult:
    """Execute one shard spec: synthesize its blocks' transfers.

    Module-level so specs can be shipped to worker processes; calling it
    inline yields the identical result.
    """
    behavior = spec.model.behavior()
    bandwidth_law = spec.model.bandwidth_law()
    starts: list[FloatArray] = []
    durations: list[FloatArray] = []
    object_ids: list[IntArray] = []
    bandwidths: list[FloatArray] = []
    sessions: list[IntArray] = []
    for block in spec.blocks:
        behavior_rng = make_rng(_spawn_child(block.seed_seq, 0))
        bandwidth_rng = make_rng(_spawn_child(block.seed_seq, 1))
        batch = generate_sessions(behavior, block.arrivals,
                                  seed=behavior_rng)
        keep = batch.start < spec.duration
        start = batch.start[keep]
        duration = np.minimum(batch.duration[keep], spec.duration - start)
        if bandwidth_law is not None:
            bandwidth = bandwidth_law.sample(start.size, bandwidth_rng)
        else:
            bandwidth = np.zeros(start.size, dtype=np.float64)
        object_id = batch.object_id[keep]
        session_index = batch.session_index[keep]
        if spec.edits:
            # Scenario edits run after the window clip and the bandwidth
            # draw, so surviving rows carry the same random streams as
            # the unedited workload.  Edits are row-local and
            # start-preserving, so per-block application is exactly the
            # merged-trace application regardless of shard grouping.
            client_index = block.session_client[session_index]
            for edit in spec.edits:
                mask, edited = edit.apply(start, duration, client_index)
                start = start[mask]
                duration = edited[mask]
                object_id = object_id[mask]
                bandwidth = bandwidth[mask]
                session_index = session_index[mask]
                client_index = client_index[mask]
        starts.append(start)
        durations.append(duration)
        object_ids.append(object_id)
        bandwidths.append(bandwidth)
        sessions.append(session_index + block.session_lo)

    def _concat(parts: list[npt.NDArray[Any]],
                dtype: type[np.generic]) -> npt.NDArray[Any]:
        return (np.concatenate(parts) if parts
                else np.empty(0, dtype=dtype))

    start = _concat(starts, np.float64)
    order = np.argsort(start, kind="stable")
    return ShardResult(
        index=spec.index,
        start=start[order],
        duration=_concat(durations, np.float64)[order],
        object_id=_concat(object_ids, np.int64)[order],
        bandwidth_bps=_concat(bandwidths, np.float64)[order],
        transfer_session=_concat(sessions, np.int64)[order],
    )


def generate_sharded(model: LiveWorkloadModel, days: float, *,
                     seed: SeedLike = None, shards: int = 1, jobs: int = 1,
                     blocks: int = DEFAULT_BLOCKS,
                     scenario: str | Scenario | None = None
                     ) -> GismoWorkload:
    """Generate a workload in ``shards`` parts across ``jobs`` processes.

    The deterministic sharded counterpart of
    :meth:`repro.core.gismo.LiveWorkloadGenerator.generate` (which is
    itself this function at ``shards=1, jobs=1``): for a fixed ``(model,
    days, seed, blocks)`` the merged :class:`~repro.trace.store.Trace` is
    bit-for-bit identical for every ``shards``/``jobs`` combination.

    Parameters
    ----------
    model:
        The generative model.
    days:
        Observation-window length in days.
    seed:
        Request seed.
    shards:
        Number of work units to split generation into.
    jobs:
        Worker-process count; ``1`` runs inline (no subprocesses).
    blocks, scenario:
        Forwarded to :func:`repro.parallel.plan.plan_generation`; a
        scenario perturbs the model at plan time and its trace edits
        ride along in the shard specs, so the scenario workload is a
        pure function of ``(model, days, seed, blocks, scenario)``.

    Raises
    ------
    GenerationError
        If ``days`` is non-positive.
    ScenarioError
        If ``scenario`` is an unknown name or a malformed spec.
    ValueError
        If ``shards``, ``jobs`` or ``blocks`` is invalid.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    plan = plan_generation(model, days, seed=seed, shards=shards,
                           blocks=blocks, scenario=scenario)
    results = map_ordered(generate_shard, plan.shards, jobs=jobs,
                          label="shard")

    t0 = time.perf_counter()
    clients = _synthetic_client_table(plan.model.n_clients)
    traces = [
        Trace(
            clients=clients,
            client_index=plan.session_client[result.transfer_session],
            object_id=result.object_id,
            start=result.start,
            duration=result.duration,
            bandwidth_bps=result.bandwidth_bps,
            extent=plan.duration,
        )
        for result in results
    ]
    merged = merge_traces(traces)
    # merge_traces re-sorts the concatenated columns by start; mirror the
    # same stable permutation for the session bookkeeping column.
    order = np.argsort(np.concatenate([r.start for r in results]),
                       kind="stable")
    transfer_session = np.concatenate(
        [r.transfer_session for r in results])[order]
    logger.info("merged %d shard(s) (%d transfers) in %.3fs",
                len(results), merged.n_transfers, time.perf_counter() - t0)
    return GismoWorkload(
        trace=merged,
        session_arrivals=plan.arrivals,
        session_client=plan.session_client,
        transfer_session=transfer_session,
    )
