"""Block-parallel execution of GISMO-live generation plans.

Workers execute :class:`~repro.parallel.plan.ShardSpec` objects — the
expensive per-session stages of generation for one canonical block —
and the parent concatenates the per-block transfers in block order and
sorts them once by start time into one :class:`~repro.trace.store.Trace`.
Block timestamps are global trace time (blocks are time windows of one
observation period), so no offsets or client re-interning are needed.

Determinism
-----------
Each canonical block derives its behaviour and bandwidth streams
*statelessly* from its spawned seed sequence, so re-running a spec —
inline or in any worker process — reproduces the same transfers.  Block
results are concatenated in block order and the stable sort by start
time resolves ties by block order, which makes
``generate_sharded(jobs=j)`` bit-for-bit equal to the serial
:class:`~repro.core.gismo.LiveWorkloadGenerator` output for every ``j``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .._typing import FloatArray, IntArray, SeedLike
from ..core.gismo import GismoWorkload, _synthetic_client_table
from ..core.model import LiveWorkloadModel
from ..rng import make_rng
from ..scenarios import Scenario
from ..simulation.viewer import generate_sessions
from ..trace.store import Trace
from .plan import DEFAULT_BLOCKS, ShardSpec, plan_generation
from .pool import logger, map_ordered


@dataclass(frozen=True)
class ShardResult:
    """The transfers generated by one block, in generation order.

    Attributes
    ----------
    index:
        The block's position in the plan.
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
        """Number of transfers generated by the block."""
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
    """Execute one block spec: synthesize the block's transfers.

    Module-level so specs can be shipped to worker processes; calling it
    inline yields the identical result.  Rows come back in generation
    order, not sorted: the caller's stable sort by start over the
    blocks in order is what fixes the trace order.
    """
    behavior_rng = make_rng(_spawn_child(spec.seed_seq, 0))
    bandwidth_rng = make_rng(_spawn_child(spec.seed_seq, 1))
    batch = generate_sessions(spec.model.behavior(), spec.arrivals,
                              seed=behavior_rng)
    keep = batch.start < spec.duration
    start = batch.start[keep]
    duration = np.minimum(batch.duration[keep], spec.duration - start)
    bandwidth_law = spec.model.bandwidth_law()
    if bandwidth_law is not None:
        bandwidth = bandwidth_law.sample(start.size, bandwidth_rng)
    else:
        bandwidth = np.zeros(start.size, dtype=np.float64)
    object_id = batch.object_id[keep]
    session_index = batch.session_index[keep]
    if spec.edits:
        # Scenario edits run after the window clip and the bandwidth
        # draw, so surviving rows carry the same random streams as the
        # unedited workload.  Edits are row-local and start-preserving,
        # so per-block application is exactly the whole-trace one.
        client_index = spec.session_client[session_index]
        for edit in spec.edits:
            mask, edited = edit.apply(start, duration, client_index)
            start = start[mask]
            duration = edited[mask]
            object_id = object_id[mask]
            bandwidth = bandwidth[mask]
            session_index = session_index[mask]
            client_index = client_index[mask]
    return ShardResult(index=spec.index, start=start, duration=duration,
                       object_id=object_id, bandwidth_bps=bandwidth,
                       transfer_session=session_index + spec.session_lo)


def generate_sharded(model: LiveWorkloadModel, days: float, *,
                     seed: SeedLike = None, jobs: int = 1,
                     blocks: int = DEFAULT_BLOCKS,
                     scenario: str | Scenario | None = None
                     ) -> GismoWorkload:
    """Generate a workload one block per task across ``jobs`` processes.

    The engine behind :meth:`repro.core.gismo.LiveWorkloadGenerator.
    generate`: for a fixed ``(model, days, seed, blocks)`` the
    :class:`~repro.trace.store.Trace` is bit-for-bit identical for every
    ``jobs``.

    Parameters
    ----------
    model:
        The generative model.
    days:
        Observation-window length in days.
    seed:
        Request seed.
    jobs:
        Worker-process count; ``1`` runs inline (no subprocesses).
    blocks, scenario:
        Forwarded to :func:`repro.parallel.plan.plan_generation`; a
        scenario perturbs the model at plan time and its trace edits
        ride along in the block specs, so the scenario workload is a
        pure function of ``(model, days, seed, blocks, scenario)``.

    Raises
    ------
    GenerationError
        If ``days`` is non-positive.
    ScenarioError
        If ``scenario`` is an unknown name or a malformed spec.
    ValueError
        If ``jobs`` or ``blocks`` is invalid.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    plan = plan_generation(model, days, seed=seed, blocks=blocks,
                           scenario=scenario)
    results = map_ordered(generate_shard, plan.specs, jobs=jobs,
                          label="block")

    t0 = time.perf_counter()
    start = np.concatenate([r.start for r in results])
    order = np.argsort(start, kind="stable")
    transfer_session = np.concatenate(
        [r.transfer_session for r in results])[order]
    trace = Trace(
        clients=_synthetic_client_table(plan.model.n_clients),
        client_index=plan.session_client[transfer_session],
        object_id=np.concatenate([r.object_id for r in results])[order],
        start=start[order],
        duration=np.concatenate([r.duration for r in results])[order],
        bandwidth_bps=np.concatenate(
            [r.bandwidth_bps for r in results])[order],
        extent=plan.duration,
    )
    logger.info("sorted %d block(s) (%d transfers) in %.3fs",
                len(results), trace.n_transfers, time.perf_counter() - t0)
    return GismoWorkload(
        trace=trace,
        session_arrivals=plan.arrivals,
        session_client=plan.session_client,
        transfer_session=transfer_session,
    )
