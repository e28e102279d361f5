"""Deterministic shard planning for GISMO-live generation.

The engine's determinism contract rests on a *canonical decomposition*:
every generation request is split into a fixed number of **blocks**
(:data:`DEFAULT_BLOCKS` equal time windows of the observation period),
each carrying its own child :class:`~numpy.random.SeedSequence` spawned
from the request seed.  A *shard* is merely a contiguous group of blocks
handed to one worker; because the per-block random streams never depend
on how blocks are grouped, the merged trace is bit-for-bit identical for
**any** shard count and **any** worker count.

The planner runs the cheap, inherently serial stages in-process — the
piecewise-Poisson arrival times and the Zipf client-interest draw, one
vectorized pass each — and packages the expensive per-session stages
(transfer synthesis, bandwidth sampling) into picklable
:class:`ShardSpec` objects for :mod:`repro.parallel.engine` to execute.

Shards balance the session count per shard (the best load balance
under a strong diurnal rhythm); the grouping affects scheduling only,
never the generated workload.  The streaming engine takes one block per
shard instead (:func:`plan_block_stream`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._typing import FloatArray, IntArray, SeedLike
from ..core.model import LiveWorkloadModel
from ..errors import GenerationError, ScenarioError
from ..rng import make_rng, spawn, spawn_sequences
from ..scenarios import Scenario, TraceEdit, get_scenario
from ..units import DAY

#: Number of canonical blocks a generation request is decomposed into.
#: Part of the determinism contract: the same ``(model, days, seed,
#: blocks)`` yields the same trace for every ``shards``/``jobs`` choice;
#: changing ``blocks`` selects a different (equally valid) workload.
DEFAULT_BLOCKS = 64


@dataclass(frozen=True)
class BlockSpec:
    """One canonical block: a time window's sessions plus their seed.

    Attributes
    ----------
    index:
        Position of the block in the canonical decomposition.
    session_lo, session_hi:
        Global session-index range ``[lo, hi)`` covered by the block.
    arrivals:
        Arrival times of the block's sessions (global trace time).
    session_client:
        Client index of each of the block's sessions (same length as
        ``arrivals``); lets workers resolve per-transfer clients for
        client-targeted scenario edits without the global table.
    seed_seq:
        The block's spawned seed sequence; workers derive the behaviour
        and bandwidth streams from it statelessly.
    """

    index: int
    session_lo: int
    session_hi: int
    arrivals: FloatArray = field(repr=False)
    session_client: IntArray = field(repr=False)
    seed_seq: np.random.SeedSequence = field(repr=False)

    @property
    def n_sessions(self) -> int:
        """Number of sessions in the block."""
        return self.session_hi - self.session_lo


@dataclass(frozen=True)
class ShardSpec:
    """A picklable unit of generation work: consecutive canonical blocks.

    Attributes
    ----------
    index:
        Shard position; results are merged in this order.
    model:
        The generative model (picklable value object).
    duration:
        Observation-window length in seconds; transfers are clipped to it.
    blocks:
        The canonical blocks this shard executes, in order.
    edits:
        Scenario trace edits to apply to every block's transfers, in
        order.  Row-local and start-preserving (see
        :class:`repro.scenarios.TraceEdit`), so applying them per block
        leaves the merged trace independent of the shard grouping.
    """

    index: int
    model: LiveWorkloadModel
    duration: float
    blocks: tuple[BlockSpec, ...]
    edits: tuple[TraceEdit, ...] = ()

    @property
    def n_sessions(self) -> int:
        """Total sessions across the shard's blocks."""
        return sum(block.n_sessions for block in self.blocks)

    @property
    def n_blocks(self) -> int:
        """Number of canonical blocks in the shard."""
        return len(self.blocks)


@dataclass(frozen=True)
class GenerationPlan:
    """A fully planned generation request.

    Attributes
    ----------
    model:
        The generative model.
    duration:
        Observation-window length in seconds.
    arrivals:
        Global session arrival times (sorted).
    session_client:
        Global client index of each session.
    shards:
        The shard specs, covering every session exactly once.
    """

    model: LiveWorkloadModel
    duration: float
    arrivals: FloatArray = field(repr=False)
    session_client: IntArray = field(repr=False)
    shards: tuple[ShardSpec, ...] = ()

    @property
    def n_sessions(self) -> int:
        """Total planned session count."""
        return int(self.arrivals.size)

    @property
    def n_shards(self) -> int:
        """Number of shards in the plan."""
        return len(self.shards)


def _shard_cuts(bounds: IntArray, shards: int | None) -> list[int]:
    """Block-index cut points grouping the blocks into ``shards``.

    ``bounds`` is the cumulative session count at block edges (length
    ``n_blocks + 1``).  Returns ``shards + 1`` non-decreasing cut points
    starting at 0 and ending at ``n_blocks`` that balance the session
    count per shard; ``shards=None`` cuts at every block.
    """
    n_blocks = bounds.size - 1
    if shards is None:
        return list(range(n_blocks + 1))
    n_sessions = int(bounds[-1])
    targets = [(n_sessions * k) / shards for k in range(1, shards)]
    interior = np.searchsorted(bounds, targets, side="left")
    raw = [0, *np.minimum(interior, n_blocks).tolist(), n_blocks]
    return [int(c) for c in np.maximum.accumulate(raw)]


def plan_block_stream(model: LiveWorkloadModel, days: float, *,
                      seed: SeedLike = None,
                      blocks: int = DEFAULT_BLOCKS,
                      scenario: str | Scenario | None = None
                      ) -> GenerationPlan:
    """Plan a generation request as one shard per canonical block.

    The streaming entry point (:class:`repro.stream.GenerationStream`)
    executes blocks one at a time in canonical order, so it needs the
    finest-grained decomposition: shard ``k`` is exactly block ``k``.
    The underlying workload is the same pure function of ``(model, days,
    seed, blocks)`` as every other execution mode.
    """
    return _plan(model, days, seed, None, blocks, scenario)


def emit_horizons(plan: GenerationPlan) -> FloatArray:
    """Per-shard emit horizons for time-ordered streaming.

    ``emit_horizons(plan)[k]`` is a lower bound on the start time of every
    transfer produced by shards *after* ``k`` (``+inf`` for the last
    shard).  A shard's earliest transfer starts exactly at its first
    session arrival, and arrivals are globally sorted, so the bound is the
    arrival of the first session beyond shard ``k`` — known from the plan
    alone, before any transfer is synthesized.  A streaming merge may
    therefore emit everything with ``start < horizon[k]`` once shards
    ``0..k`` have executed, and still produce the exact global start
    order.
    """
    horizons = np.full(len(plan.shards), np.inf, dtype=np.float64)
    hi = 0
    for k, shard in enumerate(plan.shards):
        if shard.blocks:
            hi = shard.blocks[-1].session_hi
        if hi < plan.arrivals.size:
            horizons[k] = plan.arrivals[hi]
    return horizons


def plan_generation(model: LiveWorkloadModel, days: float, *,
                    seed: SeedLike = None, shards: int = 1,
                    blocks: int = DEFAULT_BLOCKS,
                    scenario: str | Scenario | None = None
                    ) -> GenerationPlan:
    """Plan a generation request as shard specs over canonical blocks.

    Runs the serial planning stages (arrival times, client interest) and
    splits the remaining work into ``shards`` picklable specs.  The
    resulting workload is a pure function of ``(model, days, seed,
    blocks, scenario)`` — never of ``shards`` or worker count.

    Parameters
    ----------
    model:
        The generative model.
    days:
        Observation-window length in days (positive).
    seed:
        Request seed; the same seed reproduces the same plan.
    shards:
        Number of shard specs to produce (at least 1), balanced by
        session count.  Shards beyond the block count come back empty.
    blocks:
        Canonical block count (see :data:`DEFAULT_BLOCKS`).
    scenario:
        Optional workload perturbation: a spec string
        (``"flash-crowd+zapping"``), a
        :class:`~repro.scenarios.Scenario`, or ``None`` for the
        baseline.  The scenario's model perturbation is applied here,
        before arrival planning, and its trace edits ride along in the
        shard specs — so every execution mode generates the identical
        perturbed workload.

    Raises
    ------
    GenerationError
        If ``days`` is non-positive.
    ScenarioError
        If ``scenario`` is an unknown name or a malformed spec.
    ValueError
        If ``shards`` or ``blocks`` is invalid.
    """
    if shards < 1:
        raise ValueError(f"shards must be at least 1, got {shards}")
    return _plan(model, days, seed, shards, blocks, scenario)


def _plan(model: LiveWorkloadModel, days: float, seed: SeedLike,
          shards: int | None, blocks: int,
          scenario: str | Scenario | None) -> GenerationPlan:
    """:func:`plan_generation`, with ``shards=None`` for one shard per
    block (see :func:`_shard_cuts`)."""
    if days <= 0:
        raise GenerationError(f"days must be positive, got {days}")
    if blocks < 1:
        raise ValueError(f"blocks must be at least 1, got {blocks}")

    resolved = get_scenario(scenario)
    if resolved is not None:
        perturbed = resolved.perturb_model(model)
        if perturbed.n_clients != model.n_clients:
            # Downstream consumers (client tables, online sessionizers)
            # size state from the request model; population changes are
            # expressed as trace edits (e.g. blackout), never by
            # resizing the client universe mid-plan.
            raise ScenarioError(
                f"scenario {resolved.spec_string()!r} changed n_clients "
                f"({model.n_clients} -> {perturbed.n_clients}); scenarios "
                "must preserve the client universe")
        model = perturbed

    duration = days * DAY
    edits = (resolved.trace_edits(model, duration)
             if resolved is not None else ())
    rng = make_rng(seed)
    arrival_rng, identity_rng = spawn(rng, 2)
    arrivals = model.arrival_process().generate(duration, arrival_rng)
    session_client = model.interest_law().sample(
        arrivals.size, identity_rng) - 1
    block_seqs = spawn_sequences(rng, blocks)

    # Canonical block edges: equal time windows over [0, duration).  The
    # arrivals are sorted, so each block is a contiguous session range.
    edges = duration * np.arange(1, blocks) / blocks
    bounds = np.empty(blocks + 1, dtype=np.int64)
    bounds[0] = 0
    bounds[-1] = arrivals.size
    bounds[1:-1] = np.searchsorted(arrivals, edges, side="left")

    block_specs = [
        BlockSpec(index=b, session_lo=int(bounds[b]),
                  session_hi=int(bounds[b + 1]),
                  arrivals=arrivals[bounds[b]:bounds[b + 1]],
                  session_client=session_client[bounds[b]:bounds[b + 1]],
                  seed_seq=block_seqs[b])
        for b in range(blocks)
    ]
    cuts = _shard_cuts(bounds, shards)
    shard_specs = tuple(
        ShardSpec(index=k, model=model, duration=duration,
                  blocks=tuple(block_specs[cuts[k]:cuts[k + 1]]),
                  edits=edits)
        for k in range(len(cuts) - 1)
    )
    return GenerationPlan(model=model, duration=duration, arrivals=arrivals,
                          session_client=session_client, shards=shard_specs)
