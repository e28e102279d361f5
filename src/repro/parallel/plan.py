"""Deterministic planning for GISMO-live generation.

The engine's determinism contract rests on a *canonical decomposition*:
every generation request is split into a fixed number of **blocks**
(:data:`DEFAULT_BLOCKS` equal time windows of the observation period),
each carrying its own child :class:`~numpy.random.SeedSequence` spawned
from the request seed.  One block is one unit of work (a *shard*):
because the per-block random streams never depend on where or in which
order blocks run, the generated trace is bit-for-bit identical for
**any** worker count and for the streaming engine.

The planner runs the cheap, inherently serial stages in-process — the
piecewise-Poisson arrival times and the Zipf client-interest draw, one
vectorized pass each — and packages the expensive per-session stages
(transfer synthesis, bandwidth sampling) into one picklable
:class:`ShardSpec` per block for :mod:`repro.parallel.engine` to
execute.
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
#: blocks)`` yields the same trace for every ``jobs`` choice; changing
#: ``blocks`` selects a different (equally valid) workload.
DEFAULT_BLOCKS = 64


@dataclass(frozen=True)
class ShardSpec:
    """A picklable unit of generation work: one canonical block.

    Attributes
    ----------
    index:
        Position of the block in the canonical decomposition; results
        are concatenated in this order.
    model:
        The generative model (picklable value object).
    duration:
        Observation-window length in seconds; transfers are clipped to it.
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
    edits:
        Scenario trace edits to apply to the block's transfers, in
        order.  Row-local and start-preserving (see
        :class:`repro.scenarios.TraceEdit`), so applying them per block
        is exactly applying them to the whole trace.
    """

    index: int
    model: LiveWorkloadModel
    duration: float
    session_lo: int
    session_hi: int
    arrivals: FloatArray = field(repr=False)
    session_client: IntArray = field(repr=False)
    seed_seq: np.random.SeedSequence = field(repr=False)
    edits: tuple[TraceEdit, ...] = ()

    @property
    def n_sessions(self) -> int:
        """Number of sessions in the block."""
        return self.session_hi - self.session_lo


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
    specs:
        One spec per canonical block, in block order, covering every
        session exactly once.
    """

    model: LiveWorkloadModel
    duration: float
    arrivals: FloatArray = field(repr=False)
    session_client: IntArray = field(repr=False)
    specs: tuple[ShardSpec, ...] = ()

    @property
    def n_sessions(self) -> int:
        """Total planned session count."""
        return int(self.arrivals.size)


def emit_horizons(plan: GenerationPlan) -> FloatArray:
    """Per-block emit horizons for time-ordered streaming.

    ``emit_horizons(plan)[k]`` is a lower bound on the start time of every
    transfer produced by blocks *after* ``k`` (``+inf`` for the last
    block).  A block's earliest transfer starts exactly at its first
    session arrival, and arrivals are globally sorted, so the bound is the
    arrival of the first session beyond block ``k`` — known from the plan
    alone, before any transfer is synthesized.  A streaming merge may
    therefore emit everything with ``start < horizon[k]`` once blocks
    ``0..k`` have executed, and still produce the exact global start
    order.
    """
    hi = np.asarray([spec.session_hi for spec in plan.specs],
                    dtype=np.int64)
    horizons = np.full(hi.size, np.inf, dtype=np.float64)
    inside = hi < plan.arrivals.size
    horizons[inside] = plan.arrivals[hi[inside]]
    return horizons


def plan_generation(model: LiveWorkloadModel, days: float, *,
                    seed: SeedLike = None,
                    blocks: int = DEFAULT_BLOCKS,
                    scenario: str | Scenario | None = None
                    ) -> GenerationPlan:
    """Plan a generation request as one spec per canonical block.

    Runs the serial planning stages (arrival times, client interest) and
    splits the remaining work into ``blocks`` picklable specs.  The
    resulting workload is a pure function of ``(model, days, seed,
    blocks, scenario)`` — never of the worker count or of the engine
    (batch or streaming) that executes the specs.

    Parameters
    ----------
    model:
        The generative model.
    days:
        Observation-window length in days (positive).
    seed:
        Request seed; the same seed reproduces the same plan.
    blocks:
        Canonical block count (see :data:`DEFAULT_BLOCKS`).
    scenario:
        Optional workload perturbation: a spec string
        (``"flash-crowd+zapping"``), a
        :class:`~repro.scenarios.Scenario`, or ``None`` for the
        baseline.  The scenario's model perturbation is applied here,
        before arrival planning, and its trace edits ride along in the
        block specs — so every execution mode generates the identical
        perturbed workload.

    Raises
    ------
    GenerationError
        If ``days`` is non-positive.
    ScenarioError
        If ``scenario`` is an unknown name or a malformed spec.
    ValueError
        If ``blocks`` is invalid.
    """
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

    specs = tuple(
        ShardSpec(index=b, model=model, duration=duration,
                  session_lo=int(bounds[b]), session_hi=int(bounds[b + 1]),
                  arrivals=arrivals[bounds[b]:bounds[b + 1]],
                  session_client=session_client[bounds[b]:bounds[b + 1]],
                  seed_seq=block_seqs[b], edits=edits)
        for b in range(blocks)
    )
    return GenerationPlan(model=model, duration=duration, arrivals=arrivals,
                          session_client=session_client, specs=specs)
