"""Chunked, time-ordered streaming generation.

The batch engine (:func:`repro.parallel.generate_sharded`) materializes
every block's transfers and sorts them into one
:class:`~repro.trace.store.Trace` — O(trace) memory.  This module produces
the *same* transfers, in the same global start order, as a sequence of
bounded-size :class:`TransferBatch` chunks, holding only:

* the generation plan's arrival/interest arrays (O(sessions) — the serial
  planning stages are shared with every other execution mode);
* the currently executing canonical block (O(trace / blocks));
* a *pending* :class:`~repro.arrayops.ReorderBuffer` of transfers that
  start beyond the next block's first arrival (bounded by how far session
  tails outlive their block's time window), held in generation order.

The merge invariant: blocks are time windows, so block ``k``'s earliest
transfer starts at its first session arrival — known from the plan before
any transfer is synthesized (:func:`repro.parallel.plan.emit_horizons`).
After executing blocks ``0..k``, everything with ``start <
emit_horizons(plan)[k]`` can be emitted; a stable start sort of the
pending rows followed by each new block's reproduces exactly the stable
sort by start the batch path applies to the concatenated blocks, so the
streamed column concatenation is **bit-identical** to
``generate_sharded(model, days, seed=seed, blocks=blocks).trace`` for any
``chunk_size``.

The cursor — next block index, pending buffer, emitted count — is the
whole iterator state, which is what makes checkpoint/resume exact: blocks
derive their random streams statelessly from the plan's spawned seed
sequences, so re-planning on resume reproduces the remaining blocks
bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

import numpy as np

from .._typing import FloatArray, IntArray, SeedLike
from ..arrayops import ReorderBuffer
from ..core.model import LiveWorkloadModel
from ..errors import CheckpointError
from ..parallel.engine import generate_shard
from ..parallel.plan import DEFAULT_BLOCKS, emit_horizons, plan_generation
from ..scenarios import Scenario, get_scenario
from ..state import Scalar, Schema, Stateful, Table

#: Default number of transfers per emitted batch.
DEFAULT_CHUNK_SIZE = 100_000

#: Pending-buffer columns carried across blocks, in checkpoint order.
_PENDING_COLUMNS: tuple[tuple[str, type[Any]], ...] = (
    ("start", np.float64), ("duration", np.float64),
    ("object_id", np.int64), ("bandwidth_bps", np.float64),
    ("transfer_session", np.int64),
)


@dataclass(frozen=True)
class TransferBatch:
    """One bounded chunk of the global, start-ordered transfer stream.

    Attributes
    ----------
    global_offset:
        Trace position of the batch's first transfer: the streamed trace
        is the concatenation of batches, and ``global_offset + i`` is row
        ``i``'s index in the equivalent in-memory trace.
    client_index, object_id, start, duration, bandwidth_bps:
        The transfer columns, exactly as the batch trace holds them.
    transfer_session:
        Global owning-session index of each transfer.
    horizon:
        Lower bound on the start of every transfer in every *later*
        batch (non-strict: a tied start may equal it).  Consumers use it
        to retire state: the log writer flushes entries ending strictly
        before it, the online sessionizer evicts sessions it provably
        closes.  ``+inf`` on the final flush.
    """

    global_offset: int
    client_index: IntArray = field(repr=False)
    object_id: IntArray = field(repr=False)
    start: FloatArray = field(repr=False)
    duration: FloatArray = field(repr=False)
    bandwidth_bps: FloatArray = field(repr=False)
    transfer_session: IntArray = field(repr=False)
    horizon: float = np.inf

    @property
    def n_transfers(self) -> int:
        """Number of transfers in the batch."""
        return int(self.start.size)


class GenerationStream(Stateful):
    """Streaming iterator over a GISMO-live generation request.

    Iterating yields :class:`TransferBatch` chunks of at most
    ``chunk_size`` transfers in global start order; the concatenated
    batches are bit-identical to the batch engine's trace for the same
    ``(model, days, seed, blocks)``.  :meth:`block_steps` exposes the
    canonical-block granularity at which the cursor
    (:meth:`state_meta`/:meth:`state_arrays`) is valid for checkpointing.

    Parameters
    ----------
    model:
        The generative model.
    days:
        Observation-window length in days.
    seed:
        Request seed.  Required for resumable runs — an unseeded plan
        cannot be re-created.
    chunk_size:
        Maximum transfers per emitted batch (content is invariant to it).
    blocks:
        Canonical block count; part of the workload's identity (see
        :data:`repro.parallel.plan.DEFAULT_BLOCKS`).
    scenario:
        Optional workload perturbation (spec string or
        :class:`~repro.scenarios.Scenario`); part of the workload's
        identity.  Applied at plan time, so the streamed columns stay
        bit-identical to the batch engine's scenario trace.
    """

    #: The cursor; valid between block steps.
    CHECKPOINT = Schema("generation", (
        Scalar("next_block", int, "_next_block"),
        Scalar("n_emitted", int, "_n_emitted"),
        Table("gen_pending_", "_pending.table", _PENDING_COLUMNS, "pending"),
    ))

    def __init__(self, model: LiveWorkloadModel, days: float, *,
                 seed: SeedLike = None,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 blocks: int = DEFAULT_BLOCKS,
                 scenario: str | Scenario | None = None) -> None:
        if chunk_size < 1:
            raise ValueError(
                f"chunk_size must be at least 1, got {chunk_size}")
        self.model = model
        self.days = float(days)
        self.chunk_size = int(chunk_size)
        self.blocks = int(blocks)
        self.scenario = get_scenario(scenario)
        self._plan = plan_generation(model, days, seed=seed, blocks=blocks,
                                     scenario=self.scenario)
        self._horizons = emit_horizons(self._plan)
        self._next_block = 0
        self._n_emitted = 0
        self._pending = ReorderBuffer(_PENDING_COLUMNS, "start")

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def n_blocks(self) -> int:
        """Number of canonical blocks (block steps) in the stream."""
        return len(self._plan.specs)

    @property
    def next_block(self) -> int:
        """Index of the next block to execute (== blocks completed)."""
        return self._next_block

    @property
    def n_emitted(self) -> int:
        """Transfers emitted so far (the next batch's global offset)."""
        return self._n_emitted

    @property
    def n_pending(self) -> int:
        """Transfers held in the cross-block pending buffer."""
        return self._pending.n_rows

    @property
    def n_sessions(self) -> int:
        """Total planned session count (known up front from the plan)."""
        return self._plan.n_sessions

    @property
    def extent(self) -> float:
        """Observation-window length in seconds."""
        return self._plan.duration

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[TransferBatch]:
        for batches in self.block_steps():
            yield from batches

    def block_steps(self) -> Iterator[list[TransferBatch]]:
        """Yield the batches of one canonical block at a time.

        The cursor state is consistent exactly between steps: after
        consuming a step's batches, :meth:`state_meta` and
        :meth:`state_arrays` describe a resumable position.
        """
        while self._next_block < self.n_blocks:
            yield self._advance_block()

    def _advance_block(self) -> list[TransferBatch]:
        block = self._next_block
        result = generate_shard(self._plan.specs[block])
        horizon = float(self._horizons[block])
        # Pending rows come from earlier blocks, so the stable start order
        # of the held rows is the batch path's stable sort over blocks in
        # order.
        self._pending.push({name: getattr(result, name)
                            for name, _ in _PENDING_COLUMNS})
        ready = self._pending.release(horizon)
        cut = ready["start"].size

        session_client = self._plan.session_client
        batches: list[TransferBatch] = []
        for lo in range(0, cut, self.chunk_size):
            hi = min(lo + self.chunk_size, cut)
            session = ready["transfer_session"][lo:hi]
            # Only the block's last batch may promise the block horizon:
            # sibling batches after this one hold transfers below it.  A
            # non-final batch's bound is the next emitted transfer's
            # start — starts are sorted, and every row still held begins
            # at or after ``horizon`` which is larger still.
            batch_horizon = (horizon if hi == cut
                             else float(ready["start"][hi]))
            batches.append(TransferBatch(
                global_offset=self._n_emitted + lo,
                client_index=session_client[session],
                object_id=ready["object_id"][lo:hi],
                start=ready["start"][lo:hi],
                duration=ready["duration"][lo:hi],
                bandwidth_bps=ready["bandwidth_bps"][lo:hi],
                transfer_session=session,
                horizon=batch_horizon,
            ))
        self._n_emitted += cut
        self._next_block = block + 1
        return batches

    def _checkpoint_sizes(self, values: Mapping[str, Any]
                          ) -> Mapping[str, int]:
        if not 0 <= values["next_block"] <= self.n_blocks:
            raise CheckpointError(
                f"checkpoint block cursor {values['next_block']} out of "
                f"range for {self.n_blocks} blocks")
        return {}
