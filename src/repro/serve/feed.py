"""Per-feed ingest worker: bounded queue + the live accumulator stack.

One :class:`FeedWorker` owns all state for one logical feed: the
:class:`~repro.trace.streaming.StreamingCharacterizer` (fed in arrival
order — its accumulation is order-blind, which is what makes live
results bit-identical to batch characterization of the same log), an
:class:`~repro.stream.sessionize.OnlineSessionizer` behind a start-order
reorder buffer, and the metrics accumulators of
:mod:`repro.serve.tracking`.

Backpressure
------------
Connections *offer* batches with ``offer_*``; a full queue sheds the
batch — the offer returns ``False``, shed counters advance, and the
service surfaces an ``ERR backpressure`` line and closes the offending
connection.  Nothing is ever buffered beyond ``queue_batches`` batches,
so a feed that outpaces its worker degrades loudly instead of growing
without bound.  Clients recover by reconnecting and replaying from the
worker's processed cursor (``lines_ingested`` / ``frames_ingested``),
which counts *processed* input only — exactly the prefix a checkpoint
captures.

Reordering
----------
Ingest delivers entries in transfer-end order; sessionization requires
globally non-decreasing starts.  Entries wait in a reorder buffer until
the end frontier ``M`` guarantees their start can no longer be preceded
(``start <= M - lateness``); released entries are stably start-sorted,
so ties keep arrival order and the session stream matches the batch
sessionizer's ``(client, start)`` canonical order.  Entries arriving
below the released floor (possible only for transfers longer than
``lateness``) are dropped from session tracking and counted.
"""

from __future__ import annotations

import asyncio
import math
import time
from itertools import count, filterfalse
from typing import Any, Sequence

import numpy as np

from .._typing import FloatArray, IntArray
from ..errors import CheckpointError, ProtocolError, ReproError, TraceError
from ..state import DERIVED, Column, Part, Scalar, Schema, Stateful, Table
from ..stream.sessionize import FinalizedSessions, OnlineSessionizer, merge_finalized
from ..trace.codecs import declared_client_slots, decode_entry_columns
from ..trace.streaming import OnlineLogMoments, StreamingCharacterizer
from ..trace.wms_log import LOG_FIELDS, parse_log_stream
from ..units import DEFAULT_SESSION_TIMEOUT
from .config import DEFAULT_LATENESS
from .tracking import ConcurrencyTracker, LatencyHistogram

#: The operational counters, in :meth:`FeedWorker.counters` order.
_COUNTERS = ("lines_ingested", "frames_ingested", "clients_frames",
             "entries_ingested", "shed_lines", "shed_frames", "shed_events",
             "late_drops", "truncated_lines", "mode_conflicts", "feed_errors")

#: An ndarray of any dtype.
_AnyArray = np.ndarray[Any, np.dtype[Any]]

#: Checkpoint columns: reorder buffer, identities, log-moment counts.
_PEND_COLUMNS = (("client", np.int64), ("start", np.float64),
                 ("duration", np.float64))
_IDENT_COLUMNS = (("index", np.int64), ("ip", np.str_), ("player", np.str_),
                  ("os", np.str_))
_MOMENT_COLUMNS = (("display", np.int64), ("count", np.int64))

#: Queue item kinds.
_LINES = "lines"
_ENTRIES = "entries"
_CLIENTS = "clients"


class FeedWorker(Stateful):
    """All live state for one feed, fed through a bounded batch queue.

    The synchronous ``ingest_*`` methods do the actual accumulation and
    are what tests drive directly; :meth:`run` is the asyncio consumer
    loop the service spawns, which pulls offered batches and calls them.
    A batch is processed without touching the event loop, so any state
    snapshot taken between batches (checkpoints, ``/state``) is
    consistent.
    """

    CHECKPOINT = Schema("feed", (
        Scalar("mode", (str, type(None)), "_mode"),
        Scalar("capacity", int, "_capacity"),
        Scalar("fields", (list, type(None)), "_fields"),
        *(Scalar(f"counters.{name}", int, name) for name in _COUNTERS),
        Scalar("reorder.max_end", float, "_max_end"),
        Scalar("reorder.released_floor", float, "_released_floor"),
        Scalar("reorder.pend_min", float, "_pend_min"),
        Scalar("reorder.pend_rows", int, "_pend_rows", DERIVED),
        Table("pend_", "_pend_table", _PEND_COLUMNS, "pend"),
        Column("spc", np.int64, "capacity", "_spc"),
        Table("on_", "_on_moments.counts", _MOMENT_COLUMNS, "on"),
        Column("players", np.str_, "interned", "_players"),
        Table("ident_", "_identity_table", _IDENT_COLUMNS, "ident"),
        Part("characterizer", "characterizer",
             make=lambda worker, values: StreamingCharacterizer()),
        Part("sessionizer", "sessionizer",
             make=lambda worker, values: OnlineSessionizer(
                 values["capacity"], timeout=worker.timeout)),
        Scalar("gap.n_clients", int, "sessionizer.n_clients", DERIVED),
        Scalar("gap.timeout", float, "timeout", DERIVED),
        Scalar("gap.n_gaps", int, "_gap_moments.n", DERIVED),
        Table("gap_", "_gap_moments.counts", _MOMENT_COLUMNS, "gap"),
        Part("concurrency", "_conc"),
        Scalar("on_counts_n", int, "_on_moments.n", DERIVED),
    ))

    def __init__(self, name: str, *,
                 timeout: float = DEFAULT_SESSION_TIMEOUT,
                 lateness: float = DEFAULT_LATENESS,
                 queue_batches: int = 64,
                 keep_sessions: bool = False) -> None:
        self.name = name
        self.timeout = float(timeout)
        self.lateness = float(lateness)
        self.keep_sessions = bool(keep_sessions)
        self._queue: asyncio.Queue[tuple[str, Any, float] | None] = (
            asyncio.Queue(maxsize=int(queue_batches)))
        self._gate: asyncio.Event | None = None

        self.characterizer = StreamingCharacterizer()
        self._capacity = 1
        self.sessionizer = OnlineSessionizer(1, timeout=self.timeout)
        self._gap_moments = OnlineLogMoments()
        self._conc = ConcurrencyTracker()
        self._on_moments = OnlineLogMoments()
        self._spc = np.zeros(1, dtype=np.int64)
        self.latency = LatencyHistogram()

        # Text-mode machinery.
        self._fields: list[str] | None = None
        self._player_index: dict[str, int] = {}
        # Binary-mode machinery: identities by index, in slot order.
        self._identities: dict[int, tuple[str, str, str]] = {}
        # Sorted declared indices, the slot of each, each slot's player.
        self._slots: tuple[IntArray, IntArray, _AnyArray] | None = None

        # Reorder buffer (arrival order preserved across chunks).
        self._pend: list[tuple[IntArray, FloatArray, FloatArray]] = []
        self._pend_rows = 0
        self._pend_min = math.inf
        self._max_end = -math.inf
        self._released_floor = -math.inf

        self._mode: str | None = None
        self.lines_ingested = 0
        self.frames_ingested = 0
        self.clients_frames = 0
        self.entries_ingested = 0
        self.shed_lines = 0
        self.shed_frames = 0
        self.shed_events = 0
        self.late_drops = 0
        self.truncated_lines = 0
        self.mode_conflicts = 0
        self.feed_errors = 0
        self.last_error: str | None = None
        self._session_parts: list[FinalizedSessions] = []

    # ------------------------------------------------------------------
    # Offer side (connection handlers)
    # ------------------------------------------------------------------
    def offer_lines(self, lines: list[str]) -> bool:
        """Enqueue a batch of raw log lines; ``False`` if shed."""
        try:
            self._queue.put_nowait((_LINES, lines, time.perf_counter()))
        except asyncio.QueueFull:
            self.shed_lines += len(lines)
            self.shed_events += 1
            return False
        return True

    def offer_entries(self, quantized: dict[str, IntArray]) -> bool:
        """Enqueue one decoded ENTRIES frame; ``False`` if shed."""
        try:
            self._queue.put_nowait(
                (_ENTRIES, quantized, time.perf_counter()))
        except asyncio.QueueFull:
            self.shed_frames += 1
            self.shed_events += 1
            return False
        return True

    def offer_clients(self, rows: list[tuple[int, str, str, str]]) -> bool:
        """Enqueue one CLIENTS identity frame; ``False`` if shed."""
        try:
            self._queue.put_nowait((_CLIENTS, rows, time.perf_counter()))
        except asyncio.QueueFull:
            self.shed_frames += 1
            self.shed_events += 1
            return False
        return True

    # ------------------------------------------------------------------
    # Consumer loop
    # ------------------------------------------------------------------
    async def run(self) -> None:
        """Pull offered batches until :meth:`shutdown` is awaited."""
        while True:
            item = await self._queue.get()
            try:
                if item is None:
                    return
                if self._gate is not None:
                    await self._gate.wait()
                kind, payload, enqueued_at = item
                try:
                    if kind == _LINES:
                        self.ingest_lines(payload)
                    elif kind == _ENTRIES:
                        self.ingest_entries(payload)
                    else:
                        self.ingest_clients(payload)
                except ReproError as exc:
                    # A bad batch must not kill the feed: count it,
                    # remember the message, keep consuming.
                    self.feed_errors += 1
                    self.last_error = f"{type(exc).__name__}: {exc}"
                self.latency.observe(time.perf_counter() - enqueued_at)
            finally:
                self._queue.task_done()

    async def shutdown(self) -> None:
        """Ask :meth:`run` to exit after the queued batches drain."""
        # Shutdown overrides a pause: a held gate would leave the queue
        # full and this put waiting forever.
        self.resume_processing()
        await self._queue.put(None)

    async def drain(self) -> None:
        """Wait until every offered batch has been processed."""
        await self._queue.join()

    def pause(self) -> None:
        """Test hook: hold the consumer before its next batch."""
        if self._gate is None:
            self._gate = asyncio.Event()
        self._gate.clear()

    def resume_processing(self) -> None:
        """Release a :meth:`pause`."""
        if self._gate is not None:
            self._gate.set()

    @property
    def queue_depth(self) -> int:
        """Batches currently waiting in the worker queue."""
        return self._queue.qsize()

    # ------------------------------------------------------------------
    # Synchronous ingestion
    # ------------------------------------------------------------------
    def ingest_lines(self, lines: list[str]) -> int:
        """Fold a batch of raw text log lines; returns entries parsed.

        Mirrors the batch pipeline exactly: the data lines are parsed
        once, in arrival order under the current ``#Fields`` layout (a
        directive, mid-batch included, switches it); each parsed batch
        goes to the characterizer, and its columns give ``(client,
        start, duration)`` for session tracking, so both sides agree line
        for line on what counts as an entry.
        """
        if not self._enter_mode("text"):
            return 0
        self.lines_ingested += len(lines)
        parsed = 0
        index = self._player_index
        fields = self._fields if self._fields is not None else LOG_FIELDS
        run: list[tuple[IntArray, FloatArray, FloatArray]] = []
        layout: Sequence[str] = fields
        try:
            for batch in parse_log_stream(lines, fields):
                parsed += self.characterizer.consume_parsed(batch)
                if batch.fields is not layout:
                    # A directive ends a run; the parse batches of one run
                    # go to the reorder buffer together, as one push.
                    self._push_run(run)
                    run, layout = [], batch.fields
                    self._fields = list(layout)
                if batch.n_entries:
                    fresh = list(filterfalse(index.__contains__,
                                             dict.fromkeys(batch.players)))
                    index.update(zip(fresh, count(len(index))))
                    client = np.fromiter(
                        map(index.__getitem__, batch.players),
                        dtype=np.int64, count=batch.n_entries)
                    duration = batch.columns["duration"]
                    run.append((client, batch.columns["timestamp"] - duration,
                                duration))
        finally:
            # Entries before a bad directive are tracked like the rest.
            self._push_run(run)
        self.entries_ingested += parsed
        return parsed

    def _push_run(self, run: list[tuple[IntArray, FloatArray, FloatArray]]
                  ) -> None:
        if run:
            self._ensure_capacity(len(self._player_index))
            self._enqueue_reorder(*(np.concatenate(column)
                                    for column in zip(*run, strict=True)))

    def ingest_clients(self, rows: list[tuple[int, str, str, str]]) -> None:
        """Fold one CLIENTS identity frame (idempotent re-sends are fine)."""
        if not self._enter_mode("binary"):
            return
        for index, ip, player, os_name in rows:
            if not 0 <= index < 1 << 63:
                raise ProtocolError(
                    f"client index {index} out of range in CLIENTS frame")
            self._identities[int(index)] = (ip, player, os_name)
        self._slots = None
        # Identity frames are idempotent and re-sent on reconnect, so
        # they do not advance the resume cursor (frames_ingested).
        self.clients_frames += 1

    def ingest_entries(self, quantized: dict[str, IntArray]) -> int:
        """Fold one quantized ENTRIES frame; returns rows consumed.

        One frame is consumed as one
        :meth:`~repro.trace.streaming.StreamingCharacterizer.consume_columns`
        call; its sums are exact, rounded once when read, so the state
        does not depend on how the entries were framed.  Session state
        is indexed by client slot (declaration order), so its size never
        follows an index value.  A frame with an entry the entry rule
        refuses raises :class:`ProtocolError` and changes no feed state.
        """
        try:
            columns = decode_entry_columns(quantized)
        except TraceError as exc:
            raise ProtocolError(str(exc)) from exc
        if not self._enter_mode("binary"):
            return 0
        client = np.asarray(columns["client_index"], dtype=np.int64)
        n = int(client.size)
        self.frames_ingested += 1
        if n == 0:
            return 0
        slots, players = self._client_slots(client)
        self.characterizer.consume_columns(columns, players[slots])
        self.entries_ingested += n
        self._ensure_capacity(int(slots.max()) + 1)
        self._enqueue_reorder(
            slots,
            np.asarray(columns["start"], dtype=np.float64),
            np.asarray(columns["duration"], dtype=np.float64))
        return n

    def _client_slots(self, client: IntArray) -> tuple[IntArray, _AnyArray]:
        """Each entry's client slot, and the player ID of every slot."""
        if self._slots is None:
            if not self._identities:
                raise ProtocolError(
                    "ENTRIES frame before any CLIENTS frame on feed "
                    f"{self.name!r}")
            declared = np.fromiter(self._identities, dtype=np.int64,
                                   count=len(self._identities))
            order = np.argsort(declared, kind="stable")
            players = np.asarray(
                [player for _, player, _ in self._identities.values()],
                dtype=np.str_)
            self._slots = (declared[order], order, players)
        declared, order, players = self._slots
        try:
            ranks = declared_client_slots(declared, client,
                                          source=f"feed {self.name!r}")
        except TraceError as exc:
            raise ProtocolError(str(exc)) from exc
        return order[ranks], players

    def _enter_mode(self, mode: str) -> bool:
        if self._mode is None:
            self._mode = mode
            return True
        if self._mode != mode:
            self.mode_conflicts += 1
            return False
        return True

    def _ensure_capacity(self, n_clients: int) -> None:
        if n_clients <= self._capacity:
            return
        while self._capacity < n_clients:
            self._capacity *= 2
        self.sessionizer.grow(self._capacity)
        grown = np.zeros(self._capacity, dtype=np.int64)
        grown[:self._spc.size] = self._spc
        self._spc = grown

    # ------------------------------------------------------------------
    # Reorder buffer -> session stack
    # ------------------------------------------------------------------
    def _enqueue_reorder(self, client: IntArray, start: FloatArray,
                         duration: FloatArray) -> None:
        ends = start + duration
        if ends.size:
            frontier = float(ends.max())
            if frontier > self._max_end:
                self._max_end = frontier
            low = float(start.min())
            if low < self._pend_min:
                self._pend_min = low
        self._pend.append((client, start, duration))
        self._pend_rows += int(start.size)
        self._release(self._max_end - self.lateness)

    def _release(self, watermark: float, *, final: bool = False) -> None:
        if not self._pend or (not final and self._pend_min > watermark):
            return
        client = np.concatenate([part[0] for part in self._pend])
        start = np.concatenate([part[1] for part in self._pend])
        duration = np.concatenate([part[2] for part in self._pend])
        if final:
            take = np.ones(start.size, dtype=bool)
        else:
            take = start <= watermark
        if not np.any(take):
            self._pend = [(client, start, duration)]
            return
        keep = ~take
        if np.any(keep):
            kept = (client[keep], start[keep], duration[keep])
            self._pend = [kept]
            self._pend_rows = int(kept[1].size)
            self._pend_min = float(kept[1].min())
        else:
            self._pend = []
            self._pend_rows = 0
            self._pend_min = math.inf
        client, start, duration = client[take], start[take], duration[take]

        late = start < self._released_floor
        if np.any(late):
            self.late_drops += int(np.count_nonzero(late))
            ontime = ~late
            client, start, duration = (client[ontime], start[ontime],
                                       duration[ontime])
        if start.size == 0:
            return
        order = np.argsort(start, kind="stable")
        client, start, duration = client[order], start[order], duration[order]
        self._released_floor = float(start[-1])
        self._push_sessions(client, start, duration,
                            horizon=None if final else self._released_floor)

    def _push_sessions(self, client: IntArray, start: FloatArray,
                       duration: FloatArray, *,
                       horizon: float | None) -> None:
        finalized, gaps = self.sessionizer.push_with_gaps(
            client, start, duration, horizon=horizon)
        if gaps.size:
            self._gap_moments.add_lengths(gaps)
        self._absorb_finalized(finalized)

    def _absorb_finalized(self, finalized: FinalizedSessions) -> None:
        if finalized.n_sessions == 0:
            return
        self._on_moments.add_lengths(finalized.end - finalized.start)
        self._conc.observe(finalized.start, finalized.end)
        np.add.at(self._spc, finalized.client_index, 1)
        if self.keep_sessions:
            self._session_parts.append(finalized)

    def finish(self) -> FinalizedSessions:
        """Flush the reorder buffer and finalize every open session.

        A *terminal* operation for tests and one-shot ingests — the
        long-running service never calls it (feeds outlive connections).
        """
        self._release(math.inf, final=True)
        finalized = self.sessionizer.finish()
        self._absorb_finalized(finalized)
        if self.keep_sessions:
            return self.finalized_sessions()
        return finalized

    def finalized_sessions(self) -> FinalizedSessions:
        """Every finalized session in canonical ``(client, start)`` order
        (requires ``keep_sessions=True``)."""
        return merge_finalized(self._session_parts)

    def intern_table(self) -> list[str]:
        """Player IDs in interned index order (text mode)."""
        players = [""] * len(self._player_index)
        for player, index in self._player_index.items():
            players[index] = player
        return players

    # ------------------------------------------------------------------
    # Metrics / state
    # ------------------------------------------------------------------
    def gap_moments(self) -> tuple[float, float]:
        """Live ``(mu, sigma)`` of intra-session gap log-displays."""
        return self._gap_moments.moments()

    def gap_moments_count(self) -> int:
        """Number of accumulated intra-session gap observations."""
        return self._gap_moments.n

    def on_time_moments(self) -> tuple[float, float]:
        """Live ``(mu, sigma)`` of finalized-session ON-time displays."""
        return self._on_moments.moments()

    def sessions_per_client(self) -> IntArray:
        """Finalized-session count per interned client index."""
        return self._spc

    def concurrency(self) -> ConcurrencyTracker:
        """The feed's live ``c(t)`` tracker."""
        return self._conc

    def counters(self) -> dict[str, int]:
        """Operational counters (monotone; checkpointed)."""
        return {name: int(getattr(self, name)) for name in _COUNTERS}

    # Checkpoint views of the state not held as plain columns.
    @property
    def _pend_table(self) -> dict[str, _AnyArray]:
        parts = self._pend or [(np.empty(0, np.int64), np.empty(0),
                                np.empty(0))]
        return {name: np.concatenate([part[k] for part in parts])
                for k, (name, _) in enumerate(_PEND_COLUMNS)}

    @_pend_table.setter
    def _pend_table(self, table: dict[str, _AnyArray]) -> None:
        rows = (table["client"], table["start"], table["duration"])
        self._pend = [rows] if rows[1].size else []
        self._pend_rows = int(rows[1].size)

    @property
    def _players(self) -> list[str]:
        return self.intern_table()

    @_players.setter
    def _players(self, players: _AnyArray) -> None:
        self._player_index = {p: k for k, p in enumerate(players.tolist())}
        if len(self._player_index) != players.size:
            raise CheckpointError("checkpoint feed players repeat a player")

    def _after_restore(self) -> None:
        # Text mode interns each player the characterizer counts; the
        # binary mode interns none.
        expected = (list(self.characterizer.client_counts())
                    if self._mode == "text" else [])
        if sorted(self._player_index) != expected:
            raise CheckpointError(
                f"checkpoint feed players ({len(self._player_index)} "
                f"interned) do not match the {len(expected)} clients of "
                f"its {self._mode or 'unused'}-mode characterizer")

    @property
    def _identity_table(self) -> dict[str, list[Any]]:
        rows = [(index, *ident) for index, ident in self._identities.items()]
        return {name: [row[k] for row in rows]
                for k, (name, _) in enumerate(_IDENT_COLUMNS)}

    @_identity_table.setter
    def _identity_table(self, table: dict[str, _AnyArray]) -> None:
        self._identities = {
            index: (ip, player, os_name) for index, ip, player, os_name
            in zip(*(table[name].tolist() for name, _ in _IDENT_COLUMNS),
                   strict=True)}
        self._slots = None
