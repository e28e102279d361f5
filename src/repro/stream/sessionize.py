"""Online (single-pass) session reconstruction.

The batch sessionizer (:func:`repro.core.sessionizer.sessionize`) sorts
the whole trace by ``(client, start)`` and scans it — O(trace) memory.
:class:`OnlineSessionizer` consumes the same transfers as start-ordered
batches and keeps only **per-client open-session state**: the running
maximum of the client's transfer ends, the open session's start and
transfer count, and the start of the client's last transfer.  Finalized
sessions are emitted incrementally.  Both sessionizers take their silence
gaps from one kernel, :func:`repro.arrayops.silence_gaps_sorted`.

Exactness
---------
The per-client running maximum of ends is a plain ``max`` over a set of
floats — associative and commutative *exactly* — so accumulating it
across batches yields bit-for-bit the values the batch scan computes.
Silence gaps, boundaries (``gap > T_o``), session ends, and counts are
derived from those identical values by identical arithmetic; collecting
the emitted sessions in ``(client, start)`` order therefore reproduces
:meth:`repro.core.sessionizer.Sessions.session_columns` exactly, for any
batching of the input (the property suite asserts this, including
timeout-boundary and interleaved-client cases).

Eviction
--------
A session whose latest end ``m`` satisfies ``horizon - m > T_o`` can
never be continued: every future transfer starts at ``s >= horizon``,
and IEEE subtraction is monotone, so ``s - m >= horizon - m > T_o`` —
the gap test fails for every future transfer.  Passing the generation
stream's per-batch horizon thus bounds the open-session table by the
number of sessions genuinely open around the time frontier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np
from numpy.typing import NDArray

from .._typing import FloatArray, IntArray
from ..arrayops import silence_gaps_sorted, stable_client_order
from ..errors import AnalysisError
from ..state import DERIVED, Column, Scalar, Schema, Stateful
from ..units import DEFAULT_SESSION_TIMEOUT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .generate import TransferBatch


@dataclass(frozen=True)
class FinalizedSessions:
    """A columnar batch of finalized sessions.

    Attributes
    ----------
    client_index:
        Per-session client index.
    start:
        Per-session start time (its first transfer's start).
    end:
        Per-session end time (latest transfer end).
    n_transfers:
        Per-session transfer count.
    """

    client_index: IntArray = field(repr=False)
    start: FloatArray = field(repr=False)
    end: FloatArray = field(repr=False)
    n_transfers: IntArray = field(repr=False)

    @property
    def n_sessions(self) -> int:
        """Number of sessions in the batch."""
        return int(self.start.size)


def _empty_finalized() -> FinalizedSessions:
    return FinalizedSessions(
        client_index=np.empty(0, dtype=np.int64),
        start=np.empty(0, dtype=np.float64),
        end=np.empty(0, dtype=np.float64),
        n_transfers=np.empty(0, dtype=np.int64),
    )


def merge_finalized(parts: Sequence[FinalizedSessions]) -> FinalizedSessions:
    """Concatenate finalized-session batches into ``(client, start)`` order.

    The result is directly comparable to the batch sessionizer's
    :meth:`~repro.core.sessionizer.Sessions.session_columns`: same
    canonical session numbering.  (A client's sessions have strictly
    increasing starts — consecutive sessions are separated by a positive
    gap — so the order is total and the sort permutation unique.)
    """
    merged = merge_parts(parts)
    order = np.lexsort((merged.start, merged.client_index))
    return FinalizedSessions(
        client_index=merged.client_index[order], start=merged.start[order],
        end=merged.end[order], n_transfers=merged.n_transfers[order])


class OnlineSessionizer(Stateful):
    """Incremental sessionizer over start-ordered transfer batches.

    Feed batches with :meth:`push` (optionally straight from
    :class:`~repro.stream.generate.TransferBatch` chunks via
    :meth:`push_batch`, or via :meth:`push_with_gaps` to also get the
    intra-session interarrivals); call :meth:`finish` once the stream
    ends.  Every call returns the sessions it finalized.

    Parameters
    ----------
    n_clients:
        Size of the client index space.
    timeout:
        The silence threshold ``T_o`` in seconds (paper: 1,500).
    """

    #: Counters, the ordering cursor and the open-session table.
    CHECKPOINT = Schema("sessionizer", (
        Scalar("n_clients", int, "n_clients", DERIVED),
        Scalar("timeout", float, "timeout", DERIVED),
        Scalar("last_start", float, "_last_start"),
        Scalar("n_transfers", int, "n_transfers"),
        Scalar("n_finalized", int, "n_finalized"),
        Scalar("peak_open", int, "peak_open"),
        Column("sess_open", np.bool_, "n_clients", "_open"),
        Column("sess_start", np.float64, "n_clients", "_session_start"),
        Column("sess_run_max", np.float64, "n_clients", "_run_max"),
        Column("sess_count", np.int64, "n_clients", "_count"),
        Column("sess_last_start", np.float64, "n_clients", "_client_last_start"),
    ))

    def __init__(self, n_clients: int, *,
                 timeout: float = DEFAULT_SESSION_TIMEOUT) -> None:
        if n_clients < 1:
            raise AnalysisError(
                f"n_clients must be positive, got {n_clients}")
        if timeout <= 0:
            raise AnalysisError(f"timeout must be positive, got {timeout}")
        self.n_clients = int(n_clients)
        self.timeout = float(timeout)
        self._open = np.zeros(self.n_clients, dtype=bool)
        self._session_start = np.zeros(self.n_clients, dtype=np.float64)
        self._run_max = np.full(self.n_clients, -np.inf, dtype=np.float64)
        self._count = np.zeros(self.n_clients, dtype=np.int64)
        # Start of each client's last transfer (checkpointed as
        # ``sess_last_start``); kept past eviction, like ``_run_max``.
        self._client_last_start = np.zeros(self.n_clients, dtype=np.float64)
        self._last_start = -np.inf
        self.n_transfers = 0
        self.n_finalized = 0
        self.peak_open = 0

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def n_open(self) -> int:
        """Number of currently open sessions."""
        return int(np.count_nonzero(self._open))

    def grow(self, n_clients: int) -> None:
        """Widen the client index space to ``n_clients`` slots.

        Growth appends fresh closed slots only — existing open-session
        state (and therefore every finalized session) is unchanged.
        Live ingest uses this when a feed declares clients beyond the
        current capacity.

        Raises
        ------
        AnalysisError
            If ``n_clients`` would shrink the table.
        """
        n_clients = int(n_clients)
        if n_clients < self.n_clients:
            raise AnalysisError(
                f"cannot shrink the client space from {self.n_clients} "
                f"to {n_clients}")
        if n_clients == self.n_clients:
            return
        extra = n_clients - self.n_clients
        self._open = np.concatenate(
            [self._open, np.zeros(extra, dtype=bool)])
        self._session_start = np.concatenate(
            [self._session_start, np.zeros(extra, dtype=np.float64)])
        self._run_max = np.concatenate(
            [self._run_max, np.full(extra, -np.inf, dtype=np.float64)])
        self._count = np.concatenate(
            [self._count, np.zeros(extra, dtype=np.int64)])
        self._client_last_start = np.concatenate(
            [self._client_last_start, np.zeros(extra, dtype=np.float64)])
        self.n_clients = n_clients

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def push_batch(self, batch: "TransferBatch", *,
                   evict: bool = True) -> FinalizedSessions:
        """Consume one :class:`~repro.stream.generate.TransferBatch`.

        With ``evict``, the batch's horizon retires provably closed
        sessions.
        """
        return self.push(batch.client_index, batch.start, batch.duration,
                         horizon=batch.horizon if evict else None)

    def push(self, client_index: IntArray, start: FloatArray,
             duration: FloatArray, *,
             horizon: float | None = None) -> FinalizedSessions:
        """Consume one start-ordered batch; returns sessions finalized now.

        Parameters
        ----------
        client_index, start, duration:
            The batch's transfer columns.  ``start`` must be
            non-decreasing within the batch and across batches (the
            global trace order).
        horizon:
            Optional promise that all future transfers start at or after
            this value; open sessions it provably closes are finalized
            and returned (their content is unaffected — eviction only
            moves *when* a session is emitted).

        Raises
        ------
        AnalysisError
            If the batch violates the ordering contract or indexes
            clients out of range.
        """
        return self._push(client_index, start, duration, horizon)[0]

    def push_with_gaps(self, client_index: IntArray, start: FloatArray,
                       duration: FloatArray, *,
                       horizon: float | None = None
                       ) -> tuple[FinalizedSessions, FloatArray]:
        """:meth:`push`, also returning the batch's intra-session gaps.

        Returns ``(finalized, gaps)``.  ``gaps`` holds, for every
        transfer of the batch that continues a session (its own batch's
        or one carried over), the time since the start of the client's
        previous transfer, grouped by client.  Concatenated over a
        stream they are, as a multiset,
        :meth:`repro.core.sessionizer.Sessions.intra_session_interarrivals`
        of the whole trace, for any batching and horizons.
        """
        finalized, s, boundary, firsts, carried_start = self._push(
            client_index, start, duration, horizon)
        prev = np.empty(s.size, dtype=np.float64)
        prev[1:] = s[:-1]
        # Where no session was carried, the first position is a boundary.
        prev[firsts] = carried_start
        keep = ~boundary
        return finalized, s[keep] - prev[keep]

    def _push(self, client_index: IntArray, start: FloatArray,
              duration: FloatArray, horizon: float | None
              ) -> tuple[FinalizedSessions, FloatArray, NDArray[np.bool_],
                         IntArray, FloatArray]:
        """:meth:`push`, also returning the client-sorted batch view.

        The extra values are the batch starts in ``(client, start)``
        order, the session-boundary mask over them, each client
        segment's first position, and each segment's carried last start
        from before the batch.
        """
        client = np.asarray(client_index, dtype=np.int64)
        start = np.asarray(start, dtype=np.float64)
        duration = np.asarray(duration, dtype=np.float64)
        n = start.size
        if client.size != n or duration.size != n:
            raise AnalysisError("batch columns must have equal lengths")
        if n == 0:
            if horizon is None:
                result = _empty_finalized()
            else:
                result = self._evict(horizon)
                self.n_finalized += result.n_sessions
            return (result, start, np.zeros(0, dtype=bool),
                    np.zeros(0, dtype=np.int64), start)
        if np.any(np.diff(start) < 0):
            raise AnalysisError("batch starts must be non-decreasing")
        if start[0] < self._last_start:
            raise AnalysisError(
                "batches must arrive in global start order "
                f"(got start {start[0]!r} after {self._last_start!r})")
        if client.min() < 0 or client.max() >= self.n_clients:
            raise AnalysisError("client_index out of range")
        self._last_start = float(start[-1])
        self.n_transfers += n

        # Group the batch by client exactly like the batch sessionizer;
        # the batch is start-sorted, so this is (client, start) order.
        order = stable_client_order(client, self.n_clients)
        c = client[order]
        s = start[order]
        e = duration[order]
        e += s

        firsts = np.concatenate(
            ([0], np.flatnonzero(c[1:] != c[:-1]) + 1)).astype(np.int64)
        seg_end = np.concatenate((firsts[1:], [n])).astype(np.int64)
        seg_client = c[firsts]

        # The running max of an open session carries over; a client
        # with no open session carries -inf (its first gap is +inf).
        carried_open = self._open[seg_client]
        carried_run = np.where(carried_open, self._run_max[seg_client],
                               -np.inf)
        gaps, true_run = silence_gaps_sorted(s, e, firsts, carried_run)
        boundary = gaps > self.timeout
        bpos = np.flatnonzero(boundary)

        # Which segments contain a boundary, and where their first one is.
        first_b = np.searchsorted(bpos, firsts, side="left")
        has_b = np.zeros(firsts.size, dtype=bool)
        in_range = first_b < bpos.size
        has_b[in_range] = (bpos[first_b[in_range]]
                           < seg_end[in_range])

        parts: list[FinalizedSessions] = []

        # (a) Carried sessions closed by this batch's first boundary.
        carried_close = carried_open & has_b
        if np.any(carried_close):
            f = firsts[carried_close]
            p = bpos[first_b[carried_close]]
            cl = seg_client[carried_close]
            prev = true_run[np.maximum(p - 1, 0)]
            end_val = np.where(p > f, prev, self._run_max[cl])
            parts.append(FinalizedSessions(
                client_index=cl.copy(),
                start=self._session_start[cl].copy(),
                end=end_val,
                n_transfers=self._count[cl] + (p - f),
            ))

        # (b) Sessions fully inside the batch: a boundary followed by
        # another boundary of the same client segment.
        if bpos.size:
            seg_of_b = np.searchsorted(firsts, bpos, side="right") - 1
            closes = np.zeros(bpos.size, dtype=bool)
            closes[:-1] = seg_of_b[1:] == seg_of_b[:-1]
            j = np.flatnonzero(closes)
            if j.size:
                p0 = bpos[j]
                p1 = bpos[j + 1]
                parts.append(FinalizedSessions(
                    client_index=c[p0],
                    start=s[p0],
                    end=true_run[p1 - 1],
                    n_transfers=(p1 - p0).astype(np.int64),
                ))

        # (c) Update the open-session table.
        # Segments whose last boundary opens a fresh session...
        opened = np.flatnonzero(has_b)
        if opened.size:
            last_b = np.searchsorted(bpos, seg_end[opened],
                                     side="left") - 1
            p_star = bpos[last_b]
            cl = seg_client[opened]
            self._open[cl] = True
            self._session_start[cl] = s[p_star]
            self._count[cl] = seg_end[opened] - p_star
        # ...and segments that only extend their carried session.
        extended = np.flatnonzero(carried_open & ~has_b)
        if extended.size:
            cl = seg_client[extended]
            self._count[cl] += seg_end[extended] - firsts[extended]
        # Every touched segment's running max and last start advance.
        self._run_max[seg_client] = true_run[seg_end - 1]
        carried_start = self._client_last_start[seg_client]
        self._client_last_start[seg_client] = s[seg_end - 1]

        self.peak_open = max(self.peak_open, self.n_open)
        if horizon is not None:
            parts.append(self._evict(horizon))
        result = merge_parts(parts)
        self.n_finalized += result.n_sessions
        return result, s, boundary, firsts, carried_start

    def _evict(self, horizon: float) -> FinalizedSessions:
        """Finalize open sessions no future transfer can continue."""
        evict = self._open & ((horizon - self._run_max) > self.timeout)
        idx = np.flatnonzero(evict)
        if idx.size == 0:
            return _empty_finalized()
        self._open[idx] = False
        return FinalizedSessions(
            client_index=idx.astype(np.int64),
            start=self._session_start[idx].copy(),
            end=self._run_max[idx].copy(),
            n_transfers=self._count[idx].copy(),
        )

    def finish(self) -> FinalizedSessions:
        """Finalize every still-open session (the stream has ended)."""
        result = self._evict(np.inf)
        self.n_finalized += result.n_sessions
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"OnlineSessionizer(n_open={self.n_open}, "
                f"n_finalized={self.n_finalized}, "
                f"timeout={self.timeout:.0f}s)")


def merge_parts(parts: Sequence[FinalizedSessions]) -> FinalizedSessions:
    """Concatenate finalized batches *without* re-sorting.

    Used for the per-push return value, where emission order (carried
    closures, internal sessions, evictions) is deterministic but not the
    canonical session order; use :func:`merge_finalized` to obtain the
    canonical ``(client, start)`` numbering.
    """
    if not parts:
        return _empty_finalized()
    if len(parts) == 1:
        return parts[0]
    return FinalizedSessions(
        client_index=np.concatenate([p.client_index for p in parts]),
        start=np.concatenate([p.start for p in parts]),
        end=np.concatenate([p.end for p in parts]),
        n_transfers=np.concatenate([p.n_transfers for p in parts]),
    )
