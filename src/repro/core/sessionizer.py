"""Session reconstruction from interleaved transfers.

The trace does not delimit sessions; the paper defines a client session as
a maximal interval of activity in which no period of silence (no transfer
in progress for that client) exceeds the timeout ``T_o`` (Section 2.2,
Figure 1).  With the paper's ``T_o = 1,500`` seconds the trace yields about
1.5 million sessions, and Figure 9 shows the session count flattening for
larger timeouts.

The reconstruction walks each client's transfers in start order, tracking
the running maximum of transfer end times; a new session begins whenever
the next transfer starts more than ``T_o`` after everything seen so far
has ended.  (Tracking the running maximum matters: transfers overlap —
Figure 1's two feeds — so the previous transfer's end is not the session's
latest end.)
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .._typing import FloatArray, IntArray
from ..arrayops import silence_gaps_sorted
from ..errors import AnalysisError
from ..trace.store import Trace
from ..units import DEFAULT_SESSION_TIMEOUT


def silence_gaps(trace: Trace) -> tuple[FloatArray, IntArray]:
    """Per-transfer silence gap preceding each transfer of the same client.

    Returns ``(gaps, order)`` where ``order`` sorts transfers by
    ``(client, start)`` and ``gaps[k]`` is the time between transfer
    ``order[k]``'s start and the latest end among the same client's earlier
    transfers — ``+inf`` for a client's first transfer and negative when
    transfers overlap.  Session boundaries for any timeout ``T_o`` are
    exactly the positions with ``gaps > T_o``, which is what makes the
    Figure 9 timeout sweep cheap.

    Fully vectorized: the trace's cached client grouping
    (:attr:`~repro.trace.store.Trace.client_grouping` — a stable O(n)
    radix argsort, since transfers are already start-sorted) followed by
    the silence-gap kernel :func:`repro.arrayops.silence_gaps_sorted`,
    which the online sessionizer shares.  :func:`_reference_silence_gaps`
    keeps the original per-transfer Python walk; the property suite
    asserts bit-for-bit agreement.
    """
    order, _, firsts = trace.client_grouping
    start, end = trace.client_sorted_spans
    gaps, _ = silence_gaps_sorted(start, end.copy(), firsts)
    return gaps, order


def _reference_silence_gaps(trace: Trace) -> tuple[FloatArray, IntArray]:
    """Per-transfer Python-loop formulation of :func:`silence_gaps`.

    Kept as the executable specification: the vectorized path must match
    it bit-for-bit (see ``tests/property/test_sessionizer_properties.py``).
    """
    n = len(trace)
    order = np.lexsort((trace.start, trace.client_index))
    client = trace.client_index[order]
    start = trace.start[order]
    end = start + trace.duration[order]

    starts_l = start.tolist()
    ends_l = end.tolist()
    clients_l = client.tolist()
    gaps_list = [0.0] * n
    run_max = 0.0
    prev_client = -1
    for i in range(n):
        if clients_l[i] != prev_client:
            prev_client = clients_l[i]
            run_max = ends_l[i]
            gaps_list[i] = float("inf")
        else:
            gaps_list[i] = starts_l[i] - run_max
            if ends_l[i] > run_max:
                run_max = ends_l[i]
    return np.asarray(gaps_list, dtype=np.float64), order


class Sessions:
    """The sessionization of a trace under a fixed timeout.

    Construct via :func:`sessionize`.  Sessions are numbered in
    ``(client, start)`` order; all per-session arrays are parallel.
    """

    def __init__(self, trace: Trace, timeout: float, order: IntArray,
                 boundary: np.ndarray, *,
                 _start_sorted: FloatArray | None = None,
                 _run_max: FloatArray | None = None) -> None:
        self.trace = trace
        self.timeout = float(timeout)
        self._order = order
        self._boundary = boundary  # True where a session begins (sorted order)

        if _start_sorted is not None:
            # sessionize() already gathered the (client, start)-sorted
            # start column while computing the gaps; don't gather twice.
            start_sorted = _start_sorted
        else:
            start_sorted = trace.start[order]
        self._start_sorted = start_sorted

        boundary_idx = np.nonzero(boundary)[0]
        self._boundary_idx = boundary_idx
        #: Per-session start time (its first transfer's start).
        self.session_start: FloatArray = start_sorted[boundary_idx]
        # Sorted-view position one past each session's last transfer.
        nxt = np.empty(boundary_idx.size, dtype=np.int64)
        if boundary_idx.size:
            nxt[:-1] = boundary_idx[1:]
            nxt[-1] = len(trace)
        #: Per-session end time (latest transfer end).
        if boundary_idx.size == 0:
            self.session_end: FloatArray = np.empty(0, dtype=np.float64)
        elif _run_max is not None:
            # Fast path from sessionize(): a session's first transfer
            # starts strictly after every earlier end of the same client
            # (its gap exceeds a positive timeout) and durations are
            # non-negative, so from that transfer on the per-client
            # running maximum of ends equals the running maximum within
            # the session alone — the value at the session's last
            # transfer is exactly the reduceat maximum.
            self.session_end = _run_max[nxt - 1]
        else:
            end_sorted = start_sorted + trace.duration[order]
            self.session_end = np.maximum.reduceat(end_sorted, boundary_idx)
        #: Per-session transfer count.
        self.transfers_per_session: IntArray = nxt - boundary_idx

    @cached_property
    def session_client(self) -> IntArray:
        """Per-session client index (lazy, cached on first use)."""
        return self.trace.client_index[self._order[self._boundary_idx]]

    @cached_property
    def transfer_session(self) -> IntArray:
        """Session id per transfer, aligned to *trace* order (lazy — most
        consumers only touch the per-session arrays)."""
        session_sorted = np.cumsum(self._boundary) - 1
        out = np.empty(len(self.trace), dtype=np.int64)
        out[self._order] = session_sorted
        return out

    @property
    def n_sessions(self) -> int:
        """Number of reconstructed sessions."""
        return int(self.session_start.size)

    def on_times(self) -> FloatArray:
        """Session ON times ``l(i)`` (Section 4.2)."""
        return self.session_end - self.session_start

    def off_times(self) -> FloatArray:
        """Session OFF times ``f(i)`` between a client's consecutive sessions.

        For consecutive sessions ``i, j`` of the same client the OFF time is
        ``start(j) - end(i)`` (the paper's ``t(j) - t(i) - l(i)``).  One
        value per session pair; clients with a single session contribute
        nothing.
        """
        if self.n_sessions < 2:
            return np.empty(0, dtype=np.float64)
        same_client = self.session_client[1:] == self.session_client[:-1]
        offs = self.session_start[1:] - self.session_end[:-1]
        return offs[same_client]

    def session_columns(self) -> tuple[IntArray, FloatArray, FloatArray,
                                       IntArray]:
        """The per-session ``(client, start, end, n_transfers)`` columns.

        Sessions appear in their canonical ``(client, start)`` order.  This
        is the comparison currency of the streaming pipeline: the online
        sessionizer (:class:`repro.stream.OnlineSessionizer`) must
        reproduce these four arrays bit for bit on any input, for any
        batching of the trace (see ``tests/property``).
        """
        return (self.session_client, self.session_start, self.session_end,
                self.transfers_per_session)

    def sessions_per_client(self) -> IntArray:
        """Session count per client index (length ``trace.n_clients``)."""
        return np.bincount(self.session_client,
                           minlength=self.trace.n_clients).astype(np.int64)

    def intra_session_interarrivals(self) -> FloatArray:
        """Interarrival times between consecutive transfer *starts* within
        each session (Section 4.5, Figure 14)."""
        diffs = np.diff(self._start_sorted)
        same_session = ~self._boundary[1:]
        return diffs[same_session]

    @cached_property
    def _arrivals(self) -> FloatArray:
        """``session_start`` sorted, in the bytes a stable sort gives."""
        arrivals = np.sort(self.session_start)
        # Starts are finite, so 0.0 and -0.0 are the only equal values
        # with different bits; put them back in session order.
        zero = self.session_start == 0
        if np.any(zero):
            at = int(np.searchsorted(arrivals, 0.0))
            arrivals[at:at + int(np.count_nonzero(zero))] = (
                self.session_start[zero])
        arrivals.flags.writeable = False
        return arrivals

    def arrival_times(self) -> FloatArray:
        """Session arrival times sorted ascending (the client arrival
        process of Section 3.4).

        Computed once and shared, so the array is read-only.
        """
        return self._arrivals

    def interarrival_times(self) -> FloatArray:
        """Interarrival times of consecutive session starts (Section 3.3)."""
        arrivals = self.arrival_times()
        if arrivals.size < 2:
            return np.empty(0, dtype=np.float64)
        return np.diff(arrivals)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Sessions(n_sessions={self.n_sessions}, "
                f"timeout={self.timeout:.0f}s)")


def sessionize(trace: Trace,
               timeout: float = DEFAULT_SESSION_TIMEOUT) -> Sessions:
    """Reconstruct sessions under timeout ``T_o = timeout`` (Section 2.2).

    Parameters
    ----------
    trace:
        The (sanitized) trace.
    timeout:
        The silence threshold ``T_o`` in seconds; the paper settles on
        1,500 after the Figure 9 sweep.
    """
    if timeout <= 0:
        raise AnalysisError(f"timeout must be positive, got {timeout}")
    order, _, firsts = trace.client_grouping
    start, end = trace.client_sorted_spans
    gaps, run_max = silence_gaps_sorted(start, end.copy(), firsts)
    boundary = gaps > timeout  # first-of-client has gap = +inf
    return Sessions(trace, timeout, order, boundary,
                    _start_sorted=start, _run_max=run_max)


def session_count_for_timeouts(trace: Trace,
                               timeouts: np.ndarray) -> IntArray:
    """Number of sessions for each candidate timeout (Figure 9).

    Computed from the silence gaps in one pass over the trace, then one
    comparison per timeout.
    """
    gaps, _ = silence_gaps(trace)
    timeouts = np.asarray(timeouts, dtype=np.float64)
    if timeouts.ndim != 1 or timeouts.size == 0:
        raise AnalysisError("timeouts must be a non-empty one-dimensional array")
    if timeouts.min() <= 0:
        raise AnalysisError("timeouts must be positive")
    finite_gaps = gaps[np.isfinite(gaps)]
    n_first = int(np.sum(~np.isfinite(gaps)))
    # Sessions = first-of-client boundaries + gaps exceeding the timeout.
    sorted_gaps = np.sort(finite_gaps)
    exceeding = sorted_gaps.size - np.searchsorted(sorted_gaps, timeouts,
                                                   side="right")
    return (n_first + exceeding).astype(np.int64)
