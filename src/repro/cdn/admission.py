"""Per-edge admission control: exact, vectorized where it matters.

An edge admits a request iff, at the request's start instant, its
admitted active-transfer count is below ``max_connections`` *and* the
admitted bandwidth plus the request's own stays within the bandwidth
cap.  Rejected requests vanish — for live content a rejection is a
denial, not a deferral (Section 1) — so they free nothing later.

That process is sequential by nature: every decision depends on all
earlier ones.  The obvious event-loop implementation (the test suite's
``sequential_reference`` in ``tests/unit/cdn/test_admission.py``) costs
one Python step per event, which is unusable at paper scale.  This
module gets the identical answer with numpy doing almost all the work:

1. **Exact upper bounds, vectorized.**  For each request, compute the
   worst-case active count and bandwidth it could possibly observe —
   the values assuming *every* earlier request was admitted — from
   sorted-column prefix sums and ``searchsorted``.  Bandwidth is
   accounted in whole bits per second (:func:`~repro.cdn.topology.
   quantize_bandwidth`), so every bound is integer arithmetic: no float
   drift, no ordering ambiguity.  The end column is sorted once per
   call; every later end ordering is a stable filter of that one.
2. **Short circuit.**  A request whose worst-case bounds already fit
   under the caps is admitted no matter what anyone else does (the true
   active set is a subset of the worst-case one).  In a provisioned
   deployment that is almost everyone; an uncontended edge never enters
   a Python loop at all.
3. **Sweep only the contended residue.**  The remaining "risky"
   requests are decided by a sequential loop over the risky arrivals
   alone.  The guaranteed-admitted background never changes, so each
   arrival's *slack* — the cap minus the background's active count,
   and the bandwidth cap minus the background's rate and the
   request's own — is a precomputed vectorized column, and the loop
   body is two integer comparisons against the risky requests' live
   totals.  Risky completions are consumed by a pointer over the
   end-ordered occupying risky requests; a ``searchsorted`` gives how
   many of them are done by each arrival, counting completions at
   exactly the arrival instant (completions free capacity before
   same-instant arrivals, which are decided in trace order — the
   reference event loop's tie-breaking).  Columns reach Python in
   fixed-size blocks, so the loop's object working set is bounded by
   the block, not by the edge's request count.

The decomposition is a pure function of the request columns and the
caps, so results are bit-identical across processes, worker counts, and
chunkings — the property the planner's sharded sweep rests on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .._typing import FloatArray, IntArray
from ..errors import CdnError

BoolArray = npt.NDArray[np.bool_]

#: Risky arrivals and completions reach Python this many at a time.
_BLOCK = 1 << 14


@dataclass(frozen=True)
class AdmissionOutcome:
    """The admission decision for one edge's chronological request column.

    Attributes
    ----------
    admitted:
        Per-request admission mask, parallel to the input columns.
    peak_connections:
        Largest admitted simultaneous transfer count.
    peak_bandwidth_bps:
        Largest admitted summed bandwidth (whole bits per second).
    n_swept:
        Requests that needed the sequential sweep (0 means the edge
        was decided entirely by the vectorized bounds).
    """

    admitted: BoolArray
    peak_connections: int
    peak_bandwidth_bps: int
    n_swept: int

    @property
    def n_admitted(self) -> int:
        """Number of admitted requests."""
        return int(np.count_nonzero(self.admitted))

    @property
    def n_rejected(self) -> int:
        """Number of rejected requests."""
        return int(self.admitted.size) - self.n_admitted


def active_peaks(start: FloatArray, end: FloatArray,
                  rate: IntArray) -> tuple[int, int]:
    """Exact peak concurrency and peak summed rate of an interval set.

    Completions are processed before arrivals at equal times (intervals
    are half-open ``[start, end)``), matching the admission sweep.
    Rates are non-negative, so both peaks are reached just after an
    arrival: the active total there is the arrivals so far minus the
    intervals ended at or before that instant.
    """
    keep = end > start
    start, end, rate = start[keep], end[keep], rate[keep]
    n = start.size
    if n == 0:
        return 0, 0
    start_order = np.argsort(start, kind="stable")
    end_order = np.argsort(end, kind="stable")
    ended = np.searchsorted(end[end_order], start[start_order],
                            side="right")
    peak_conn = int((np.arange(1, n + 1) - ended).max())
    ended_rate = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(rate[end_order])])
    peak_rate = int((np.cumsum(rate[start_order])
                     - ended_rate[ended]).max())
    return peak_conn, peak_rate


def admit_requests(start: FloatArray, duration: FloatArray,
                   bandwidth_bps: IntArray, *,
                   max_connections: int | None = None,
                   bandwidth_cap_bps: int | None = None,
                   carry_end: FloatArray | None = None,
                   carry_rate: IntArray | None = None
                   ) -> AdmissionOutcome:
    """Decide admission for one edge's requests, in chronological order.

    Parameters
    ----------
    start:
        Request start times, non-decreasing (ties keep input order —
        the order the requests would reach the edge).
    duration:
        Request durations (non-negative; zero-duration requests are
        decided against the caps but never occupy capacity).
    bandwidth_bps:
        Integer per-request bandwidth (whole bits per second, see
        :func:`~repro.cdn.topology.quantize_bandwidth`).
    max_connections, bandwidth_cap_bps:
        The edge's capacities; ``None`` disables a check.
    carry_end, carry_rate:
        Transfers already being served when the window opens (admitted
        in an earlier epoch, see :mod:`repro.cdn.engine`): their end
        times and integer bandwidths.  They occupy capacity from before
        the first request until their end and are never re-decided.

    Raises
    ------
    CdnError
        If the start column is not sorted or column lengths disagree.
    """
    start = np.asarray(start, dtype=np.float64)
    duration = np.asarray(duration, dtype=np.float64)
    rate = np.asarray(bandwidth_bps, dtype=np.int64)
    carry_end = np.asarray(
        np.zeros(0) if carry_end is None else carry_end, dtype=np.float64)
    carry_rate = np.asarray(
        np.zeros(0) if carry_rate is None else carry_rate, dtype=np.int64)
    admitted, n_swept = decide_admission(
        start, duration, rate, max_connections=max_connections,
        bandwidth_cap_bps=bandwidth_cap_bps, carry_end=carry_end,
        carry_rate=carry_rate)
    # Peaks cover the admitted requests plus the carried transfers,
    # which have been active since before the window opened.
    peak_conn, peak_rate = active_peaks(
        np.concatenate([start[admitted], np.full(carry_end.size, -np.inf)]),
        np.concatenate([start[admitted] + duration[admitted], carry_end]),
        np.concatenate([rate[admitted], carry_rate]))
    return AdmissionOutcome(admitted=admitted, peak_connections=peak_conn,
                            peak_bandwidth_bps=peak_rate, n_swept=n_swept)


def decide_admission(start: FloatArray, duration: FloatArray,
                     rate: IntArray, *, max_connections: int | None,
                     bandwidth_cap_bps: int | None, carry_end: FloatArray,
                     carry_rate: IntArray) -> tuple[BoolArray, int]:
    """The decision half of :func:`admit_requests`, without the peaks.

    Takes float64/int64 columns as :func:`admit_requests` describes
    them and returns the admission mask and the number of requests the
    sequential sweep decided.

    Raises
    ------
    CdnError
        If the start column is not sorted or column lengths disagree.
    """
    n = start.size
    if duration.size != n or rate.size != n:
        raise CdnError(
            f"request columns disagree: {n} starts, {duration.size} "
            f"durations, {rate.size} bandwidths")
    if n and np.any(np.diff(start) < 0):
        raise CdnError("request starts must be non-decreasing")
    if carry_end.size != carry_rate.size:
        raise CdnError(
            f"carry columns disagree: {carry_end.size} ends, "
            f"{carry_rate.size} bandwidths")
    admitted = np.ones(n, dtype=np.bool_)
    if n == 0 or (max_connections is None and bandwidth_cap_bps is None):
        return admitted, 0

    end = start + duration
    occupies = duration > 0

    # Carried transfers active at each request's start: those whose end
    # is strictly after it (ends at exactly t free capacity before
    # arrivals at t, like everything else).
    carry_order = np.argsort(carry_end, kind="stable")
    carry_done = np.searchsorted(carry_end[carry_order], start, side="right")
    carry_active = carry_end.size - carry_done
    carry_cumsum = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(carry_rate[carry_order])])
    carry_rate_active = int(carry_cumsum[-1]) - carry_cumsum[carry_done]

    # Worst-case bounds per request, assuming everyone earlier was
    # admitted.  Prefix counts/sums over the start-ordered column give
    # the contributions of earlier arrivals; the end-ordered occupying
    # requests give the departures at or before each start (completions
    # at exactly t free capacity before arrivals at t).  Zero-duration
    # requests never occupy, so they are excluded from both sides.
    occ_prefix = np.cumsum(occupies) - occupies          # earlier arrivals
    rate_occ = np.where(occupies, rate, 0)
    rate_prefix = np.cumsum(rate_occ) - rate_occ
    occ_ids = np.flatnonzero(occupies)
    end_order = occ_ids[np.argsort(end[occ_ids], kind="stable")]
    ended_before = np.searchsorted(end[end_order], start, side="right")
    rate_end_cumsum = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(rate[end_order])])

    worst_active = occ_prefix - ended_before + carry_active
    worst_rate = (rate_prefix - rate_end_cumsum[ended_before] + rate
                  + carry_rate_active)

    risky = np.zeros(n, dtype=np.bool_)
    if max_connections is not None:
        risky |= worst_active >= max_connections
    if bandwidth_cap_bps is not None:
        risky |= worst_rate > bandwidth_cap_bps
    n_risky = int(np.count_nonzero(risky))
    if n_risky:
        admitted[risky] = _sweep_risky(
            risky, end_order, start, end, rate, occupies, worst_active,
            worst_rate, max_connections=max_connections,
            bandwidth_cap_bps=bandwidth_cap_bps)
    return admitted, n_risky


def _sweep_risky(risky: BoolArray, end_order: IntArray,
                 start: FloatArray, end: FloatArray, rate: IntArray,
                 occupies: BoolArray, worst_active: IntArray,
                 worst_rate: IntArray, *, max_connections: int | None,
                 bandwidth_cap_bps: int | None) -> BoolArray:
    """Sequentially decide the risky requests, in exact event order.

    ``end_order`` lists the occupying requests by end time.  A risky
    arrival's worst case counts every earlier risky request still
    running; the background (everything else, all admitted) is that
    worst case minus the risky requests' own share, which the loop
    tracks live as ``active``/``active_rate`` since risky admissions are
    what is being decided.  Returns the risky requests' decisions, in
    request order.
    """
    risky_ids = np.flatnonzero(risky)
    m = risky_ids.size
    # The occupying risky requests by end: a stable filter of the
    # single end order, held as risky positions.
    risky_end_order = end_order[risky[end_order]]
    comp_pos = (np.cumsum(risky) - 1)[risky_end_order]
    comp_rate = rate[risky_end_order]
    n_comp = comp_pos.size
    r_occ = occupies[risky_ids]
    r_rate_occ = np.where(r_occ, rate[risky_ids], 0)
    # Risky completions at or before each risky arrival.
    done = np.searchsorted(end[risky_end_order], start[risky_ids],
                           side="right")
    r_rate_ended = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(comp_rate)])[done]
    # Earlier risky requests still running at each arrival, by count
    # and by rate: their worst-case share.
    r_active = np.cumsum(r_occ) - r_occ - done
    r_rate_active = np.cumsum(r_rate_occ) - r_rate_occ - r_rate_ended
    # Admit iff active < conn_slack and active_rate <= rate_slack.
    conn_slack = (
        np.full(m, m + 1, dtype=np.int64) if max_connections is None
        else max_connections - (worst_active[risky_ids] - r_active))
    rate_slack = (
        np.full(m, np.iinfo(np.int64).max, dtype=np.int64)
        if bandwidth_cap_bps is None
        else bandwidth_cap_bps - (worst_rate[risky_ids] - r_rate_active))

    flags = bytearray(m)
    active = 0
    active_rate = 0
    p = 0                   # completions consumed
    c_lo = c_hi = 0         # completion block held as lists
    c_pos: list[int] = []
    c_rate: list[int] = []
    for lo in range(0, m, _BLOCK):
        hi = min(lo + _BLOCK, m)
        block = zip(conn_slack[lo:hi].tolist(), rate_slack[lo:hi].tolist(),
                    done[lo:hi].tolist(), r_occ[lo:hi].tolist(),
                    r_rate_occ[lo:hi].tolist(), strict=True)
        for k, (c_slack, r_slack, d, occ, r) in enumerate(block, lo):
            while p < d:
                if p == c_hi:
                    c_lo, c_hi = p, min(p + _BLOCK, n_comp)
                    c_pos = comp_pos[c_lo:c_hi].tolist()
                    c_rate = comp_rate[c_lo:c_hi].tolist()
                if flags[c_pos[p - c_lo]]:
                    active -= 1
                    active_rate -= c_rate[p - c_lo]
                p += 1
            if active < c_slack and active_rate <= r_slack:
                flags[k] = 1
                active += occ
                active_rate += r
    return np.frombuffer(flags, dtype=np.bool_)
