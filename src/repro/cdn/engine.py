"""Two-tier delivery simulation: assignment + admission over epochs.

:func:`simulate_cdn` runs a generated workload through an origin/edge
hierarchy: every transfer is assigned to an edge, offered to that edge's
admission control, and — when a failure plan kills its edge mid-show —
handed over to a survivor as a failover request.

The run is structured by the failure plan's **epochs** (maximal windows
with a constant alive-edge set, :meth:`~repro.cdn.failures.FailurePlan.
epochs`).  Within an epoch the static policies are fully vectorized:
hash assignment maps the whole transfer column at once, and each edge
decides its requests through the hybrid admission engine
(:func:`~repro.cdn.admission.decide_admission`) with the legs admitted
in earlier epochs carried in as occupied capacity.  One edge call sorts
its end column once, and only the contended ("risky") arrivals reach
the sequential sweep: a loop over precomputed slack columns, fed to
Python in fixed-size blocks so its memory is bounded by the block.  The
engine takes the decision alone; peak loads are reduced once, from the
finished legs (:func:`~repro.cdn.report.build_result`).  At an epoch
boundary, admitted legs on dying edges are truncated and re-enter the
next epoch as failover requests — re-hashed over the survivors, decided
*before* fresh arrivals at the same instant, and counted as rejections
when the survivor is full (flash-crowd failover).

``least-loaded`` is the deliberate exception: its assignment depends on
every earlier admission, so it runs as a sequential event sweep.  It is
exact and deterministic, but O(n) Python — use the static policies for
paper-scale sweeps.

Event-order contract shared by both paths (and checked against the
test suite's ``sequential_reference``): at any instant, completions free
capacity first, then failover handovers reconnect, then fresh arrivals
are decided, each group in trace order.  The whole run is a pure
function of ``(trace, topology, policy, failures)`` — bit-identical
across processes and worker counts.
"""

from __future__ import annotations

import numpy as np

from .._typing import FloatArray, IntArray
from ..trace.store import Trace
from .admission import decide_admission
from .assignment import (
    STATIC_POLICIES,
    assign_static,
    assignment_keys,
    validate_policy,
)
from .failures import Epoch, FailurePlan
from .report import CdnResult, LegSet, build_result
from .topology import CdnTopology, quantize_bandwidth

__all__ = ["simulate_cdn"]


def simulate_cdn(trace: Trace, topology: CdnTopology, *,
                 policy: str = "as-hash",
                 failures: FailurePlan | None = None,
                 step: float = 60.0) -> CdnResult:
    """Simulate delivering ``trace`` through ``topology``.

    Parameters
    ----------
    trace:
        The workload (start-sorted transfer columns).
    topology:
        Edge capacities and the origin stream rate.
    policy:
        Client->edge assignment policy (:data:`~repro.cdn.assignment.
        POLICIES`).
    failures:
        Edge-failure scenario; ``None`` keeps every edge up.
    step:
        Sampling period of the per-edge ``c(t)`` grids in seconds.
    """
    validate_policy(policy)
    plan = failures if failures is not None else FailurePlan()
    epochs = plan.epochs(topology.n_edges)
    # Transfers without a bandwidth annotation (synthetic GISMO traces
    # record none) are accounted at the origin encoding rate — a live
    # viewer consumes the stream's encoding bandwidth — so bandwidth
    # admission and capacity planning stay meaningful for generated
    # workloads.
    rate = quantize_bandwidth(np.where(
        trace.bandwidth_bps > 0, trace.bandwidth_bps,
        topology.origin_stream_bps))
    if policy in STATIC_POLICIES:
        legs = _run_static(trace, topology, policy, epochs, rate)
    else:
        legs = _run_least_loaded(trace, topology, epochs, rate)
    return build_result(trace, topology, policy, legs, step=step)


def _leg_arrays(tid: IntArray, start: FloatArray, end: FloatArray,
                edge: IntArray, rate: IntArray, admitted: bool,
                failover: bool) -> LegSet:
    n = tid.size
    return LegSet(
        transfer=np.asarray(tid, dtype=np.int64),
        start=np.asarray(start, dtype=np.float64),
        end=np.asarray(end, dtype=np.float64),
        edge=np.asarray(edge, dtype=np.int64),
        rate=np.asarray(rate, dtype=np.int64),
        admitted=np.full(n, admitted, dtype=np.bool_),
        failover=np.full(n, failover, dtype=np.bool_),
    )


def _run_static(trace: Trace, topology: CdnTopology, policy: str,
                epochs: tuple[Epoch, ...], rate: IntArray) -> LegSet:
    """Epoch-vectorized run for the hash-assignment policies."""
    keys = assignment_keys(trace, policy)
    t_start = trace.start
    t_end = trace.end
    bounds = np.asarray([ep.t_hi for ep in epochs[:-1]], dtype=np.float64)
    epoch_of = np.searchsorted(bounds, t_start, side="right")

    parts: list[LegSet] = []
    # Open legs: admitted, still running, edge still alive.  A leg's
    # end is its transfer's natural end until a failure truncates it.
    open_tid = np.zeros(0, dtype=np.int64)
    open_start = np.zeros(0)
    open_edge = np.zeros(0, dtype=np.int64)
    open_fo = np.zeros(0, dtype=np.bool_)
    # Failover requests created at the previous boundary, by transfer.
    pending = np.zeros(0, dtype=np.int64)

    for k, epoch in enumerate(epochs):
        fresh = np.flatnonzero(epoch_of == k)
        req_tid = np.concatenate([pending, fresh])
        req_fo = np.zeros(req_tid.size, dtype=np.bool_)
        req_fo[:pending.size] = True
        req_start = np.concatenate(
            [np.full(pending.size, epoch.t_lo), t_start[fresh]])
        req_edge = (assign_static(keys[req_tid], epoch.alive)
                    if req_tid.size else np.zeros(0, dtype=np.int64))

        new_tid: list[IntArray] = []
        new_start: list[FloatArray] = []
        new_edge: list[IntArray] = []
        new_fo: list[np.ndarray] = []
        for edge_id in epoch.alive.tolist():
            sel = req_edge == edge_id
            if not np.any(sel):
                continue
            r_tid = req_tid[sel]
            r_start = req_start[sel]
            r_end = t_end[r_tid]
            carry = open_edge == edge_id
            config = topology.edges[edge_id]
            adm, _ = decide_admission(
                r_start, r_end - r_start, rate[r_tid],
                max_connections=config.max_connections,
                bandwidth_cap_bps=config.bandwidth_cap_bps,
                carry_end=t_end[open_tid[carry]],
                carry_rate=rate[open_tid[carry]])
            if not np.all(adm):
                rej = ~adm
                parts.append(LegSet(
                    transfer=r_tid[rej], start=r_start[rej],
                    end=r_start[rej],
                    edge=np.full(int(rej.sum()), edge_id, dtype=np.int64),
                    rate=rate[r_tid[rej]],
                    admitted=np.zeros(int(rej.sum()), dtype=np.bool_),
                    failover=req_fo[sel][rej]))
            new_tid.append(r_tid[adm])
            new_start.append(r_start[adm])
            new_edge.append(np.full(int(adm.sum()), edge_id,
                                    dtype=np.int64))
            new_fo.append(req_fo[sel][adm])

        if new_tid:
            open_tid = np.concatenate([open_tid] + new_tid)
            open_start = np.concatenate([open_start] + new_start)
            open_edge = np.concatenate([open_edge] + new_edge)
            open_fo = np.concatenate([open_fo] + new_fo)

        if epoch.closes:
            # Legs whose transfer ends within the epoch close naturally.
            done = t_end[open_tid] <= epoch.t_hi
            if np.any(done):
                parts.append(LegSet(
                    transfer=open_tid[done], start=open_start[done],
                    end=t_end[open_tid[done]], edge=open_edge[done],
                    rate=rate[open_tid[done]],
                    admitted=np.ones(int(done.sum()), dtype=np.bool_),
                    failover=open_fo[done]))
                keep = ~done
                open_tid, open_start = open_tid[keep], open_start[keep]
                open_edge, open_fo = open_edge[keep], open_fo[keep]
            # Legs on dying edges truncate and fail over.
            dying = ~np.isin(open_edge, epochs[k + 1].alive)
            if np.any(dying):
                parts.append(LegSet(
                    transfer=open_tid[dying], start=open_start[dying],
                    end=np.full(int(dying.sum()), epoch.t_hi),
                    edge=open_edge[dying], rate=rate[open_tid[dying]],
                    admitted=np.ones(int(dying.sum()), dtype=np.bool_),
                    failover=open_fo[dying]))
                pending = np.sort(open_tid[dying], kind="stable")
                keep = ~dying
                open_tid, open_start = open_tid[keep], open_start[keep]
                open_edge, open_fo = open_edge[keep], open_fo[keep]
            else:
                pending = np.zeros(0, dtype=np.int64)
        elif open_tid.size:
            parts.append(LegSet(
                transfer=open_tid, start=open_start,
                end=t_end[open_tid], edge=open_edge,
                rate=rate[open_tid],
                admitted=np.ones(open_tid.size, dtype=np.bool_),
                failover=open_fo))

    return LegSet.concatenate(parts)


#: Event kinds of the least-loaded sweep, in processing order at equal
#: times: completions free capacity, then the boundary hands dying
#: edges' clients over, then fresh arrivals are decided.
_EV_END, _EV_BOUNDARY, _EV_ARRIVAL = 0, 1, 2


def _run_least_loaded(trace: Trace, topology: CdnTopology,
                      epochs: tuple[Epoch, ...], rate: IntArray) -> LegSet:
    """Sequential event sweep for the dynamic policy.

    Each request goes to the alive edge with the fewest admitted active
    transfers (ties toward the lowest edge id) — a decision that depends
    on every earlier admission, which is why this path is a Python loop
    rather than a vectorized pass.
    """
    n = len(trace)
    t_start = trace.start
    t_end = trace.end
    n_edges = topology.n_edges
    max_conn = [e.max_connections for e in topology.edges]
    bw_cap = [e.bandwidth_cap_bps for e in topology.edges]

    n_bounds = len(epochs) - 1
    ev_times = np.concatenate(
        [t_end, np.asarray([ep.t_hi for ep in epochs[:-1]]), t_start])
    ev_kinds = np.concatenate(
        [np.full(n, _EV_END, dtype=np.int8),
         np.full(n_bounds, _EV_BOUNDARY, dtype=np.int8),
         np.full(n, _EV_ARRIVAL, dtype=np.int8)])
    ev_ids = np.concatenate(
        [np.arange(n, dtype=np.int64),
         np.arange(1, n_bounds + 1, dtype=np.int64),
         np.arange(n, dtype=np.int64)])
    order = np.lexsort((ev_ids, ev_kinds, ev_times))

    counts = [0] * n_edges
    loads = [0] * n_edges
    active: list[set[int]] = [set() for _ in range(n_edges)]
    alive = epochs[0].alive.tolist()
    cur_edge = np.full(n, -1, dtype=np.int64)
    leg_start = np.zeros(n)
    rates = rate.tolist()
    starts = t_start.tolist()
    ends = t_end.tolist()

    out_tid: list[int] = []
    out_start: list[float] = []
    out_end: list[float] = []
    out_edge: list[int] = []
    out_adm: list[bool] = []
    out_fo: list[bool] = []

    def record(tid: int, s: float, e: float, edge: int, admitted: bool,
               failover: bool) -> None:
        out_tid.append(tid)
        out_start.append(s)
        out_end.append(e)
        out_edge.append(edge)
        out_adm.append(admitted)
        out_fo.append(failover)

    def offer(tid: int, at: float, failover: bool) -> None:
        edge = min(alive, key=lambda e: (counts[e], e))
        r = rates[tid]
        ok = ((max_conn[edge] is None or counts[edge] < max_conn[edge])
              and (bw_cap[edge] is None or loads[edge] + r <= bw_cap[edge]))
        if not ok:
            record(tid, at, at, edge, False, failover)
            return
        if ends[tid] <= at:
            # Nothing left to serve (zero-length transfer, or a failover
            # landing exactly at its end): admitted, occupies nothing.
            record(tid, at, at, edge, True, failover)
            return
        counts[edge] += 1
        loads[edge] += r
        active[edge].add(tid)
        cur_edge[tid] = edge
        leg_start[tid] = at
        if failover:
            # The handover leg is recorded when it closes; remember it
            # was a failover by tagging via a negative marker set.
            failover_live.add(tid)

    failover_live: set[int] = set()

    def close(tid: int, at: float) -> None:
        edge = int(cur_edge[tid])
        counts[edge] -= 1
        loads[edge] -= rates[tid]
        active[edge].discard(tid)
        cur_edge[tid] = -1
        record(tid, float(leg_start[tid]), at, edge, True,
               tid in failover_live)
        failover_live.discard(tid)

    times = ev_times[order].tolist()
    kinds = ev_kinds[order].tolist()
    ids = ev_ids[order].tolist()
    for at, kind, ev in zip(times, kinds, ids, strict=True):
        if kind == _EV_END:
            if cur_edge[ev] >= 0:
                close(ev, at)
        elif kind == _EV_ARRIVAL:
            offer(ev, max(at, 0.0), False)
        else:
            alive = epochs[ev].alive.tolist()
            alive_set = set(alive)
            displaced = sorted(
                tid for e in range(n_edges) if e not in alive_set
                for tid in active[e])
            for tid in displaced:
                close(tid, at)
            for tid in displaced:
                offer(tid, at, True)

    for edge_sets in active:
        for tid in sorted(edge_sets):
            close(tid, ends[tid])

    return LegSet(
        transfer=np.asarray(out_tid, dtype=np.int64),
        start=np.asarray(out_start, dtype=np.float64),
        end=np.asarray(out_end, dtype=np.float64),
        edge=np.asarray(out_edge, dtype=np.int64),
        rate=rate[np.asarray(out_tid, dtype=np.int64)],
        admitted=np.asarray(out_adm, dtype=np.bool_),
        failover=np.asarray(out_fo, dtype=np.bool_),
    )
