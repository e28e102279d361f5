"""SLO-driven capacity planning: sweep deployments, find the cheapest.

The paper's stated purpose is capacity planning for live delivery
infrastructure; this module closes that loop.  :func:`plan_deployment`
sweeps a grid of candidate deployments — edge counts crossed with
per-edge bandwidths — simulating the full workload through each
(:func:`~repro.cdn.engine.simulate_cdn`) and reporting, per candidate,
the rejection rate the audience would have seen.  The **frontier** is
the cheapest bandwidth meeting the rejection-rate SLO at each edge
count; the **minimal deployment** is the cheapest candidate overall,
ordering by edge count first and per-edge bandwidth second.

Candidates are independent, so the sweep shards across worker processes
via :func:`repro.parallel.map_ordered`.  Workers receive the workload
as an ``.npz`` path (tiny picklable task payloads; the trace is loaded
once per worker and cached), and results reduce in submission order —
the report is bit-identical for any ``jobs`` count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from ..errors import CdnError
from ..parallel import map_ordered
from ..trace.store import Trace
from .engine import simulate_cdn
from .failures import EdgeFailure, FailurePlan
from .topology import DEFAULT_ORIGIN_STREAM_BPS, CdnTopology


@dataclass(frozen=True)
class PlanConfig:
    """One candidate deployment: N identical edges."""

    n_edges: int
    bandwidth_bps: float | None
    max_connections: int | None

    def topology(self, *, origin_stream_bps: float
                 = DEFAULT_ORIGIN_STREAM_BPS) -> CdnTopology:
        """Materialize the candidate as a uniform :class:`CdnTopology`."""
        return CdnTopology.uniform(
            self.n_edges, max_connections=self.max_connections,
            bandwidth_bps=self.bandwidth_bps,
            origin_stream_bps=origin_stream_bps)


@dataclass(frozen=True)
class ConfigOutcome:
    """What one candidate deployment did to the workload."""

    n_edges: int
    bandwidth_bps: float | None
    max_connections: int | None
    n_requests: int
    n_rejected: int
    n_reassigned: int
    n_failover_rejected: int
    rejection_rate: float
    peak_connections: int
    peak_bandwidth_bps: int
    origin_peak_streams: int

    def meets(self, slo: float) -> bool:
        """Whether the deployment keeps rejections within the SLO."""
        return self.rejection_rate <= slo

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable view of the outcome."""
        return {
            "n_edges": self.n_edges,
            "bandwidth_bps": self.bandwidth_bps,
            "max_connections": self.max_connections,
            "n_requests": self.n_requests,
            "n_rejected": self.n_rejected,
            "n_reassigned": self.n_reassigned,
            "n_failover_rejected": self.n_failover_rejected,
            "rejection_rate": self.rejection_rate,
            "peak_connections": self.peak_connections,
            "peak_bandwidth_bps": self.peak_bandwidth_bps,
            "origin_peak_streams": self.origin_peak_streams,
        }


@dataclass(frozen=True)
class PlanReport:
    """The full sweep: every candidate, the frontier, the winner."""

    policy: str
    slo: float
    outcomes: tuple[ConfigOutcome, ...]
    frontier: tuple[ConfigOutcome, ...]
    best: ConfigOutcome | None

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable view of the whole sweep."""
        return {
            "policy": self.policy,
            "slo": self.slo,
            "n_configs": len(self.outcomes),
            "outcomes": [o.to_dict() for o in self.outcomes],
            "frontier": [o.to_dict() for o in self.frontier],
            "best": None if self.best is None else self.best.to_dict(),
        }


def parse_sweep(spec: str, *, integral: bool = False
                ) -> tuple[float, ...]:
    """Parse a CLI sweep spec: ``"a,b,c"`` or ``"lo:hi:step"``.

    A range is inclusive of ``hi`` when the step lands on it exactly.
    Raises :class:`~repro.errors.CdnError` on malformed input (empty,
    non-numeric, non-positive step, descending range, or fractional
    values when ``integral``).
    """
    spec = spec.strip()
    if not spec:
        raise CdnError("empty sweep range")
    try:
        if ":" in spec:
            pieces = spec.split(":")
            if len(pieces) != 3:
                raise CdnError(
                    f"malformed sweep range {spec!r} (expected lo:hi:step)")
            lo, hi, stride = (float(p) for p in pieces)
            if stride <= 0:
                raise CdnError(
                    f"sweep step must be positive in {spec!r}")
            if hi < lo:
                raise CdnError(
                    f"sweep range {spec!r} is descending (hi < lo)")
            count = int((hi - lo) / stride + 1e-9) + 1
            values = tuple(lo + i * stride for i in range(count))
        else:
            values = tuple(float(p) for p in spec.split(","))
    except ValueError:
        raise CdnError(
            f"malformed sweep range {spec!r} (values must be numbers)"
        ) from None
    if integral:
        for v in values:
            if v != int(v):
                raise CdnError(
                    f"sweep range {spec!r} must contain whole numbers")
        values = tuple(float(int(v)) for v in values)
    return values


def sweep_configs(edge_counts: tuple[int, ...],
                  bandwidths_bps: tuple[float, ...] | None, *,
                  max_connections: int | None = None
                  ) -> tuple[PlanConfig, ...]:
    """The candidate grid: edge counts crossed with per-edge bandwidths."""
    if not edge_counts:
        raise CdnError("the sweep needs at least one edge count")
    for count in edge_counts:
        if count < 1:
            raise CdnError(
                f"a deployment needs at least one edge, got {count}")
    bws: tuple[float | None, ...] = (
        (None,) if bandwidths_bps is None else tuple(bandwidths_bps))
    if not bws:
        raise CdnError("the sweep needs at least one bandwidth")
    return tuple(PlanConfig(n_edges=int(count), bandwidth_bps=bw,
                            max_connections=max_connections)
                 for count in sorted(edge_counts)
                 for bw in sorted(bws, key=lambda b: (b is not None, b)))


def _load_trace(path: str) -> Trace:
    """Per-process trace cache: each worker reads the .npz once.

    The cache is keyed on the file's identity, not just its path, so a
    trace rewritten in place is read afresh — also by forked workers,
    which inherit their parent's cache.
    """
    st = os.stat(path)
    return _load_trace_version(path, st.st_mtime_ns, st.st_size)


@lru_cache(maxsize=1)
def _load_trace_version(path: str, mtime_ns: int, size: int) -> Trace:
    """:func:`_load_trace`'s cache slot for one version of the file."""
    return Trace.load_npz(path)


#: Picklable sweep task: (trace path, n_edges, bandwidth, max_conn,
#: policy, step, failure tuples, origin stream rate).
_PlanTask = tuple[str, int, "float | None", "int | None", str, float,
                  tuple[tuple[int, float, "float | None"], ...], float]

#: Worker result row: (requests, rejected, reassigned,
#: failover-rejected, rejection rate, peak conns, peak bw, peak streams).
_PlanRow = tuple[int, int, int, int, float, int, int, int]


def _evaluate_config(task: _PlanTask) -> _PlanRow:
    """Worker: simulate one candidate deployment (picklable task)."""
    (trace_path, n_edges, bandwidth_bps, max_connections, policy, step,
     failure_specs, origin_bps) = task
    trace = _load_trace(trace_path)
    config = PlanConfig(n_edges=n_edges, bandwidth_bps=bandwidth_bps,
                        max_connections=max_connections)
    plan = FailurePlan(tuple(
        EdgeFailure(edge=e, at=at, until=until)
        for e, at, until in failure_specs))
    result = simulate_cdn(
        trace, config.topology(origin_stream_bps=origin_bps),
        policy=policy, failures=plan, step=step)
    return (result.n_requests, result.n_rejected, result.n_reassigned,
            result.n_failover_rejected, result.rejection_rate,
            max(e.peak_connections for e in result.edges),
            max(e.peak_bandwidth_bps for e in result.edges),
            result.origin.peak_streams)


def plan_deployment(trace_path: str | Path, *,
                    policy: str = "as-hash",
                    slo: float = 0.01,
                    edge_counts: tuple[int, ...],
                    bandwidths_bps: tuple[float, ...] | None = None,
                    max_connections: int | None = None,
                    failures: FailurePlan | None = None,
                    step: float = 60.0,
                    jobs: int = 1,
                    origin_stream_bps: float = DEFAULT_ORIGIN_STREAM_BPS
                    ) -> PlanReport:
    """Sweep candidate deployments and find the minimal one meeting ``slo``.

    Parameters
    ----------
    trace_path:
        The workload as a saved ``.npz`` trace (a path so worker
        processes can load it independently of the parent).
    policy, failures, step, origin_stream_bps:
        Forwarded to :func:`~repro.cdn.engine.simulate_cdn`.
    slo:
        Maximum acceptable rejection rate in ``[0, 1]``.
    edge_counts, bandwidths_bps, max_connections:
        The candidate grid (see :func:`sweep_configs`).
    jobs:
        Worker processes for the sweep (1 = inline).
    """
    if not 0.0 <= slo <= 1.0:
        raise CdnError(f"slo must be within [0, 1], got {slo}")
    configs = sweep_configs(edge_counts, bandwidths_bps,
                            max_connections=max_connections)
    plan = failures if failures is not None else FailurePlan()
    # Epoch construction validates the plan against the smallest
    # deployment in the grid — edge ids in range, no overlapping down
    # intervals, and no instant with every edge dead — so an impossible
    # scenario fails here rather than mid-sweep in a worker.
    plan.epochs(min(c.n_edges for c in configs))
    failure_specs = tuple(
        (f.edge, f.at, f.until) for f in plan.failures)
    path = str(trace_path)
    tasks: list[_PlanTask] = [
        (path, c.n_edges, c.bandwidth_bps, c.max_connections, policy,
         step, failure_specs, origin_stream_bps)
        for c in configs]
    rows = map_ordered(_evaluate_config, tasks, jobs=jobs, label="config")

    outcomes = tuple(
        ConfigOutcome(n_edges=c.n_edges, bandwidth_bps=c.bandwidth_bps,
                      max_connections=c.max_connections,
                      n_requests=row[0], n_rejected=row[1],
                      n_reassigned=row[2], n_failover_rejected=row[3],
                      rejection_rate=row[4], peak_connections=row[5],
                      peak_bandwidth_bps=row[6], origin_peak_streams=row[7])
        for c, row in zip(configs, rows, strict=True))

    frontier: list[ConfigOutcome] = []
    for count in sorted({o.n_edges for o in outcomes}):
        meeting = [o for o in outcomes
                   if o.n_edges == count and o.meets(slo)]
        if meeting:
            # Unlimited bandwidth (None) is the priciest provisioning:
            # it only wins when no finite candidate meets the SLO.
            frontier.append(min(
                meeting, key=lambda o: (o.bandwidth_bps is None,
                                        o.bandwidth_bps or 0.0)))
    best = frontier[0] if frontier else None
    return PlanReport(policy=policy, slo=slo, outcomes=outcomes,
                      frontier=tuple(frontier), best=best)
