"""Per-edge and whole-tier accounting over simulated service legs.

The engine's unit of accounting is the **leg**: one request offered to
one edge.  An undisturbed transfer is a single leg; an edge failure
splits an admitted transfer into a truncated leg on the dying edge plus
a failover leg (a fresh request) on a survivor; a rejected request is a
zero-length leg.  Every delivery metric — per-edge rejection rates,
re-assignment counts, peak loads, the ``c(t)`` concurrency profiles and
the origin fan-out — is a pure reduction over the leg columns, computed
vectorized here.

The origin side implements the live fan-out economics the paper's
hierarchy rests on: the origin serves one stream per ``(edge, feed)``
pair with at least one active admitted viewer, never one per client, so
its egress is bounded by ``edges x feeds`` regardless of audience size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._typing import FloatArray, IntArray
from ..analysis.concurrency import merged_group_intervals, sampled_concurrency
from ..arrayops import bits_to_bytes, exact_product_sum
from ..errors import CdnError
from ..trace.store import Trace
from .admission import BoolArray, active_peaks
from .topology import CdnTopology


@dataclass(frozen=True)
class LegSet:
    """Columnar record of every service leg of one simulation run.

    Parallel arrays; order carries no meaning.  ``end == start`` marks
    a leg that served nothing (a rejection, or a zero-length transfer).
    """

    transfer: IntArray
    start: FloatArray
    end: FloatArray
    edge: IntArray
    rate: IntArray
    admitted: BoolArray
    failover: BoolArray

    def __post_init__(self) -> None:
        n = self.transfer.size
        for name in ("start", "end", "edge", "rate", "admitted", "failover"):
            if getattr(self, name).size != n:
                raise CdnError(f"leg column {name} has length "
                               f"{getattr(self, name).size}, expected {n}")

    @property
    def n_legs(self) -> int:
        return int(self.transfer.size)

    @classmethod
    def concatenate(cls, parts: list["LegSet"]) -> "LegSet":
        """Merge leg sets (empty input yields an empty set)."""
        if not parts:
            return cls(transfer=np.zeros(0, dtype=np.int64),
                       start=np.zeros(0), end=np.zeros(0),
                       edge=np.zeros(0, dtype=np.int64),
                       rate=np.zeros(0, dtype=np.int64),
                       admitted=np.zeros(0, dtype=np.bool_),
                       failover=np.zeros(0, dtype=np.bool_))
        return cls(
            transfer=np.concatenate([p.transfer for p in parts]),
            start=np.concatenate([p.start for p in parts]),
            end=np.concatenate([p.end for p in parts]),
            edge=np.concatenate([p.edge for p in parts]),
            rate=np.concatenate([p.rate for p in parts]),
            admitted=np.concatenate([p.admitted for p in parts]),
            failover=np.concatenate([p.failover for p in parts]),
        )


@dataclass(frozen=True)
class EdgeReport:
    """Delivery accounting for one edge."""

    edge_id: int
    n_requests: int
    n_admitted: int
    n_rejected: int
    n_failover_requests: int
    n_failover_rejected: int
    peak_connections: int
    peak_bandwidth_bps: int
    bytes_served: float
    sampled_concurrency: FloatArray = field(repr=False)

    @property
    def rejection_rate(self) -> float:
        if self.n_requests == 0:
            return 0.0
        return self.n_rejected / self.n_requests

    def to_dict(self, *, include_samples: bool = False) -> dict[str, object]:
        """JSON-ready form; ``include_samples`` adds the full c(t) grid."""
        samples = self.sampled_concurrency
        out: dict[str, object] = {
            "edge_id": self.edge_id,
            "n_requests": self.n_requests,
            "n_admitted": self.n_admitted,
            "n_rejected": self.n_rejected,
            "n_failover_requests": self.n_failover_requests,
            "n_failover_rejected": self.n_failover_rejected,
            "rejection_rate": self.rejection_rate,
            "peak_connections": self.peak_connections,
            "peak_bandwidth_bps": self.peak_bandwidth_bps,
            "bytes_served": self.bytes_served,
            "concurrency_mean": (float(samples.mean()) if samples.size
                                 else 0.0),
            "concurrency_peak": (float(samples.max()) if samples.size
                                 else 0.0),
        }
        if include_samples:
            out["sampled_concurrency"] = samples.tolist()
        return out


@dataclass(frozen=True)
class OriginReport:
    """Origin fan-out accounting: one stream per active (edge, feed)."""

    peak_streams: int
    peak_egress_bps: float
    sampled_streams: FloatArray = field(repr=False)

    def to_dict(self, *, include_samples: bool = False) -> dict[str, object]:
        """JSON-serializable view of the origin accounting."""
        out: dict[str, object] = {
            "peak_streams": self.peak_streams,
            "peak_egress_bps": self.peak_egress_bps,
            "streams_mean": (float(self.sampled_streams.mean())
                             if self.sampled_streams.size else 0.0),
        }
        if include_samples:
            out["sampled_streams"] = self.sampled_streams.tolist()
        return out


@dataclass(frozen=True)
class CdnResult:
    """Everything one hierarchy simulation established."""

    policy: str
    topology: CdnTopology
    sample_step: float
    n_transfers: int
    edges: tuple[EdgeReport, ...]
    origin: OriginReport
    legs: LegSet = field(repr=False)

    @property
    def n_requests(self) -> int:
        return sum(e.n_requests for e in self.edges)

    @property
    def n_admitted(self) -> int:
        return sum(e.n_admitted for e in self.edges)

    @property
    def n_rejected(self) -> int:
        return sum(e.n_rejected for e in self.edges)

    @property
    def n_reassigned(self) -> int:
        """Failover requests: clients pushed off a dying edge."""
        return sum(e.n_failover_requests for e in self.edges)

    @property
    def n_failover_rejected(self) -> int:
        return sum(e.n_failover_rejected for e in self.edges)

    @property
    def rejection_rate(self) -> float:
        if self.n_requests == 0:
            return 0.0
        return self.n_rejected / self.n_requests

    def to_dict(self, *, include_samples: bool = False) -> dict[str, object]:
        """JSON-ready form (legs are accounting detail, not serialized)."""
        return {
            "policy": self.policy,
            "topology": self.topology.to_dict(),
            "sample_step": self.sample_step,
            "n_transfers": self.n_transfers,
            "n_requests": self.n_requests,
            "n_admitted": self.n_admitted,
            "n_rejected": self.n_rejected,
            "n_reassigned": self.n_reassigned,
            "n_failover_rejected": self.n_failover_rejected,
            "rejection_rate": self.rejection_rate,
            "edges": [e.to_dict(include_samples=include_samples)
                      for e in self.edges],
            "origin": self.origin.to_dict(include_samples=include_samples),
        }


def build_result(trace: Trace, topology: CdnTopology, policy: str,
                 legs: LegSet, *, step: float = 60.0) -> CdnResult:
    """Reduce a finished run's legs into the :class:`CdnResult`."""
    extent = max(trace.extent, float(legs.end.max()) if legs.n_legs else 0.0)
    if extent <= 0:
        extent = step
    served = legs.admitted
    reports: list[EdgeReport] = []
    for edge_id in range(topology.n_edges):
        on_edge = legs.edge == edge_id
        adm = on_edge & served
        peak_conn, peak_rate = active_peaks(
            legs.start[adm], legs.end[adm], legs.rate[adm])
        reports.append(EdgeReport(
            edge_id=edge_id,
            n_requests=int(np.count_nonzero(on_edge)),
            n_admitted=int(np.count_nonzero(adm)),
            n_rejected=int(np.count_nonzero(on_edge & ~served)),
            n_failover_requests=int(
                np.count_nonzero(on_edge & legs.failover)),
            n_failover_rejected=int(
                np.count_nonzero(on_edge & legs.failover & ~served)),
            peak_connections=peak_conn,
            peak_bandwidth_bps=peak_rate,
            bytes_served=bits_to_bytes(exact_product_sum(
                legs.end[adm] - legs.start[adm], legs.rate[adm])),
            sampled_concurrency=sampled_concurrency(
                legs.start[adm], legs.end[adm], extent=extent, step=step),
        ))

    feeds = trace.object_id[legs.transfer[served]]
    n_feeds = int(trace.object_id.max()) + 1 if len(trace) else 1
    stream_group = legs.edge[served] * np.int64(n_feeds) + feeds
    merged_s, merged_e = merged_group_intervals(
        stream_group, legs.start[served], legs.end[served])
    peak_streams, _ = active_peaks(
        merged_s, merged_e, np.ones(merged_s.size, dtype=np.int64))
    origin = OriginReport(
        peak_streams=peak_streams,
        peak_egress_bps=peak_streams * topology.origin_stream_bps,
        sampled_streams=sampled_concurrency(
            merged_s, merged_e, extent=extent, step=step),
    )
    return CdnResult(policy=policy, topology=topology, sample_step=step,
                     n_transfers=trace.n_transfers, edges=tuple(reports),
                     origin=origin, legs=legs)
