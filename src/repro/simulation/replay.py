"""Replay workloads against one admission-controlled server.

The paper motivates live-workload characterization with capacity planning:
live requests cannot be deferred, so rejecting them denies access outright
(Section 1).  :func:`replay_trace` plays a trace (measured or synthetic)
against a single server with a concurrent-transfer limit — one edge of
:mod:`repro.cdn.admission` with a connection cap — quantifying exactly how
many live moments an underprovisioned server would deny.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cdn.admission import active_peaks, admit_requests
from ..errors import ConfigError, SimulationError
from ..trace.store import Trace


@dataclass
class ReplayResult:
    """Outcome of replaying a workload through :func:`replay_trace`.

    Attributes
    ----------
    n_requests:
        Requests submitted.
    n_served:
        Requests admitted and served to completion.
    n_rejected:
        Requests turned away by admission control.
    peak_concurrency:
        Maximum simultaneous admitted transfers (zero-duration transfers
        never occupy the server).
    bytes_served:
        Total bytes delivered across served transfers.
    rejected_times:
        Start times of rejected requests (for "who was denied the live
        moment" analyses).
    """

    n_requests: int = 0
    n_served: int = 0
    n_rejected: int = 0
    peak_concurrency: int = 0
    bytes_served: float = 0.0
    rejected_times: list[float] = field(default_factory=list)

    @property
    def rejection_rate(self) -> float:
        """Fraction of requests rejected."""
        if self.n_requests == 0:
            return 0.0
        return self.n_rejected / self.n_requests


def replay_trace(trace: Trace, *,
                 max_concurrent: int | None = None) -> ReplayResult:
    """Replay every transfer of ``trace`` through a fresh server.

    Completions free capacity before same-instant arrivals, and
    same-instant arrivals are decided in trace order
    (:func:`~repro.cdn.admission.admit_requests`).

    Parameters
    ----------
    trace:
        The workload; each transfer becomes one request at its start time.
    max_concurrent:
        Admission-control limit; ``None`` serves every request.

    Raises
    ------
    SimulationError
        If the trace has no transfers.
    ConfigError
        If ``max_concurrent`` is set below 1.
    """
    n = len(trace)
    if n == 0:
        raise SimulationError("cannot replay an empty trace")
    if max_concurrent is not None and max_concurrent < 1:
        raise ConfigError(
            f"max_concurrent must be positive when set, got {max_concurrent}")
    outcome = admit_requests(trace.start, trace.duration,
                             np.zeros(n, dtype=np.int64),
                             max_connections=max_concurrent)
    served = outcome.admitted
    # Bytes accumulate left to right in completion order (ties in trace
    # order); cumsum keeps that order where np.sum would pair terms.  The
    # first request is always admitted, so ``delivered`` is never empty.
    order = np.argsort(trace.end[served], kind="stable")
    delivered = (trace.duration[served] * trace.bandwidth_bps[served]
                 / 8.0)[order]
    return ReplayResult(
        n_requests=n, n_served=outcome.n_admitted,
        n_rejected=outcome.n_rejected,
        peak_concurrency=outcome.peak_connections,
        bytes_served=float(np.cumsum(delivered)[-1]),
        rejected_times=trace.start[~served].tolist())


def provisioning_sweep(trace: Trace, limits: list[int]
                       ) -> list[tuple[int, ReplayResult]]:
    """Replay ``trace`` under each admission limit in ``limits``.

    Returns ``(limit, result)`` pairs — the data behind a capacity-planning
    curve of denied live requests versus provisioned capacity.
    """
    return [(int(limit), replay_trace(trace, max_concurrent=int(limit)))
            for limit in limits]


def demand_peak(trace: Trace) -> int:
    """Peak concurrent-transfer demand of ``trace`` (no admission control)."""
    return active_peaks(trace.start, trace.end,
                        np.zeros(len(trace), dtype=np.int64))[0]
