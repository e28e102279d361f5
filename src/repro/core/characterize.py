"""Full-trace characterization: all three layers plus basic statistics.

:func:`characterize` is the top of the pipeline: sanitized trace in,
:class:`WorkloadCharacterization` out — everything the paper's Sections 3-5
measure, in one object, ready for reporting
(:mod:`repro.core.report`), model calibration (:mod:`repro.core.calibrate`),
and the per-figure experiments (:mod:`repro.experiments`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..trace.store import Trace
from ..units import DAY, DEFAULT_SESSION_TIMEOUT
from .client_layer import ClientLayerCharacterization, characterize_client_layer
from .hierarchy import HierarchicalWorkload
from .session_layer import SessionLayerCharacterization, characterize_session_layer
from .sessionizer import Sessions
from .transfer_layer import (
    TransferLayerCharacterization,
    characterize_transfer_layer,
)


@dataclass(frozen=True)
class TraceSummary:
    """Basic trace statistics — the paper's Table 1.

    Attributes
    ----------
    days:
        Log period in days.
    n_objects:
        Distinct live objects (the paper: 2).
    n_ases:
        Distinct client autonomous systems (the paper: 1,010).
    n_ips:
        Distinct client IP addresses (the paper: 364,184).
    n_users:
        Distinct clients by player ID (the paper: 691,889).
    n_sessions:
        Sessions under the chosen timeout (the paper: > 1.5 million).
    n_transfers:
        Transfers (the paper: > 5.5 million).
    bytes_served:
        Total content served in bytes (the paper: > 8 TB).
    """

    days: float
    n_objects: int
    n_ases: int
    n_ips: int
    n_users: int
    n_sessions: int
    n_transfers: int
    bytes_served: float


@dataclass(frozen=True)
class WorkloadCharacterization:
    """The complete hierarchical characterization of one trace.

    Attributes
    ----------
    summary:
        Table 1 statistics.
    client:
        Section 3 (client layer) results.
    session:
        Section 4 (session layer) results.
    transfer:
        Section 5 (transfer layer) results.
    timeout:
        The session timeout used throughout.
    """

    summary: TraceSummary
    client: ClientLayerCharacterization
    session: SessionLayerCharacterization
    transfer: TransferLayerCharacterization
    timeout: float


def summarize_trace(trace: Trace, sessions: Sessions) -> TraceSummary:
    """Compute the Table 1 statistics of a trace."""
    # The sorted distinct client indices: indices are dense, so a count
    # per client finds them without hashing every transfer.
    active = np.flatnonzero(trace.transfers_per_client())
    clients = trace.clients
    active_ases = clients.as_numbers[active]
    active_ips = clients.ips[active]
    return TraceSummary(
        days=trace.extent / DAY,
        n_objects=trace.n_objects,
        n_ases=int(np.unique(active_ases[active_ases > 0]).size),
        n_ips=int(np.unique(active_ips).size),
        n_users=int(active.size),
        n_sessions=sessions.n_sessions,
        n_transfers=len(trace),
        bytes_served=trace.bytes_served(),
    )


def characterize(trace: Trace, *,
                 timeout: float = DEFAULT_SESSION_TIMEOUT
                 ) -> WorkloadCharacterization:
    """Characterize ``trace`` at all three layers.

    The trace should already be sanitized
    (:func:`repro.trace.sanitize.sanitize_trace`); spanning entries would
    otherwise distort every length and concurrency statistic.

    Parameters
    ----------
    trace:
        The sanitized trace.
    timeout:
        Session timeout ``T_o``.
    """
    workload = HierarchicalWorkload(trace, timeout)
    sessions = workload.sessions
    return WorkloadCharacterization(
        summary=summarize_trace(trace, sessions),
        client=characterize_client_layer(trace, sessions),
        session=characterize_session_layer(sessions),
        transfer=characterize_transfer_layer(trace),
        timeout=float(timeout),
    )
