"""The hierarchical workload view: clients > sessions > transfers.

Section 2.2 of the paper organizes the workload as a hierarchy of layers:
the streaming server sees interleaved transfers; transfers group into
sessions under the timeout ``T_o``; sessions group into per-client
behaviour.  :class:`HierarchicalWorkload` is that organization as an
object: one trace, its sessionization, and convenience accessors for each
layer's variables.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .._typing import FloatArray, IntArray
from ..trace.store import Trace
from ..units import DEFAULT_SESSION_TIMEOUT
from .sessionizer import Sessions, sessionize


class HierarchicalWorkload:
    """A trace viewed through the paper's three-layer hierarchy.

    Parameters
    ----------
    trace:
        The (sanitized) trace.
    timeout:
        Session timeout ``T_o`` (the paper's default: 1,500 s).
    """

    def __init__(self, trace: Trace,
                 timeout: float = DEFAULT_SESSION_TIMEOUT) -> None:
        self.trace = trace
        self.timeout = float(timeout)

    @cached_property
    def sessions(self) -> Sessions:
        """The sessionization (computed lazily, once)."""
        return sessionize(self.trace, self.timeout)

    # ------------------------------------------------------------------
    # Client layer
    # ------------------------------------------------------------------
    @property
    def n_clients(self) -> int:
        """Clients appearing in the trace (the paper's "users")."""
        return self.trace.active_client_count()

    def client_session_counts(self) -> IntArray:
        """Sessions per client over clients appearing in the trace."""
        counts = self.sessions.sessions_per_client()
        return counts[counts > 0]

    def client_transfer_counts(self) -> IntArray:
        """Transfers per client over clients appearing in the trace."""
        counts = self.trace.transfers_per_client()
        return counts[counts > 0]

    def client_interarrivals(self) -> FloatArray:
        """Interarrival times of session starts (Section 3.3)."""
        return self.sessions.interarrival_times()

    # ------------------------------------------------------------------
    # Session layer
    # ------------------------------------------------------------------
    @property
    def n_sessions(self) -> int:
        """Number of reconstructed sessions."""
        return self.sessions.n_sessions

    def session_on_times(self) -> FloatArray:
        """Session ON times (Section 4.2)."""
        return self.sessions.on_times()

    def session_off_times(self) -> FloatArray:
        """Session OFF times (Section 4.3)."""
        return self.sessions.off_times()

    def transfers_per_session(self) -> IntArray:
        """Transfers in each session (Section 4.4)."""
        return self.sessions.transfers_per_session

    # ------------------------------------------------------------------
    # Transfer layer
    # ------------------------------------------------------------------
    @property
    def n_transfers(self) -> int:
        """Number of transfers in the trace."""
        return len(self.trace)

    def transfer_lengths(self) -> FloatArray:
        """Transfer lengths (Section 5.3)."""
        return self.trace.duration

    def transfer_interarrivals(self) -> FloatArray:
        """Interarrival times of transfer starts (Section 5.2)."""
        if len(self.trace) < 2:
            return np.empty(0)
        return np.diff(self.trace.start)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"HierarchicalWorkload(n_transfers={self.n_transfers}, "
                f"timeout={self.timeout:.0f}s)")
