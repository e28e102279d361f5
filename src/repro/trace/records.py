"""Row-level record types of the trace data model.

These are the per-row views over the columnar :class:`repro.trace.store.Trace`
container and the currency of the log reader/writer.  Field names follow the
information the paper lists for each Windows Media Server log entry
(Section 2.3): client identification, environment, requested object,
transfer statistics, server load, and a timestamp.
"""

from __future__ import annotations

from dataclasses import dataclass

from .entries import require_entries


@dataclass(frozen=True)
class ClientRecord:
    """A client as identified by its unique player ID.

    The paper identifies clients by the player-ID field of the log and maps
    their IP addresses to autonomous systems and countries (Section 3.1).

    Attributes
    ----------
    player_id:
        The unique software-player identifier (one per client install).
    ip:
        Dotted-quad IP address the client connected from.
    as_number:
        Autonomous system the IP traces back to (0 when unknown).
    country:
        Two-letter country code (empty when unknown).
    os_name:
        Client operating-system string from the log environment fields.
    """

    player_id: str
    ip: str
    as_number: int = 0
    country: str = ""
    os_name: str = "Windows_98"

    def __post_init__(self) -> None:
        if not self.player_id:
            raise ValueError("player_id must be non-empty")
        if self.as_number < 0:
            raise ValueError(f"as_number must be non-negative, got {self.as_number}")


@dataclass(frozen=True)
class TransferRecord:
    """One unicast transfer: a start/stop viewing of a live object.

    A record must pass the entry rule
    (:func:`repro.trace.entries.entry_rule`); otherwise construction
    raises :class:`~repro.errors.TraceError`.

    Attributes
    ----------
    client:
        The client performing the transfer.
    object_id:
        Index of the live object (feed) served; the paper's trace has two.
    start:
        Transfer start time in seconds since trace start.
    duration:
        Transfer length in seconds (the paper's ``l(j)``, Section 5.3).
    bandwidth_bps:
        Average delivered bandwidth in bits per second (Figure 20).
    packet_loss:
        Packet loss rate in [0, 1] reported for the transfer.
    server_cpu:
        Server CPU utilization in [0, 1] sampled during the transfer.
    status:
        HTTP-style status code of the response (200 = served).
    """

    client: ClientRecord
    object_id: int
    start: float
    duration: float
    bandwidth_bps: float = 0.0
    packet_loss: float = 0.0
    server_cpu: float = 0.0
    status: int = 200

    def __post_init__(self) -> None:
        require_entries({name: [getattr(self, name)] for name in (
            "start", "duration", "bandwidth_bps", "packet_loss",
            "server_cpu")})

    @property
    def end(self) -> float:
        """Transfer stop time in seconds since trace start."""
        return self.start + self.duration

    @property
    def bytes_transferred(self) -> float:
        """Approximate bytes delivered: duration times bandwidth over 8."""
        return self.duration * self.bandwidth_bps / 8.0
