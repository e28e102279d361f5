"""Incremental trace construction.

The simulator and the log readers build their traces from whole columns.
:class:`TraceBuilder` serves hand-built traces (tests, examples, small
tools) that add transfers one at a time and in no particular order: it
accumulates them in growable buffers, interning clients by player ID, and
emits a sorted columnar :class:`~repro.trace.store.Trace` at the end,
whose constructor applies the entry rule.
"""

from __future__ import annotations

import numpy as np

from ..errors import TraceError
from .records import ClientRecord
from .store import ClientTable, Trace


class TraceBuilder:
    """Accumulates clients and transfers, then builds a :class:`Trace`.

    Clients are interned by ``player_id``: registering the same player twice
    returns the same index (and validates that the other identity fields
    did not change).
    """

    def __init__(self) -> None:
        self._player_index: dict[str, int] = {}
        self._clients: list[ClientRecord] = []
        self._client_index: list[int] = []
        self._object_id: list[int] = []
        self._start: list[float] = []
        self._duration: list[float] = []
        self._bandwidth: list[float] = []
        self._loss: list[float] = []
        self._server_cpu: list[float] = []
        self._status: list[int] = []
        self._built = False

    @property
    def n_clients(self) -> int:
        """Number of distinct clients registered so far."""
        return len(self._clients)

    @property
    def n_transfers(self) -> int:
        """Number of transfers appended so far."""
        return len(self._start)

    def add_client(self, client: ClientRecord) -> int:
        """Intern ``client`` and return its index.

        Re-registering an existing player ID with identical fields is a
        no-op; conflicting fields raise :class:`TraceError`.
        """
        existing = self._player_index.get(client.player_id)
        if existing is not None:
            if self._clients[existing] != client:
                raise TraceError(
                    f"player {client.player_id!r} re-registered with "
                    f"different identity fields")
            return existing
        index = len(self._clients)
        self._clients.append(client)
        self._player_index[client.player_id] = index
        return index

    def add_transfer(self, client_index: int, object_id: int, start: float,
                     duration: float, *, bandwidth_bps: float = 0.0,
                     packet_loss: float = 0.0, server_cpu: float = 0.0,
                     status: int = 200) -> None:
        """Append one transfer for a client registered before :meth:`build`.

        The transfer is checked when :meth:`build` constructs the trace.
        """
        self._client_index.append(client_index)
        self._object_id.append(object_id)
        self._start.append(start)
        self._duration.append(duration)
        self._bandwidth.append(bandwidth_bps)
        self._loss.append(packet_loss)
        self._server_cpu.append(server_cpu)
        self._status.append(status)

    def build(self, extent: float | None = None) -> Trace:
        """Produce the sorted columnar :class:`Trace`.

        The builder may only be built once (its buffers are handed over).
        """
        if self._built:
            raise TraceError("TraceBuilder.build() may only be called once")
        self._built = True
        clients = ClientTable(
            player_ids=[c.player_id for c in self._clients],
            ips=[c.ip for c in self._clients],
            as_numbers=np.asarray([c.as_number for c in self._clients],
                                  dtype=np.int64),
            countries=[c.country for c in self._clients],
            os_names=[c.os_name for c in self._clients],
        )
        return Trace(
            clients=clients,
            client_index=self._client_index,
            object_id=self._object_id,
            start=self._start,
            duration=self._duration,
            bandwidth_bps=self._bandwidth,
            packet_loss=self._loss,
            server_cpu=self._server_cpu,
            status=self._status,
            extent=extent,
        )
