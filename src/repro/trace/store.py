"""Columnar trace container.

A 28-day trace at the paper's scale holds millions of transfers; storing
them as Python objects would be prohibitively slow for the characterization
pipeline.  :class:`Trace` therefore keeps one NumPy array per column and
materializes :class:`~repro.trace.records.TransferRecord` rows only on
demand.  The client population lives in a side table
(:class:`ClientTable`) referenced by integer index.
"""

from __future__ import annotations

from functools import cached_property
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from .._typing import FloatArray, IntArray
from ..arrayops import bits_to_bytes, exact_product_sum, segment_starts, stable_client_order

#: Shape/dtype-generic array (string columns, narrow sort keys, masks).
_AnyArray = np.ndarray[Any, np.dtype[Any]]
from ..errors import TraceError
from .entries import require_entries
from .records import ClientRecord, TransferRecord


class ClientTable:
    """Immutable table of clients referenced by integer index.

    Parameters
    ----------
    player_ids:
        Unique player identifiers, one per client.
    ips:
        Dotted-quad IPs, parallel to ``player_ids``.
    as_numbers:
        Autonomous-system numbers, parallel to ``player_ids``.
    countries:
        Country codes, parallel to ``player_ids``.
    os_names:
        Operating-system strings; defaults to a constant when omitted.
    """

    def __init__(self, player_ids: Sequence[str] | _AnyArray,
                 ips: Sequence[str] | _AnyArray,
                 as_numbers: Sequence[int] | _AnyArray,
                 countries: Sequence[str] | _AnyArray,
                 os_names: Sequence[str] | _AnyArray | None = None) -> None:
        n = len(player_ids)
        for name, col in (("ips", ips), ("as_numbers", as_numbers),
                          ("countries", countries)):
            if len(col) != n:
                raise TraceError(
                    f"client column {name} has length {len(col)}, expected {n}")
        if os_names is not None and len(os_names) != n:
            raise TraceError(
                f"client column os_names has length {len(os_names)}, expected {n}")
        self.player_ids = np.asarray(player_ids, dtype=np.str_)
        self.ips = np.asarray(ips, dtype=np.str_)
        self.as_numbers = np.asarray(as_numbers, dtype=np.int64)
        self.countries = np.asarray(countries, dtype=np.str_)
        # np.full(..., dtype=np.str_) would build a '<U1' array and
        # silently truncate the default to "W"; let the fill value size
        # the itemsize instead.
        self.os_names = (
            np.full(n, "Windows_98")  # reprolint: disable=RL008, fill value must size the itemsize
            if os_names is None else np.asarray(os_names, dtype=np.str_))
        self._index_by_player: dict[str, int] | None = None

    def __len__(self) -> int:
        return int(self.player_ids.size)

    def record(self, index: int) -> ClientRecord:
        """Materialize the :class:`ClientRecord` at ``index``."""
        return ClientRecord(
            player_id=str(self.player_ids[index]),
            ip=str(self.ips[index]),
            as_number=int(self.as_numbers[index]),
            country=str(self.countries[index]),
            os_name=str(self.os_names[index]),
        )

    def index_of(self, player_id: str) -> int:
        """Return the index of ``player_id``; raises ``KeyError`` if absent."""
        if self._index_by_player is None:
            self._index_by_player = {
                str(pid): i for i, pid in enumerate(self.player_ids)}
        return self._index_by_player[player_id]

    def n_distinct_ips(self) -> int:
        """Number of distinct IP addresses across the population."""
        return int(np.unique(self.ips).size)

    def n_distinct_ases(self) -> int:
        """Number of distinct autonomous systems (excluding the unknown AS 0)."""
        ases = self.as_numbers[self.as_numbers > 0]
        return int(np.unique(ases).size)

    def n_distinct_countries(self) -> int:
        """Number of distinct non-empty country codes."""
        countries = self.countries[self.countries != ""]
        return int(np.unique(countries).size)


#: Per-transfer column attributes of :class:`Trace`, in canonical order
#: (the order of the CSV interchange format and of :meth:`Trace.to_rows`).
TRANSFER_COLUMNS: tuple[str, ...] = (
    "client_index", "object_id", "start", "duration", "bandwidth_bps",
    "packet_loss", "server_cpu", "status",
)


class Trace:
    """Columnar container of transfers plus the client table.

    Transfers are kept sorted by start time; the constructor sorts when
    necessary.  All per-transfer columns are parallel arrays.

    Parameters
    ----------
    clients:
        The client table.
    client_index:
        Per-transfer index into ``clients``.
    object_id:
        Per-transfer live-object index.
    start:
        Per-transfer start times (seconds since trace start).
    duration:
        Per-transfer lengths (seconds).
    bandwidth_bps, packet_loss, server_cpu, status:
        Optional per-transfer statistics; default to zeros / 200.

    Every row must pass the entry rule
    (:func:`repro.trace.entries.entry_rule`), with the client index in
    range of ``clients``; otherwise :class:`TraceError` names the first
    refused row.
    extent:
        Length of the observation window ``[0, extent)``; defaults to the
        latest transfer end.
    """

    def __init__(self, clients: ClientTable,
                 client_index: Sequence[int] | _AnyArray,
                 object_id: Sequence[int] | _AnyArray,
                 start: Sequence[float] | _AnyArray,
                 duration: Sequence[float] | _AnyArray,
                 bandwidth_bps: Sequence[float] | _AnyArray | None = None,
                 packet_loss: Sequence[float] | _AnyArray | None = None,
                 server_cpu: Sequence[float] | _AnyArray | None = None,
                 status: Sequence[int] | _AnyArray | None = None,
                 extent: float | None = None) -> None:
        self.clients = clients
        self.client_index = np.asarray(client_index, dtype=np.int64)
        self.object_id = np.asarray(object_id, dtype=np.int64)
        self.start = np.asarray(start, dtype=np.float64)
        self.duration = np.asarray(duration, dtype=np.float64)
        n = self.start.size
        for name, col in (("client_index", self.client_index),
                          ("object_id", self.object_id),
                          ("duration", self.duration)):
            if col.size != n:
                raise TraceError(
                    f"column {name} has length {col.size}, expected {n}")

        def _column(values: Sequence[float] | _AnyArray | None, fill: float,
                    dtype: type) -> _AnyArray:
            if values is None:
                return np.full(n, fill, dtype=dtype)
            arr = np.asarray(values, dtype=dtype)
            if arr.size != n:
                raise TraceError(f"optional column has length {arr.size}, expected {n}")
            return arr

        self.bandwidth_bps = _column(bandwidth_bps, 0.0, np.float64)
        self.packet_loss = _column(packet_loss, 0.0, np.float64)
        self.server_cpu = _column(server_cpu, 0.0, np.float64)
        self.status = _column(status, 200, np.int64)

        require_entries(self.columns(), n_clients=len(clients))
        self._sort_by_start()
        self._set_extent(extent)

    @classmethod
    def _of_admitted(cls, clients: ClientTable,
                     columns: Mapping[str, _AnyArray], *,
                     extent: float | None, start_sorted: bool) -> "Trace":
        """A trace over columns the entry rule has already admitted.

        ``columns`` holds every :data:`TRANSFER_COLUMNS` array, parallel
        and at its :class:`Trace` dtype, with client indices in range of
        ``clients``; the arrays are kept, not copied.  Skips the
        constructor's entry-rule pass, and its start-order check when
        ``start_sorted``, so rows already proven are not proven again.
        """
        trace = cls.__new__(cls)
        trace.clients = clients
        for name in TRANSFER_COLUMNS:
            setattr(trace, name, columns[name])
        if not start_sorted:
            trace._sort_by_start()
        trace._set_extent(extent)
        return trace

    def _sort_by_start(self) -> None:
        """Stable-sort every column by start time, unless already sorted."""
        if self.start.size and np.any(np.diff(self.start) < 0):
            order = np.argsort(self.start, kind="stable")
            for attr in TRANSFER_COLUMNS:
                setattr(self, attr, getattr(self, attr)[order])

    def _set_extent(self, extent: float | None) -> None:
        """Set the window, by default the latest transfer end."""
        if extent is None:
            extent = (float((self.start + self.duration).max())
                      if self.start.size else 0.0)
        # Note: entries may extend past the extent — real logs contain
        # multi-harvest artifacts (Section 2.4); sanitize_trace removes them.
        self.extent = float(extent)

    # ------------------------------------------------------------------
    # Basic shape
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.start.size)

    @property
    def n_transfers(self) -> int:
        """Number of transfers in the trace."""
        return len(self)

    @property
    def n_clients(self) -> int:
        """Number of clients in the client table."""
        return len(self.clients)

    @property
    def n_objects(self) -> int:
        """Number of distinct live objects appearing in the trace."""
        if not len(self):
            return 0
        ids = np.sort(self.object_id)
        return 1 + int(np.count_nonzero(ids[1:] != ids[:-1]))

    @property
    def end(self) -> FloatArray:
        """Per-transfer end times (``start + duration``)."""
        return self.start + self.duration

    @cached_property
    def client_grouping(self) -> tuple[IntArray, IntArray, IntArray]:
        """Cached group-by-client index: ``(order, lengths, firsts)``.

        ``order`` is the stable permutation sorting transfers by
        ``(client_index, start)``; ``lengths`` the per-client transfer
        count (length ``n_clients``, zeros included); ``firsts`` the
        position, in the sorted view, of each active client's first
        transfer.  Computed once per (immutable) trace — the sessionizer
        and every per-client analysis share it, so e.g. a Figure 9
        timeout sweep pays for the grouping a single time.

        Because the constructor keeps transfers start-sorted, a stable
        argsort on the client column alone realizes the lexicographic
        order (:func:`repro.arrayops.stable_client_order`, an O(n) radix
        sort on a narrowed key).
        """
        order = stable_client_order(self.client_index, self.n_clients)
        lengths = np.bincount(self.client_index, minlength=self.n_clients)
        firsts = segment_starts(lengths)[lengths > 0]
        return order, lengths, firsts

    @cached_property
    def client_sorted_spans(self) -> tuple[FloatArray, FloatArray]:
        """Cached ``(start, end)`` columns in ``(client, start)`` order.

        The gathered companions of :attr:`client_grouping` — the inputs
        every silence-gap / sessionization call starts from.  Treat both
        arrays as read-only (copy before mutating); like the grouping they
        are computed once per immutable trace.
        """
        order, _, _ = self.client_grouping
        start = self.start[order]
        end = self.duration[order]
        end += start
        return start, end

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    def record(self, index: int) -> TransferRecord:
        """Materialize the :class:`TransferRecord` at ``index``."""
        return TransferRecord(
            client=self.clients.record(int(self.client_index[index])),
            object_id=int(self.object_id[index]),
            start=float(self.start[index]),
            duration=float(self.duration[index]),
            bandwidth_bps=float(self.bandwidth_bps[index]),
            packet_loss=float(self.packet_loss[index]),
            server_cpu=float(self.server_cpu[index]),
            status=int(self.status[index]),
        )

    def __iter__(self) -> Iterator[TransferRecord]:
        for i in range(len(self)):
            yield self.record(i)

    # ------------------------------------------------------------------
    # Columnar batch export
    # ------------------------------------------------------------------
    def columns(self) -> dict[str, _AnyArray]:
        """The per-transfer columns as ``{name: array}``, without copying.

        The batch-export counterpart of :meth:`record`/``__iter__``:
        bulk consumers (CSV export, external toolkits) should read the
        column arrays directly instead of materializing one
        :class:`~repro.trace.records.TransferRecord` per row.
        """
        return {name: getattr(self, name) for name in TRANSFER_COLUMNS}

    def to_rows(self) -> list[tuple[Any, ...]]:
        """All transfers as plain-Python tuples in :data:`TRANSFER_COLUMNS`
        order.

        Converts each column once with ``ndarray.tolist()`` and zips,
        avoiding ``__iter__``'s per-row ``record()`` materialization —
        use this when a row-oriented consumer really needs Python
        scalars for a whole trace.
        """
        return list(zip(*(getattr(self, name).tolist()
                          for name in TRANSFER_COLUMNS), strict=True))

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def bytes_served(self) -> float:
        """Total content served in bytes (duration x bandwidth / 8), exact."""
        return bits_to_bytes(exact_product_sum(self.duration, self.bandwidth_bps))

    def transfers_per_client(self) -> IntArray:
        """Transfer count per client index (length ``n_clients``)."""
        return np.bincount(self.client_index, minlength=self.n_clients
                           ).astype(np.int64)

    def active_client_count(self) -> int:
        """Number of clients with at least one transfer in the trace."""
        return int(np.count_nonzero(self.transfers_per_client()))

    def filter(self, mask: _AnyArray) -> "Trace":
        """Return a new trace containing only the transfers where ``mask``.

        The client table is shared (not copied); client indices keep their
        meaning.  The kept rows are rows of this trace, so they are neither
        re-checked against the entry rule nor re-sorted.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.size != len(self):
            raise TraceError(f"mask has length {mask.size}, expected {len(self)}")
        return Trace._of_admitted(
            self.clients,
            {name: column[mask] for name, column in self.columns().items()},
            extent=self.extent, start_sorted=True)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save_npz(self, path: str | Path) -> None:
        """Save the full trace (including client table) to a ``.npz`` file."""
        np.savez_compressed(
            Path(path),
            client_index=self.client_index,
            object_id=self.object_id,
            start=self.start,
            duration=self.duration,
            bandwidth_bps=self.bandwidth_bps,
            packet_loss=self.packet_loss,
            server_cpu=self.server_cpu,
            status=self.status,
            extent=np.asarray([self.extent]),
            player_ids=self.clients.player_ids,
            ips=self.clients.ips,
            as_numbers=self.clients.as_numbers,
            countries=self.clients.countries,
            os_names=self.clients.os_names,
        )

    @classmethod
    def load_npz(cls, path: str | Path) -> "Trace":
        """Load a trace previously written by :meth:`save_npz`."""
        with np.load(Path(path), allow_pickle=False) as data:
            clients = ClientTable(
                player_ids=data["player_ids"],
                ips=data["ips"],
                as_numbers=data["as_numbers"],
                countries=data["countries"],
                os_names=data["os_names"],
            )
            return cls(
                clients=clients,
                client_index=data["client_index"],
                object_id=data["object_id"],
                start=data["start"],
                duration=data["duration"],
                bandwidth_bps=data["bandwidth_bps"],
                packet_loss=data["packet_loss"],
                server_cpu=data["server_cpu"],
                status=data["status"],
                extent=float(data["extent"][0]),
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Trace(n_transfers={self.n_transfers}, "
                f"n_clients={self.n_clients}, extent={self.extent:.0f}s)")
