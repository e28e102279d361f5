"""One-pass (streaming) log characterization.

A month of logs at the paper's scale is millions of lines; the columnar
:class:`~repro.trace.store.Trace` handles that comfortably, but a
production pipeline watching a *live* server wants running statistics
without ever materializing the trace.  :class:`StreamingCharacterizer`
consumes WMS-style log lines incrementally — across any number of files or
harvests — and maintains, in O(clients) memory:

* the transfer-length lognormal fit (online log-moments, with the paper's
  ``floor(t)+1`` convention);
* total transfers, bytes served, per-feed counts;
* per-client transfer counts (the interest profile) — keyed by player ID
  on the text path, and by the binary codec's integer ``client_index``
  on the column path, where a player string is looked up once per
  distinct client when the counts are read, not once per entry;
* the congestion-bound bandwidth fraction and a log-spaced bandwidth
  histogram (Figure 20's shape);
* the diurnal profile of transfer starts (Figure 4's shape).

Everything it reports is cross-checked against the batch pipeline in the
test suite: same log in, same statistics out.

Every accumulator is **mergeable** and order-free:
:meth:`StreamingCharacterizer.merge` folds another characterizer's state
into this one.  Counts and histograms merge integer-exact, the length fit
is held as integer display counts (:class:`OnlineLogMoments`), and
``bytes_served`` is an exact integer sum, rounded once when read; the
checkpoint document keeps its keys in ascending order.  So any split of
a log (codec segment, parse batch, chunk, merge grouping) reports the
same statistics and state bit for bit.  That is what lets
:func:`repro.parallel.characterize_logs` map chunks across processes
and reduce without changing any reported statistic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence, TextIO

import numpy as np

from .._typing import FloatArray, IntArray
from ..arrayops import bits_to_bytes, exact_product_sum, unique_integers
from ..distributions.fitting import lognormal_moments
from ..errors import TraceError
from ..state import Column, Scalar, Schema, Stateful
from ..units import DAY, log_display_time
from .wms_log import ParsedLog, open_log, parse_log_stream

#: Shape/dtype-generic array (decoded binary segment columns).
_AnyArray = np.ndarray[Any, np.dtype[Any]]

#: Default log-spaced bandwidth histogram edges (bits/second).
DEFAULT_BANDWIDTH_EDGES = np.logspace(3, 7, 41)

#: Bandwidths below this count as congestion bound (matches
#: :data:`repro.core.transfer_layer.CONGESTION_BOUND_THRESHOLD_BPS`).
CONGESTION_THRESHOLD_BPS = 24_000.0


def _tally(values: IntArray) -> dict[int, int]:
    """``values`` for ``Counter.update``: each distinct value's count."""
    keys, counts = np.unique(values, return_counts=True)
    return dict(zip(keys.tolist(), counts.tolist(), strict=True))


class OnlineLogMoments:
    """Mergeable accumulator of the log moments of display lengths.

    The paper's display convention maps every measured length to the
    integer ``floor(t) + 1``, so the accumulator keeps exact *counts per
    integer display length*, which merge exactly.  ``mu``/``sigma`` come
    from :func:`~repro.distributions.fitting.lognormal_moments` at read
    time, as in ``fit_lognormal``: chunked-and-merged counts give the
    batch fit of the same lengths bit for bit.
    """

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: Counter[int] = Counter()

    def add_lengths(self, lengths: FloatArray) -> None:
        """Count each length's display value ``floor(max(t, 0)) + 1``
        (:func:`~repro.units.log_display_time`)."""
        display = log_display_time(np.maximum(lengths, 0.0)).astype(np.int64)
        self.counts.update(_tally(display))

    def merge(self, other: "OnlineLogMoments") -> None:
        """Add ``other``'s counts to these."""
        self.counts.update(other.counts)

    @property
    def n(self) -> int:
        return sum(self.counts.values())

    def moments(self) -> tuple[float, float]:
        """The ``(mu, sigma)`` of ``log(display)`` over the counts."""
        return lognormal_moments(self.counts.keys(), self.counts.values())


@dataclass(frozen=True)
class StreamingSummary:
    """Snapshot of the running statistics.

    Attributes
    ----------
    n_entries, n_skipped:
        Parsed and skipped (malformed) line counts.
    n_clients:
        Distinct player IDs seen.
    length_log_mu, length_log_sigma:
        Online lognormal fit of transfer lengths (``floor(t)+1``).
    bytes_served:
        Accumulated ``duration * bandwidth / 8``: the exact sum of the
        positive products, rounded once.
    feed_counts:
        Transfers per live-object id.
    congestion_bound_fraction:
        Fraction of transfers below the congestion threshold.
    bandwidth_histogram, bandwidth_edges:
        Log-spaced histogram of per-transfer bandwidth.
    diurnal_counts:
        Transfer-start counts folded into bins of one day.
    top_clients:
        The ``(player_id, count)`` pairs of the most active clients.
    """

    n_entries: int
    n_skipped: int
    n_clients: int
    length_log_mu: float
    length_log_sigma: float
    bytes_served: float
    feed_counts: dict[int, int]
    congestion_bound_fraction: float
    bandwidth_histogram: FloatArray = field(repr=False)
    bandwidth_edges: FloatArray = field(repr=False)
    diurnal_counts: FloatArray = field(repr=False)
    top_clients: tuple[tuple[str, int], ...] = ()


class StreamingCharacterizer(Stateful):
    """Incremental characterizer of WMS-style logs.

    Feed it files or streams with :meth:`consume`; read a
    :class:`StreamingSummary` at any point with :meth:`summary`.

    Parameters
    ----------
    diurnal_bins:
        Bins per day of the arrival profile (96 = 15-minute).
    bandwidth_edges:
        Log-spaced histogram edges for bandwidth (bits/second).
    """

    #: All in the JSON document, whose round trip is exact: a restored
    #: characterizer of the same ``diurnal_bins`` resumes bit-identically
    #: (the contract of ``repro characterize --checkpoint/--resume``).
    CHECKPOINT = Schema("characterizer", (
        Scalar("length_counts", Counter[int], "_log_length.counts"),
        Scalar("bits", int, "_bits"),
        Scalar("n_entries", int, "_n_entries"),
        Scalar("n_skipped", int, "_n_skipped"),
        Scalar("congested", int, "_congested"),
        Scalar("client_counts", Counter[str], "_client_counts"),
        Scalar("feed_counts", Counter[int], "_feed_counts"),
        Column("bandwidth_edges", np.float64, "edges", "_edges"),
        Column("bandwidth_histogram", np.float64, "bins", "_bandwidth_hist"),
        Column("diurnal_counts", np.float64, "diurnal", "_diurnal"),
    ), document=True)

    def __init__(self, *, diurnal_bins: int = 96,
                 bandwidth_edges: FloatArray | None = None) -> None:
        if diurnal_bins < 1:
            raise ValueError("diurnal_bins must be positive")
        self._log_length = OnlineLogMoments()
        self._bits = 0  # sum of duration * bandwidth, in 2**-1074 bits
        self._n_entries = 0
        self._n_skipped = 0
        self._congested = 0
        self._client_counts: Counter[str] = Counter()
        # The column path's client fold, keyed by client_index: sorted
        # distinct indices, each one's player ID and transfer count.
        # Moved into _client_counts (by player ID) only when the counts
        # are read.
        self._index: IntArray = np.empty(0, dtype=np.int64)
        self._names: _AnyArray = np.empty(0, dtype=np.str_)
        self._index_counts: IntArray = np.empty(0, dtype=np.int64)
        self._feed_counts: Counter[int] = Counter()
        self._edges = (DEFAULT_BANDWIDTH_EDGES if bandwidth_edges is None
                       else np.asarray(bandwidth_edges, dtype=np.float64))
        self._bandwidth_hist = np.zeros(self._edges.size - 1,
                                        dtype=np.float64)
        self._diurnal = np.zeros(diurnal_bins, dtype=np.float64)
        self._bin_width = DAY / diurnal_bins

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def consume(self, source: str | Path | TextIO | Iterable[str]) -> int:
        """Consume one log file/stream; returns entries parsed from it.

        Malformed data lines are counted and skipped (a streaming consumer
        cannot afford to abort mid-harvest); a missing ``#Fields`` header
        still raises, since nothing after it could be interpreted.  Paths
        are opened with :func:`~repro.trace.wms_log.open_log`, so
        undecodable bytes in a corrupt harvest count as skipped lines
        instead of aborting.
        """
        if isinstance(source, (str, Path)):
            with open_log(source) as stream:
                return self.consume(stream)
        return sum(self.consume_parsed(batch)
                   for batch in parse_log_stream(source))

    def consume_lines(self, lines: Iterable[str],
                      fields: Sequence[str]) -> int:
        """Consume pre-split data lines against a known field layout.

        For callers that already located the ``#Fields`` header and
        hand the layout in directly, such as the byte ranges of a split
        log (read through :func:`~repro.trace.wms_log.open_log`, so they
        break into the lines :meth:`consume` sees).  Otherwise as
        :meth:`consume`; returns the number of entries parsed.
        """
        return sum(self.consume_parsed(batch)
                   for batch in parse_log_stream(lines, fields))

    def consume_parsed(self, batch: ParsedLog) -> int:
        """Fold one :func:`~repro.trace.wms_log.parse_log_lines` batch
        (the text path of every reader); returns its entry count.

        Skipped lines count toward ``n_skipped``; entries take the fold of
        :meth:`consume_columns`, with clients counted by player ID.
        """
        self._n_skipped += len(batch.errors)
        self._client_counts.update(batch.players)
        columns = batch.columns
        self._fold(columns["duration"], columns["bandwidth_bps"],
                   columns["timestamp"], columns["object_id"])
        return batch.n_entries

    def consume_columns(self, columns: Mapping[str, _AnyArray],
                        players: Sequence[str] | _AnyArray) -> int:
        """Consume one decoded binary segment as column arrays.

        The binary codec's counterpart of :meth:`consume_parsed`:
        ``columns`` is one segment's decoded trace-domain columns (see
        :meth:`repro.trace.codecs.BinaryTraceReader.segment_columns`),
        ``client_index`` included, and ``players`` the per-entry
        player-ID strings (the caller maps ``client_index`` through the
        file's client blocks).  Both paths share one fold over doubles
        bit-identical to the parsed text fields, so every count, bin and
        the exact ``bytes_served`` sum agree entry for entry, however
        either path's entries are grouped into calls.

        Clients are counted by ``client_index`` in integer arrays, so the
        fold costs one sort of the segment's indices and one vectorized
        name check; the counts move to player-ID keys once per distinct
        client, when :meth:`summary`, :meth:`merge`, :meth:`state_dict`
        or :meth:`client_counts` reads them.  Memory is O(distinct
        clients) whatever the index values are.  A call whose
        ``players`` give one index two different names raises; a call
        that names an already counted index differently (a second file's
        index space) first moves the counts so far to their player IDs,
        so the counts stay exact.  Returns the number of entries
        consumed.

        Raises
        ------
        TraceError
            If ``players`` and ``client_index`` differ in length, or
            ``players`` names one index two ways within the call; the
            characterizer is then left unchanged.
        """
        duration = np.asarray(columns["duration"], dtype=np.float64)
        bandwidth = np.asarray(columns["bandwidth_bps"], dtype=np.float64)
        n = int(duration.size)
        if n == 0:
            return 0

        # First, so a rejected call leaves every accumulator untouched.
        self._count_indexed_clients(
            np.asarray(columns["client_index"], dtype=np.int64),
            np.asarray(players, dtype=np.str_))
        self._fold(duration, bandwidth,
                   np.asarray(columns["timestamp"], dtype=np.int64),
                   np.asarray(columns["object_id"], dtype=np.int64))
        return n

    def _fold(self, duration: FloatArray, bandwidth: FloatArray,
              timestamp: IntArray, feed: IntArray) -> None:
        """The accumulators shared by the text and column paths: all
        but the client counts."""
        self._n_entries += int(duration.size)
        self._bits += exact_product_sum(duration, bandwidth)
        self._log_length.add_lengths(duration)
        self._feed_counts.update(_tally(feed))
        self._congested += int(
            np.count_nonzero(bandwidth < CONGESTION_THRESHOLD_BPS))
        bin_idx = np.searchsorted(self._edges, bandwidth,
                                  side="right").astype(np.int64) - 1
        in_range = (bin_idx >= 0) & (bin_idx < self._bandwidth_hist.size)
        self._bandwidth_hist += np.bincount(
            bin_idx[in_range], minlength=self._bandwidth_hist.size
            ).astype(np.float64)
        phase = (timestamp.astype(np.float64) - duration) % DAY
        diurnal_idx = np.minimum(
            (phase / self._bin_width).astype(np.int64),
            self._diurnal.size - 1)
        self._diurnal += np.bincount(
            diurnal_idx, minlength=self._diurnal.size).astype(np.float64)

    def _count_indexed_clients(self, client: IntArray,
                               names: _AnyArray) -> None:
        if names.shape != client.shape:
            raise TraceError(
                f"{names.size} player IDs for {client.size} client indices")
        keys, first, inverse, counts = unique_integers(client)
        key_names = names[first]
        expected = key_names[inverse]
        clash = names != expected
        if np.any(clash):
            row = int(np.flatnonzero(clash)[0])
            raise TraceError(
                f"client index {int(client[row])} names both "
                f"{str(expected[row])!r} and {str(names[row])!r} "
                "in one segment")
        pos = np.searchsorted(self._index, keys)
        known = pos < self._index.size
        known[known] = self._index[pos[known]] == keys[known]
        if np.any(self._names[pos[known]] != key_names[known]):
            # Another index space (e.g. a second file): settle the counts
            # so far under their player IDs and start the index over.
            self._fold_indexed_clients()
            pos = np.zeros(keys.size, dtype=np.int64)
            known = np.zeros(keys.size, dtype=bool)
        self._index_counts[pos[known]] += counts[known]
        fresh = ~known
        if np.any(fresh):
            at = pos[fresh]
            wide = np.promote_types(self._names.dtype, key_names.dtype)
            self._index = np.insert(self._index, at, keys[fresh])
            self._names = np.insert(self._names.astype(wide, copy=False),
                                    at, key_names[fresh])
            self._index_counts = np.insert(self._index_counts, at,
                                           counts[fresh])

    def _fold_indexed_clients(self) -> None:
        """Move the per-index client counts to player-ID keys."""
        if not self._index.size:
            return
        for player, count in zip(self._names.tolist(),
                                 self._index_counts.tolist(), strict=True):
            self._client_counts[player] += count
        self._index = np.empty(0, dtype=np.int64)
        self._names = np.empty(0, dtype=np.str_)
        self._index_counts = np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def merge(self, other: "StreamingCharacterizer"
              ) -> "StreamingCharacterizer":
        """Fold ``other``'s accumulated state into this characterizer.

        Feeding two characterizers disjoint parts of a log and merging
        reports the same :class:`StreamingSummary` and :meth:`state_dict`
        as one characterizer fed everything: every accumulator adds
        exactly, ``bytes_served`` too, and that sum is rounded only when
        read.  Both sides must have been built with the same
        ``diurnal_bins`` and ``bandwidth_edges``.  Returns ``self`` for
        chaining; ``other``'s statistics are left unchanged.

        Raises
        ------
        ValueError
            If the two characterizers' binning configurations differ.
        """
        if not np.array_equal(self._edges, other._edges):
            raise ValueError("cannot merge: bandwidth_edges differ")
        if self._diurnal.size != other._diurnal.size:
            raise ValueError("cannot merge: diurnal_bins differ")
        self._log_length.merge(other._log_length)
        self._bits += other._bits
        self._n_entries += other._n_entries
        self._n_skipped += other._n_skipped
        self._congested += other._congested
        other._fold_indexed_clients()
        self._client_counts.update(other._client_counts)
        self._feed_counts.update(other._feed_counts)
        self._bandwidth_hist += other._bandwidth_hist
        self._diurnal += other._diurnal
        return self

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    _before_save = _fold_indexed_clients

    def _checkpoint_sizes(self, values: Mapping[str, Any]
                          ) -> Mapping[str, int]:
        if values["bits"] < 0:
            raise ValueError(f"negative bits {values['bits']}")
        return {"bins": values["bandwidth_edges"].size - 1,
                "diurnal": self._diurnal.size}

    #: The accumulator state as a JSON document (:meth:`restore` reads it).
    state_dict = Stateful.state_meta

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self, *, top_k: int = 10) -> StreamingSummary:
        """Snapshot the running statistics (cheap; call any time)."""
        self._fold_indexed_clients()
        items: Iterable[tuple[str, int]] = self._client_counts.items()
        n_clients = len(self._client_counts)
        if 0 < top_k < n_clients:
            # Only clients counted at least the top_k-th largest count
            # can rank in the top; sorting just those gives the same list.
            counts = np.fromiter(self._client_counts.values(),
                                 dtype=np.int64, count=n_clients)
            kth = np.partition(counts, n_clients - top_k)[n_clients - top_k]
            items = compress(items, (counts >= kth).tolist())
        top = sorted(items, key=lambda item: (-item[1], item[0]))[:top_k]
        congested_fraction = (self._congested / self._n_entries
                              if self._n_entries else 0.0)
        length_log_mu, length_log_sigma = self._log_length.moments()
        return StreamingSummary(
            n_entries=self._n_entries,
            n_skipped=self._n_skipped,
            n_clients=len(self._client_counts),
            length_log_mu=length_log_mu,
            length_log_sigma=length_log_sigma,
            bytes_served=bits_to_bytes(self._bits),
            feed_counts=dict(sorted(self._feed_counts.items())),
            congestion_bound_fraction=congested_fraction,
            bandwidth_histogram=self._bandwidth_hist.copy(),
            bandwidth_edges=self._edges.copy(),
            diurnal_counts=self._diurnal.copy(),
            top_clients=tuple(top),
        )

    def client_counts(self) -> dict[str, int]:
        """The full per-client transfer counts (the interest profile),
        in ascending player-ID order."""
        self._fold_indexed_clients()
        return dict(sorted(self._client_counts.items()))
