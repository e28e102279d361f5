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

Every accumulator is **mergeable**: :meth:`StreamingCharacterizer.merge`
folds another characterizer's state into this one, exactly.  Two
characterizers fed disjoint halves of a log and merged report the same
:class:`StreamingSummary` as one characterizer fed the whole log — counts
and histograms are integer-exact, and the lognormal length fit is held in
an integer-count form (:class:`OnlineLogMoments`) whose moments are
computed once at summary time, so even the floating-point fields agree
bit for bit.  That contract is what lets
:func:`repro.parallel.characterize_logs` map chunks across processes and
reduce without changing any reported statistic.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence, TextIO

import numpy as np

from .._typing import FloatArray, IntArray
from ..arrayops import unique_integers
from ..errors import TraceError
from ..units import DAY
from .wms_log import ParsedLog, parse_log_stream

#: Shape/dtype-generic array (decoded binary segment columns).
_AnyArray = np.ndarray[Any, np.dtype[Any]]

#: Default log-spaced bandwidth histogram edges (bits/second).
DEFAULT_BANDWIDTH_EDGES = np.logspace(3, 7, 41)

#: Bandwidths below this count as congestion bound (matches
#: :data:`repro.core.transfer_layer.CONGESTION_BOUND_THRESHOLD_BPS`).
CONGESTION_THRESHOLD_BPS = 24_000.0


def _tally(values: IntArray, first_seen: bool
           ) -> list[int] | dict[int, int]:
    """``values`` for ``Counter.update``: new keys first-seen or sorted."""
    if first_seen:
        return values.tolist()
    keys, counts = np.unique(values, return_counts=True)
    return dict(zip(keys.tolist(), counts.tolist(), strict=True))


class OnlineLogMoments:
    """Mergeable accumulator of the log moments of display lengths.

    The paper's display convention maps every measured length to the
    integer ``floor(t) + 1``, so the accumulator keeps exact *counts per
    integer display length* rather than running float moments.  Counts
    merge exactly (integer addition is associative), and the lognormal
    ``mu``/``sigma`` are computed once at read time by a deterministic
    walk over the sorted support — which makes chunked-and-merged
    results bit-identical to a single sequential pass.
    """

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: Counter[int] = Counter()

    def add_lengths(self, lengths: FloatArray, *,
                    first_seen: bool = False) -> None:
        """Count each length's display value ``floor(max(t, 0)) + 1``
        (the paper's convention, as in ``log_display_time``); new values
        become keys in first-seen or else ascending order."""
        display = np.floor(np.maximum(lengths, 0.0)).astype(np.int64) + 1
        self.counts.update(_tally(display, first_seen))

    def merge(self, other: "OnlineLogMoments") -> None:
        """Add ``other``'s counts to these."""
        self.counts.update(other.counts)

    def arrays(self) -> tuple[IntArray, IntArray]:
        """``(displays, counts)`` in ascending display order: the
        checkpoint form, read back by :meth:`from_arrays`."""
        items = sorted(self.counts.items())
        return (np.asarray([d for d, _ in items], dtype=np.int64),
                np.asarray([c for _, c in items], dtype=np.int64))

    @classmethod
    def from_arrays(cls, displays: IntArray, counts: IntArray
                    ) -> "OnlineLogMoments":
        """The accumulator whose :meth:`arrays` are the arguments."""
        moments = cls()
        moments.counts.update(dict(zip(
            np.asarray(displays, dtype=np.int64).tolist(),
            np.asarray(counts, dtype=np.int64).tolist(), strict=True)))
        return moments

    @property
    def n(self) -> int:
        return sum(self.counts.values())

    def moments(self) -> tuple[float, float]:
        """The ``(mu, sigma)`` of ``log(display)`` over the counts."""
        n = self.n
        if n == 0:
            return 0.0, 0.0
        items = sorted(self.counts.items())
        logs = [(math.log(display), count) for display, count in items]
        mu = sum(value * count for value, count in logs) / n
        if n < 2:
            return mu, 0.0
        m2 = sum((value - mu) ** 2 * count for value, count in logs)
        return mu, math.sqrt(m2 / n)


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
        Accumulated ``duration * bandwidth / 8``.
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


class StreamingCharacterizer:
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

    def __init__(self, *, diurnal_bins: int = 96,
                 bandwidth_edges: FloatArray | None = None) -> None:
        if diurnal_bins < 1:
            raise ValueError("diurnal_bins must be positive")
        self._log_length = OnlineLogMoments()
        self._bits = 0.0  # duration * bandwidth, divided by 8 at read time
        self._n_entries = 0
        self._n_skipped = 0
        self._congested = 0
        self._client_counts: Counter[str] = Counter()
        # The column path's client fold, keyed by client_index: sorted
        # distinct indices, each one's player ID, transfer count and the
        # consume_columns call that introduced it.  Moved into
        # _client_counts (by player ID) only when the counts are read.
        self._index: IntArray = np.empty(0, dtype=np.int64)
        self._names: _AnyArray = np.empty(0, dtype=np.str_)
        self._index_counts: IntArray = np.empty(0, dtype=np.int64)
        self._index_first: IntArray = np.empty(0, dtype=np.int64)
        self._column_calls = 0
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
        are opened with ``errors="replace"`` so undecodable bytes in a
        corrupt harvest count as skipped lines instead of aborting.
        """
        if isinstance(source, (str, Path)):
            with open(source, "r", encoding="ascii",
                      errors="replace") as stream:
                return self.consume(stream)
        return sum(self.consume_parsed(batch)
                   for batch in parse_log_stream(source))

    def consume_lines(self, lines: Iterable[str],
                      fields: Sequence[str]) -> int:
        """Consume pre-split data lines against a known field layout.

        The chunked ingestion path: callers that already located the
        ``#Fields`` header (e.g. :func:`repro.parallel.characterize_logs`
        workers fed byte ranges of a split log) hand the layout in
        directly.  Otherwise as :meth:`consume` (``bytes_served`` adds up
        entry by entry, see :meth:`consume_parsed`); returns the number
        of entries parsed.
        """
        return sum(self.consume_parsed(batch)
                   for batch in parse_log_stream(lines, fields))

    def consume_parsed(self, batch: ParsedLog) -> int:
        """Fold one :func:`~repro.trace.wms_log.parse_log_lines` batch
        (the text path of every reader); returns its entry count.

        Skipped lines count toward ``n_skipped``; entries take the fold of
        :meth:`consume_columns`, except that ``bytes_served`` is summed
        entry by entry in line order (``np.add.accumulate`` seeded with
        the running total), so the sum does not depend on batching.  New
        clients, feeds and lengths become :meth:`state_dict` keys in
        first-seen order.
        """
        self._fold_indexed_clients()
        self._n_skipped += len(batch.errors)
        columns = batch.columns
        duration, bandwidth = columns["duration"], columns["bandwidth_bps"]
        self._bits = float(np.add.accumulate(np.concatenate((
            [self._bits], duration * np.maximum(bandwidth, 0.0))))[-1])
        self._client_counts.update(batch.players)
        self._fold(duration, bandwidth, columns["timestamp"],
                   columns["object_id"], first_seen=True)
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
        bit-identical to the parsed text fields, so every count and bin
        agrees entry for entry.  Only ``bytes_served`` is summed
        differently: one ``np.dot`` per call here, the grouping the
        binary format fixes (a segment per writer flush), where text,
        which has no such grouping, adds entry by entry.  Call it once
        per segment: the order of the calls is the order of that sum.

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
        self._bits += float(np.dot(np.maximum(duration, 0.0),
                                   np.maximum(bandwidth, 0.0)))
        self._fold(duration, bandwidth,
                   np.asarray(columns["timestamp"], dtype=np.int64),
                   np.asarray(columns["object_id"], dtype=np.int64),
                   first_seen=False)
        return n

    def _fold(self, duration: FloatArray, bandwidth: FloatArray,
              timestamp: IntArray, feed: IntArray, *,
              first_seen: bool) -> None:
        """The accumulators shared by the text and column paths: all
        but ``bytes_served`` and the client counts."""
        self._n_entries += int(duration.size)
        self._log_length.add_lengths(duration, first_seen=first_seen)
        self._feed_counts.update(_tally(feed, first_seen))
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
            self._index_first = np.insert(self._index_first, at,
                                          self._column_calls)
        self._column_calls += 1

    def _indexed_client_items(self) -> list[tuple[str, int]]:
        """The pending per-index counts as ``(player, count)`` pairs.

        Ordered by the call that introduced each index, then by player
        ID — the order in which a per-segment fold keyed by player ID
        would first have inserted them, so the folded dict (and the
        :meth:`state_dict` document) keeps the same key order.
        """
        order = np.lexsort((self._names, self._index_first))
        return list(zip(self._names[order].tolist(),
                        self._index_counts[order].tolist(), strict=True))

    def _fold_indexed_clients(self) -> None:
        """Move the per-index client counts to player-ID keys."""
        if not self._index.size:
            return
        for player, count in self._indexed_client_items():
            self._client_counts[player] += count
        self._index = np.empty(0, dtype=np.int64)
        self._names = np.empty(0, dtype=np.str_)
        self._index_counts = np.empty(0, dtype=np.int64)
        self._index_first = np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def merge(self, other: "StreamingCharacterizer"
              ) -> "StreamingCharacterizer":
        """Fold ``other``'s accumulated state into this characterizer.

        The merge is exact: feeding two characterizers disjoint parts of
        a log and merging reports the same :class:`StreamingSummary` as
        one characterizer fed everything (see the module docstring for
        why this extends to the floating-point fields).  Both sides must
        have been built with the same ``diurnal_bins`` and
        ``bandwidth_edges``.  Returns ``self`` for chaining; ``other``
        is left unchanged.

        Raises
        ------
        ValueError
            If the two characterizers' binning configurations differ.
        """
        if not np.array_equal(self._edges, other._edges):
            raise ValueError("cannot merge: bandwidth_edges differ")
        if self._diurnal.size != other._diurnal.size:
            raise ValueError("cannot merge: diurnal_bins differ")
        self._fold_indexed_clients()
        self._log_length.merge(other._log_length)
        self._bits += other._bits
        self._n_entries += other._n_entries
        self._n_skipped += other._n_skipped
        self._congested += other._congested
        self._client_counts.update(other._client_counts)
        for player, count in other._indexed_client_items():
            self._client_counts[player] += count
        self._feed_counts.update(other._feed_counts)
        self._bandwidth_hist += other._bandwidth_hist
        self._diurnal += other._diurnal
        return self

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """The full accumulator state as a JSON-serializable dict.

        Everything the characterizer holds is either integer counts or
        floats whose JSON round trip is exact (Python serializes floats
        via their shortest exact representation), so
        ``StreamingCharacterizer.from_state_dict(c.state_dict())`` resumes
        with *bit-identical* future summaries — the contract behind
        ``repro characterize --checkpoint/--resume``.
        """
        self._fold_indexed_clients()
        return {
            "length_counts": {str(display): count for display, count
                              in self._log_length.counts.items()},
            "bits": self._bits,
            "n_entries": self._n_entries,
            "n_skipped": self._n_skipped,
            "congested": self._congested,
            "client_counts": dict(self._client_counts),
            "feed_counts": {str(feed): count for feed, count
                            in self._feed_counts.items()},
            "bandwidth_edges": self._edges.tolist(),
            "bandwidth_histogram": self._bandwidth_hist.tolist(),
            "diurnal_counts": self._diurnal.tolist(),
        }

    @classmethod
    def from_state_dict(cls, state: dict[str, Any]
                        ) -> "StreamingCharacterizer":
        """Rebuild a characterizer from :meth:`state_dict` output."""
        characterizer = cls(
            diurnal_bins=len(state["diurnal_counts"]),
            bandwidth_edges=np.asarray(state["bandwidth_edges"],
                                       dtype=np.float64))
        characterizer._log_length.counts = Counter({
            int(display): int(count)
            for display, count in state["length_counts"].items()})
        characterizer._bits = float(state["bits"])
        characterizer._n_entries = int(state["n_entries"])
        characterizer._n_skipped = int(state["n_skipped"])
        characterizer._congested = int(state["congested"])
        characterizer._client_counts = Counter({
            str(player): int(count)
            for player, count in state["client_counts"].items()})
        characterizer._feed_counts = Counter({
            int(feed): int(count)
            for feed, count in state["feed_counts"].items()})
        characterizer._bandwidth_hist = np.asarray(
            state["bandwidth_histogram"], dtype=np.float64)
        characterizer._diurnal = np.asarray(state["diurnal_counts"],
                                            dtype=np.float64)
        return characterizer

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self, *, top_k: int = 10) -> StreamingSummary:
        """Snapshot the running statistics (cheap; call any time)."""
        self._fold_indexed_clients()
        top = sorted(self._client_counts.items(),
                     key=lambda item: (-item[1], item[0]))[:top_k]
        congested_fraction = (self._congested / self._n_entries
                              if self._n_entries else 0.0)
        length_log_mu, length_log_sigma = self._log_length.moments()
        return StreamingSummary(
            n_entries=self._n_entries,
            n_skipped=self._n_skipped,
            n_clients=len(self._client_counts),
            length_log_mu=length_log_mu,
            length_log_sigma=length_log_sigma,
            bytes_served=self._bits / 8.0,
            feed_counts=dict(sorted(self._feed_counts.items())),
            congestion_bound_fraction=congested_fraction,
            bandwidth_histogram=self._bandwidth_hist.copy(),
            bandwidth_edges=self._edges.copy(),
            diurnal_counts=self._diurnal.copy(),
            top_clients=tuple(top),
        )

    def client_counts(self) -> dict[str, int]:
        """The full per-client transfer counts (the interest profile)."""
        self._fold_indexed_clients()
        return dict(self._client_counts)
