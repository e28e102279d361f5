"""Interchangeable trace codecs: W3C text log and columnar binary.

The paper's pipeline round-trips month-scale traces through an on-disk
format between generation and characterization.  The original medium is
the WMS text log (:mod:`repro.trace.wms_log`); at the paper's scale that
log is hundreds of megabytes and re-parsing it line by line dominates
characterization cost.  This module makes the serialization pluggable:

* a **codec registry** (:func:`register_codec` / :func:`get_codec` /
  :func:`detect_codec`) with the text log refactored in as one codec, and
* a **columnar binary codec** whose decode path is NumPy-vectorized and
  memory-mapped — no per-line Python, no row dicts.

Binary on-disk layout (all integers little-endian)::

    magic   b"RTRCB01\\n"                                   (8 bytes)
    header  u32 length + UTF-8 JSON, zero-padded to 8 bytes
    blocks  client-identity blocks and entry segments, interleaved in
            write order, every array zero-padded to 8-byte alignment
    footer  UTF-8 JSON index of every block
    trailer u64 footer offset + magic b"RTRCEND\\n"         (16 bytes)

An **entry segment** is one flushed batch of the shared reorder buffer
(:class:`repro.trace.wms_log.StreamingTraceWriter`): the eight logical
entry columns (:data:`ENTRY_COLUMNS`), quantized to the text format's
resolution (whole-second timestamps and durations, whole-bps bandwidth,
four-decimal loss/CPU), each stored as ``value - min`` offsets in the
smallest unsigned dtype that spans the batch — a constant column stores
zero bytes.  A **client block** records the identities (IP, player ID,
OS) of clients first seen in that batch, as an ``int64`` index array plus
fixed-width UTF-8 string arrays.

Because both codecs share the reorder buffer and the binary quantization
mirrors the text formatting exactly (see :func:`quantize_entry_columns`),
a binary file and a text log written from the same stream decode to
bit-identical traces — the conform differential oracle asserts this.

The footer makes reads seekable: :class:`BinaryTraceReader` memory-maps
the file and materializes any single segment as column arrays without
touching the rest, which is what lets the parallel characterizer plan
byte-range chunks over binary traces.

``pyarrow`` would be a natural alternative backend; it stays optional and
is not required — the format above is pure NumPy.
"""

from __future__ import annotations

import abc
import json
from pathlib import Path
from typing import IO, Any, ClassVar, Iterator, Mapping, Sequence

import numpy as np
import numpy.typing as npt

from .._typing import FloatArray, IntArray
from ..arrayops import unique_integers
from ..errors import LogParseError, TraceError
from .store import ClientTable, Trace
from .wms_log import (
    ClientIdentity,
    IpResolver,
    StreamingTraceWriter,
    StreamingWmsLogWriter,
    _format_entry,
    _table_identity,
    read_wms_log,
    write_wms_log,
)

#: File magic opening every binary trace.
BINARY_MAGIC = b"RTRCB01\n"

#: Magic closing the 16-byte end trailer.
FOOTER_MAGIC = b"RTRCEND\n"

#: Bumped when the binary layout changes incompatibly.
BINARY_FORMAT_VERSION = 1

_TRAILER_LEN = 16

#: Logical per-entry columns of a binary segment, in on-disk order.
#: All are integers after quantization; ``*_q`` columns carry four
#: implied decimal places (value = q / 10**4).
ENTRY_COLUMNS: tuple[str, ...] = (
    "timestamp", "client_index", "object_id", "duration",
    "bandwidth_bps", "packet_loss_q", "server_cpu_q", "status",
)

#: Storage codes for narrowed segment columns, smallest first.
_NARROW_DTYPES: tuple[tuple[str, int], ...] = (
    ("u1", 1 << 8), ("u2", 1 << 16), ("u4", 1 << 32))

_DTYPE_SIZES: dict[str, int] = {"u1": 1, "u2": 2, "u4": 4, "u8": 8}

#: Largest slot lookup table, as a multiple of the declared client count;
#: sparser declared indices are looked up by binary search instead.
_SLOT_TABLE_FACTOR = 4


# ----------------------------------------------------------------------
# Quantization: the text format's resolution, exactly
# ----------------------------------------------------------------------
def quantize_decimal(values: FloatArray, decimals: int) -> IntArray:
    """Round ``values`` to ``decimals`` places, returning scaled integers.

    Matches ``float(f"{v:.{decimals}f}") * 10**decimals`` element-wise —
    i.e. the integer whose decimal string the text formatter would emit.
    Printf-style formatting rounds the *exact* binary value of the double
    half-to-even; ``np.rint(values * 10**decimals)`` does the same except
    when the scaling multiplication's rounding error pushes the product
    across a rounding boundary, which can only happen within a hair of a
    half-integer.  Those rare suspects are recomputed exactly through the
    formatter itself, so the vectorized fast path never changes a value.
    """
    scale = float(10 ** decimals)
    scaled = np.asarray(values, dtype=np.float64) * scale
    quantized = np.rint(scaled).astype(np.int64)
    fractional = scaled - np.floor(scaled)
    suspects = np.flatnonzero(np.abs(fractional - 0.5) < 1e-6)
    if suspects.size:
        exact = [int(f"{v:.{decimals}f}".replace(".", ""))
                 for v in np.asarray(values, dtype=np.float64)[suspects].tolist()]
        quantized[suspects] = np.asarray(exact, dtype=np.int64)
    return quantized


def quantize_entry_columns(emit: Mapping[str, Any]) -> dict[str, IntArray]:
    """Quantize one flushed writer batch to the integer entry columns.

    ``emit`` holds the reorder buffer's float/int columns (``end``,
    ``client_index``, ``object_id``, ``duration``, ``bandwidth_bps``,
    ``packet_loss``, ``server_cpu``, ``status``).  Every rounding rule
    mirrors the text writer: timestamps truncate (``int(end)``),
    durations round half-even (``round()``), bandwidth rounds half-even
    (``f"{bw:.0f}"``), loss/CPU quantize to four decimals
    (``f"{v:.4f}"``).
    """
    end = np.asarray(emit["end"], dtype=np.float64)
    return {
        # C-cast truncation toward zero == Python int(end) for floats.
        "timestamp": end.astype(np.int64),
        "client_index": np.asarray(emit["client_index"], dtype=np.int64),
        "object_id": np.asarray(emit["object_id"], dtype=np.int64),
        "duration": np.rint(
            np.asarray(emit["duration"], dtype=np.float64)).astype(np.int64),
        "bandwidth_bps": np.rint(
            np.asarray(emit["bandwidth_bps"],
                       dtype=np.float64)).astype(np.int64),
        "packet_loss_q": quantize_decimal(
            np.asarray(emit["packet_loss"], dtype=np.float64), 4),
        "server_cpu_q": quantize_decimal(
            np.asarray(emit["server_cpu"], dtype=np.float64), 4),
        "status": np.asarray(emit["status"], dtype=np.int64),
    }


def decode_entry_columns(quantized: Mapping[str, IntArray]
                         ) -> dict[str, FloatArray | IntArray]:
    """Decode integer entry columns to trace-domain column arrays.

    Inverse of :func:`quantize_entry_columns` *composed with the text
    parser*: ``start = timestamp - duration`` and
    ``loss = q / 10**4`` reproduce, bit for bit, the doubles
    :func:`repro.trace.wms_log.read_wms_log` obtains from the formatted
    strings (integer-valued doubles are exact; IEEE division is
    correctly rounded, as is ``float()`` of the decimal string).
    """
    timestamp = np.asarray(quantized["timestamp"], dtype=np.int64)
    duration = np.asarray(quantized["duration"],
                          dtype=np.int64).astype(np.float64)
    return {
        "timestamp": timestamp,
        "client_index": np.asarray(quantized["client_index"], dtype=np.int64),
        "object_id": np.asarray(quantized["object_id"], dtype=np.int64),
        "start": timestamp.astype(np.float64) - duration,
        "duration": duration,
        "bandwidth_bps": np.asarray(quantized["bandwidth_bps"],
                                    dtype=np.int64).astype(np.float64),
        "packet_loss": np.asarray(quantized["packet_loss_q"],
                                  dtype=np.int64).astype(np.float64) / 1e4,
        "server_cpu": np.asarray(quantized["server_cpu_q"],
                                 dtype=np.int64).astype(np.float64) / 1e4,
        "status": np.asarray(quantized["status"], dtype=np.int64),
    }


def format_quantized_entry(quantized: Mapping[str, IntArray], row: int,
                           identity: ClientIdentity) -> str:
    """Format one quantized binary entry as its text-log line.

    Used by the differential oracle to prove entry-stream byte identity:
    iterating a binary trace's segments in file order and formatting each
    entry through the text formatter must reproduce the text log's data
    lines exactly.
    """
    ip, player_id, os_name = identity(int(quantized["client_index"][row]))
    return _format_entry(
        timestamp=int(quantized["timestamp"][row]),
        ip=ip, player_id=player_id, os_name=os_name,
        object_id=int(quantized["object_id"][row]),
        duration=int(quantized["duration"][row]),
        bandwidth=float(quantized["bandwidth_bps"][row]),
        loss=float(quantized["packet_loss_q"][row]) / 1e4,
        cpu=float(quantized["server_cpu_q"][row]) / 1e4,
        status=int(quantized["status"][row]))


def _narrow_code(span: int) -> str:
    for code, limit in _NARROW_DTYPES:
        if span < limit:
            return code
    return "u8"


# ----------------------------------------------------------------------
# Incremental binary writer
# ----------------------------------------------------------------------
class BinaryTraceWriter(StreamingTraceWriter):
    """Writes the columnar binary trace format incrementally.

    Shares the reorder buffer (and therefore the emitted entry order)
    with the text writer — see :class:`StreamingTraceWriter`.  Each
    flushed batch becomes one entry segment, preceded by a client block
    when the batch introduces clients not written before; the footer
    index is emitted by :meth:`finish`.

    Checkpoint/resume support extends the base writer's: scalar state
    (:meth:`state_meta`) carries the byte offset and the block index
    accumulated so far, so a resumed writer — pointed at the file
    truncated back to that offset — continues the index seamlessly.

    Parameters
    ----------
    stream:
        Open *binary* stream positioned at the write point.
    identity:
        See :class:`StreamingTraceWriter`.
    software:
        Provenance string recorded in the header and footer (the text
        codec's ``#Software`` value).
    write_header:
        Write the magic + header immediately; pass ``False`` when
        resuming into an existing file.
    """

    def __init__(self, stream: IO[bytes], identity: ClientIdentity, *,
                 software: str = "Windows Media Services 4.1",
                 write_header: bool = True) -> None:
        super().__init__(identity)
        self._stream = stream
        self._software = software
        self._offset = 0
        self._segments: list[dict[str, Any]] = []
        self._clients: list[dict[str, Any]] = []
        self._seen: IntArray = np.empty(0, dtype=np.int64)  # sorted
        self._footer_written = False
        if write_header:
            header = json.dumps(
                {"version": BINARY_FORMAT_VERSION, "software": software},
                sort_keys=True).encode("utf-8")
            stream.write(BINARY_MAGIC)
            stream.write(len(header).to_bytes(4, "little"))
            self._offset = len(BINARY_MAGIC) + 4 + len(header)
            stream.write(header)
            pad = (-self._offset) % 8
            if pad:
                stream.write(b"\x00" * pad)
                self._offset += pad

    @property
    def byte_offset(self) -> int:
        """Bytes written so far (the resume truncation point)."""
        return self._offset

    def _write_block(self, data: bytes) -> int:
        """Write ``data`` zero-padded to 8 bytes; return its offset."""
        offset = self._offset
        self._stream.write(data)
        pad = (-len(data)) % 8
        if pad:
            self._stream.write(b"\x00" * pad)
        self._offset += len(data) + pad
        return offset

    def _emit_entries(self, emit: Mapping[str, Any]) -> None:
        quantized = quantize_entry_columns(emit)
        client = quantized["client_index"]

        unique, first_pos, _, _ = unique_integers(client)
        at = np.searchsorted(self._seen, unique)
        fresh_mask = np.ones(unique.size, dtype=bool)
        inside = at < self._seen.size
        fresh_mask[inside] = self._seen[at[inside]] != unique[inside]
        if np.any(fresh_mask):
            # First-appearance order within the batch, for determinism.
            fresh = unique[fresh_mask]
            fresh = fresh[np.argsort(first_pos[fresh_mask], kind="stable")]
            ips: list[str] = []
            players: list[str] = []
            os_names: list[str] = []
            for index in fresh.tolist():
                ip, player_id, os_name = self._identity(int(index))
                ips.append(ip)
                players.append(player_id)
                # The text writer substitutes "-" for an empty OS; store
                # the substituted value so decodes agree byte for byte.
                os_names.append(os_name or "-")
            block: dict[str, Any] = {
                "n": int(fresh.size),
                "index_offset": self._write_block(
                    fresh.astype(np.dtype("<i8")).tobytes()),
            }
            for key, strings in (("ips", ips), ("player_ids", players),
                                 ("os_names", os_names)):
                encoded = np.asarray([s.encode("utf-8") for s in strings],
                                     dtype=np.bytes_)
                itemsize = max(1, encoded.dtype.itemsize)
                block[key] = {
                    "offset": self._write_block(
                        encoded.astype(np.dtype(f"S{itemsize}")).tobytes()),
                    "itemsize": itemsize,
                }
            self._clients.append(block)
            self._seen = np.insert(self._seen, at[fresh_mask],
                                   unique[fresh_mask])

        columns: dict[str, dict[str, Any]] = {}
        for name in ENTRY_COLUMNS:
            column = quantized[name]
            base = int(column.min())
            span = int(column.max()) - base
            if span == 0:
                # Constant column: the footer descriptor is the storage.
                columns[name] = {"offset": 0, "dtype": None, "base": base}
            else:
                code = _narrow_code(span)
                packed = (column - base).astype(np.dtype("<" + code))
                columns[name] = {"offset": self._write_block(packed.tobytes()),
                                 "dtype": code, "base": base}
        self._segments.append({"rows": int(client.size), "columns": columns})

    def finish(self) -> int:
        """Flush the buffer and append the footer index + end trailer."""
        super().finish()
        if not self._footer_written:
            footer = json.dumps(
                {"version": BINARY_FORMAT_VERSION,
                 "software": self._software,
                 "n_entries": self.n_written,
                 "segments": self._segments,
                 "clients": self._clients},
                sort_keys=True).encode("utf-8")
            self._stream.write(footer)
            self._stream.write(self._offset.to_bytes(8, "little"))
            self._stream.write(FOOTER_MAGIC)
            self._offset += len(footer) + _TRAILER_LEN
            self._footer_written = True
        return self.n_written

    def state_meta(self) -> dict[str, Any]:
        meta = super().state_meta()
        meta.update({
            "offset": self._offset,
            "segments": list(self._segments),
            "clients": list(self._clients),
        })
        return meta

    def state_arrays(self) -> dict[str, Any]:
        arrays = super().state_arrays()
        arrays["seen_clients"] = self._seen.copy()
        return arrays

    def restore(self, meta: Mapping[str, Any],
                arrays: Mapping[str, Any]) -> None:
        super().restore(meta, arrays)
        self._offset = int(meta["offset"])
        self._segments = [dict(seg) for seg in meta["segments"]]
        self._clients = [dict(block) for block in meta["clients"]]
        self._seen = np.unique(
            np.asarray(arrays["seen_clients"], dtype=np.int64))
        self._footer_written = False


# ----------------------------------------------------------------------
# Memory-mapped binary reader
# ----------------------------------------------------------------------
class BinaryTraceReader:
    """Zero-copy segment-at-a-time access to a binary trace file.

    The file is memory-mapped once; :meth:`segment_quantized` reconstructs
    one segment's integer entry columns from the mapped bytes (a dtype
    view plus one vectorized widen-and-shift — no row objects), so a
    reader over a month-scale trace touches only the pages a consumer
    actually asks for.  Usable as a context manager.
    """

    def __init__(self, path: str | Path) -> None:
        self._path = Path(path)
        self._mm: np.memmap | None = np.memmap(self._path, dtype=np.uint8,
                                               mode="r")
        self._footer = _read_footer(self._mm, self._path)

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Release the memory map."""
        self._mm = None

    def __enter__(self) -> "BinaryTraceReader":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    @property
    def _map(self) -> np.memmap:
        if self._mm is None:
            raise TraceError(f"binary trace reader for {self._path} is closed")
        return self._mm

    # -- footer accessors ----------------------------------------------
    @property
    def footer(self) -> dict[str, Any]:
        """The parsed footer index (do not mutate)."""
        return self._footer

    @property
    def n_entries(self) -> int:
        """Total entries across all segments."""
        return int(self._footer["n_entries"])

    @property
    def n_segments(self) -> int:
        """Number of entry segments in the file."""
        return len(self._footer["segments"])

    def segment_rows(self) -> list[int]:
        """Per-segment entry counts, in file order."""
        return [int(seg["rows"]) for seg in self._footer["segments"]]

    # -- column access -------------------------------------------------
    def segment_quantized(self, index: int) -> dict[str, IntArray]:
        """Integer entry columns of segment ``index`` (file order)."""
        seg = self._footer["segments"][index]
        rows = int(seg["rows"])
        mm = self._map
        out: dict[str, IntArray] = {}
        for name in ENTRY_COLUMNS:
            desc = seg["columns"][name]
            base = int(desc["base"])
            code = desc["dtype"]
            if code is None:
                out[name] = np.full(rows, base, dtype=np.int64)
            else:
                offset = int(desc["offset"])
                nbytes = rows * _DTYPE_SIZES[code]
                if offset + nbytes > mm.size:
                    raise TraceError(
                        f"{self._path}: segment {index} column {name} "
                        "extends past end of file")
                raw = mm[offset:offset + nbytes].view(np.dtype("<" + code))
                out[name] = base + raw.astype(np.int64)
        return out

    def segment_columns(self, index: int) -> dict[str, FloatArray | IntArray]:
        """Decoded trace-domain columns of segment ``index``."""
        return decode_entry_columns(self.segment_quantized(index))

    def iter_quantized(self, segments: Sequence[int] | None = None
                       ) -> Iterator[dict[str, IntArray]]:
        """Yield integer entry columns segment by segment.

        ``segments`` restricts (and orders) the walk; default is every
        segment in file order.
        """
        indices = (range(self.n_segments) if segments is None
                   else [int(k) for k in segments])
        for index in indices:
            yield self.segment_quantized(index)

    def all_quantized(self) -> dict[str, IntArray]:
        """All integer entry columns, concatenated in file order."""
        parts = [self.segment_quantized(k) for k in range(self.n_segments)]
        if not parts:
            return {name: np.empty(0, dtype=np.int64)
                    for name in ENTRY_COLUMNS}
        return {name: np.concatenate([part[name] for part in parts])
                for name in ENTRY_COLUMNS}

    # -- client identities ---------------------------------------------
    def _read_strings(self, desc: Mapping[str, Any], n: int) -> list[str]:
        itemsize = int(desc["itemsize"])
        offset = int(desc["offset"])
        raw = self._map[offset:offset + n * itemsize]
        return [b.decode("utf-8")
                for b in raw.view(np.dtype(f"S{itemsize}")).tolist()]

    def client_identity_map(self) -> dict[int, tuple[str, str, str]]:
        """``original client index -> (ip, player_id, os_name)``."""
        identities: dict[int, tuple[str, str, str]] = {}
        for block in self._footer["clients"]:
            n = int(block["n"])
            index_offset = int(block["index_offset"])
            indices = self._map[index_offset:index_offset + n * 8].view(
                np.dtype("<i8"))
            ips = self._read_strings(block["ips"], n)
            players = self._read_strings(block["player_ids"], n)
            os_names = self._read_strings(block["os_names"], n)
            for k, index in enumerate(indices.tolist()):
                identities[int(index)] = (ips[k], players[k], os_names[k])
        return identities

    def declared_clients(self) -> tuple[IntArray, list[tuple[str, str, str]]]:
        """The declared client indices, sorted, and each one's identity.

        The slot of a client is its position here — the domain of
        :func:`declared_client_slots`.
        """
        identities = self.client_identity_map()
        declared = np.sort(np.fromiter(identities, dtype=np.int64,
                                       count=len(identities)))
        return declared, [identities[index] for index in declared.tolist()]

    def identity_lookup(self) -> ClientIdentity:
        """The identity map as a callable (for entry formatting)."""
        identities = self.client_identity_map()

        def identity(index: int) -> tuple[str, str, str]:
            try:
                return identities[index]
            except KeyError:
                raise TraceError(
                    f"{self._path}: entry references client {index} "
                    "absent from every client block") from None
        return identity


def _read_footer(mm: np.memmap, path: Path) -> dict[str, Any]:
    if mm.size < len(BINARY_MAGIC) + _TRAILER_LEN:
        raise TraceError(f"{path}: too short to be a binary trace")
    if bytes(mm[:len(BINARY_MAGIC)].tobytes()) != BINARY_MAGIC:
        raise TraceError(f"{path}: not a binary trace (bad magic)")
    trailer = mm[mm.size - _TRAILER_LEN:].tobytes()
    if trailer[8:] != FOOTER_MAGIC:
        raise TraceError(
            f"{path}: missing end trailer — file is truncated or the "
            "writer never ran finish()")
    offset = int.from_bytes(trailer[:8], "little")
    if not len(BINARY_MAGIC) <= offset <= mm.size - _TRAILER_LEN:
        raise TraceError(f"{path}: footer offset {offset} out of range")
    try:
        footer = json.loads(
            mm[offset:mm.size - _TRAILER_LEN].tobytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceError(f"{path}: footer index is corrupt: {exc}") from exc
    version = footer.get("version")
    if version != BINARY_FORMAT_VERSION:
        raise TraceError(
            f"{path}: binary format version {version!r}, this build "
            f"reads version {BINARY_FORMAT_VERSION}")
    return dict(footer)


def declared_client_slots(declared: IntArray, client: IntArray, *,
                          source: str | Path) -> npt.NDArray[np.intp]:
    """Position of each entry's client among the ``declared`` indices.

    ``declared`` holds the client indices of a file's client blocks,
    sorted and distinct; ``client`` an entry ``client_index`` column.
    Every index is checked before any lookup: a negative, dangling or
    otherwise undeclared index raises instead of wrapping around.  The
    lookup is a table over the declared span when that span is at most
    ``_SLOT_TABLE_FACTOR`` times the declared count, and a binary search
    otherwise, so no allocation is sized by an index value.

    Raises
    ------
    TraceError
        Naming the first entry (in column order) whose client no client
        block declares.
    """
    client = np.asarray(client, dtype=np.int64)
    if not declared.size:
        slots = np.zeros(client.size, dtype=np.intp)
        valid = np.zeros(client.size, dtype=bool)
    else:
        low, high = int(declared[0]), int(declared[-1])
        valid = (client >= low) & (client <= high)
        if high - low < _SLOT_TABLE_FACTOR * declared.size:
            table = np.full(high - low + 1, -1, dtype=np.intp)
            table[declared - low] = np.arange(declared.size)
            slots = table[np.where(valid, client - low, 0)]
            valid &= slots >= 0
        else:
            slots = np.searchsorted(declared, client)
            valid &= declared[np.minimum(slots, declared.size - 1)] == client
    if not np.all(valid):
        index = int(client[np.argmin(valid)])
        raise TraceError(f"{source}: entry references client {index} "
                         "absent from every client block")
    return slots


# ----------------------------------------------------------------------
# One-shot binary write / read
# ----------------------------------------------------------------------
def write_binary_trace(trace: Trace, path: str | Path, *,
                       software: str = "Windows Media Services 4.1") -> int:
    """Write ``trace`` as a binary trace file; returns the entry count.

    The one-shot front end to :class:`BinaryTraceWriter`, mirroring
    :func:`repro.trace.wms_log.write_wms_log`: the whole trace is pushed
    as a single batch, so entries land in the same ``(end, position)``
    order as the text log's lines.
    """
    with open(path, "wb") as stream:
        writer = BinaryTraceWriter(stream, _table_identity(trace),
                                   software=software)
        writer.push(
            client_index=trace.client_index, object_id=trace.object_id,
            start=trace.start, duration=trace.duration,
            bandwidth_bps=trace.bandwidth_bps,
            packet_loss=trace.packet_loss, server_cpu=trace.server_cpu,
            status=trace.status, global_offset=0, horizon=-np.inf)
        return writer.finish()


def read_binary_trace(path: str | Path, *,
                      resolver: IpResolver | None = None,
                      extent: float | None = None) -> Trace:
    """Decode a binary trace file into a :class:`Trace`.

    Produces a trace bit-identical to parsing the corresponding text log
    with :func:`repro.trace.wms_log.read_wms_log`: clients are re-interned
    in order of first appearance in the entry stream (exactly what the
    text parser's interning dictionary does), column doubles reconstruct
    the parsed string values (see :func:`decode_entry_columns`), and the
    :class:`Trace` constructor applies the same stable start sort.

    Interning works on integers: every entry's index is validated and
    mapped to its slot among the declared clients
    (:func:`declared_client_slots`), one reversed scatter over those
    slots finds each client's first appearance, and identity strings
    (and the resolver) are touched once per client that appears.

    Parameters
    ----------
    path:
        Binary trace file written by :class:`BinaryTraceWriter`.
    resolver:
        Optional ``ip -> (as_number, country)`` mapping, as in
        :func:`read_wms_log`.
    extent:
        Observation-window override, as in :func:`read_wms_log`.

    Raises
    ------
    TraceError
        On structural corruption (bad magic, missing trailer, dangling
        client references).
    """
    with BinaryTraceReader(path) as reader:
        quantized = reader.all_quantized()
        declared, identities = reader.declared_clients()

    slots = declared_client_slots(declared, quantized["client_index"],
                                  source=path)
    n = slots.size
    # Reversed scatter: the last write to a slot wins, so each slot keeps
    # the position of its first entry; n marks slots no entry uses.
    first_pos = np.full(declared.size, n, dtype=np.intp)
    first_pos[slots[::-1]] = np.arange(n - 1, -1, -1, dtype=np.intp)
    used = np.flatnonzero(first_pos < n)
    appearance = used[np.argsort(first_pos[used], kind="stable")]
    rank = np.empty(declared.size, dtype=np.int64)
    rank[appearance] = np.arange(appearance.size, dtype=np.int64)
    dense = rank[slots]

    ips: list[str] = []
    players: list[str] = []
    os_names: list[str] = []
    as_numbers: list[int] = []
    countries: list[str] = []
    for slot in appearance.tolist():
        ip, player_id, os_name = identities[slot]
        ips.append(ip)
        players.append(player_id)
        os_names.append(os_name)
        as_number, country = (resolver(ip) if resolver is not None
                              else (0, ""))
        as_numbers.append(as_number)
        countries.append(country)

    decoded = decode_entry_columns(quantized)
    clients = ClientTable(player_ids=players, ips=ips,
                          as_numbers=as_numbers, countries=countries,
                          os_names=os_names)
    return Trace(
        clients=clients,
        client_index=dense,
        object_id=decoded["object_id"],
        start=decoded["start"],
        duration=decoded["duration"],
        bandwidth_bps=decoded["bandwidth_bps"],
        packet_loss=decoded["packet_loss"],
        server_cpu=decoded["server_cpu"],
        status=decoded["status"],
        extent=extent,
    )


# ----------------------------------------------------------------------
# Codec registry
# ----------------------------------------------------------------------
class TraceCodec(abc.ABC):
    """One interchangeable on-disk trace serialization.

    A codec bundles the one-shot write/read pair with the stream plumbing
    the streaming pipeline needs (fresh open, resume reopen, incremental
    writer construction).  Writers returned by :meth:`make_writer` all
    derive from :class:`StreamingTraceWriter`, so the pipeline drives
    them identically regardless of format.
    """

    #: Registry key (the CLI ``--codec`` value).
    name: ClassVar[str] = ""

    #: Conventional filename suffix.
    suffix: ClassVar[str] = ""

    @abc.abstractmethod
    def write(self, trace: Trace, path: str | Path, *,
              software: str = "Windows Media Services 4.1") -> int:
        """Serialize a whole trace to ``path``; returns the entry count."""

    @abc.abstractmethod
    def read(self, path: str | Path, *,
             resolver: IpResolver | None = None,
             extent: float | None = None,
             on_error: str = "raise",
             error_sink: list[LogParseError] | None = None) -> Trace:
        """Deserialize ``path`` back into a :class:`Trace`."""

    @abc.abstractmethod
    def open_stream(self, path: str | Path) -> IO[Any]:
        """Open ``path`` fresh for incremental writing."""

    @abc.abstractmethod
    def reopen_stream(self, path: str | Path, offset: int) -> IO[Any]:
        """Reopen ``path`` for resume: truncate to ``offset`` and seek."""

    @abc.abstractmethod
    def make_writer(self, stream: IO[Any], identity: ClientIdentity, *,
                    software: str = "Windows Media Services 4.1",
                    write_header: bool = True) -> StreamingTraceWriter:
        """Build the incremental writer for an open stream."""


class TextTraceCodec(TraceCodec):
    """The WMS W3C-style text log (:mod:`repro.trace.wms_log`)."""

    name = "text"
    suffix = ".log"

    def write(self, trace: Trace, path: str | Path, *,
              software: str = "Windows Media Services 4.1") -> int:
        return write_wms_log(trace, path, software=software)

    def read(self, path: str | Path, *,
             resolver: IpResolver | None = None,
             extent: float | None = None,
             on_error: str = "raise",
             error_sink: list[LogParseError] | None = None) -> Trace:
        return read_wms_log(path, resolver=resolver, extent=extent,
                            on_error=on_error, error_sink=error_sink)

    def open_stream(self, path: str | Path) -> IO[Any]:
        return open(path, "w", encoding="ascii")

    def reopen_stream(self, path: str | Path, offset: int) -> IO[Any]:
        # noqa-justified: ownership of the open stream passes to the caller.
        stream = open(path, "r+", encoding="ascii")  # noqa: SIM115
        stream.truncate(offset)
        stream.seek(offset)
        return stream

    def make_writer(self, stream: IO[Any], identity: ClientIdentity, *,
                    software: str = "Windows Media Services 4.1",
                    write_header: bool = True) -> StreamingTraceWriter:
        return StreamingWmsLogWriter(stream, identity, software=software,
                                     write_header=write_header)


class BinaryTraceCodec(TraceCodec):
    """The columnar binary format defined by this module.

    ``on_error`` / ``error_sink`` are accepted for interface parity but
    unused: the binary format has no line-level corruption mode —
    structural damage raises :class:`~repro.errors.TraceError`.
    """

    name = "binary"
    suffix = ".rtb"

    def write(self, trace: Trace, path: str | Path, *,
              software: str = "Windows Media Services 4.1") -> int:
        return write_binary_trace(trace, path, software=software)

    def read(self, path: str | Path, *,
             resolver: IpResolver | None = None,
             extent: float | None = None,
             on_error: str = "raise",
             error_sink: list[LogParseError] | None = None) -> Trace:
        return read_binary_trace(path, resolver=resolver, extent=extent)

    def open_stream(self, path: str | Path) -> IO[Any]:
        return open(path, "wb")

    def reopen_stream(self, path: str | Path, offset: int) -> IO[Any]:
        # noqa-justified: ownership of the open stream passes to the caller.
        stream = open(path, "r+b")  # noqa: SIM115
        stream.truncate(offset)
        stream.seek(offset)
        return stream

    def make_writer(self, stream: IO[Any], identity: ClientIdentity, *,
                    software: str = "Windows Media Services 4.1",
                    write_header: bool = True) -> StreamingTraceWriter:
        return BinaryTraceWriter(stream, identity, software=software,
                                 write_header=write_header)


_CODECS: dict[str, TraceCodec] = {}


def register_codec(codec: TraceCodec) -> None:
    """Register ``codec`` under its ``name``.

    Raises
    ------
    TraceError
        If the name is empty or already taken.
    """
    if not codec.name:
        raise TraceError("codec has no name")
    if codec.name in _CODECS:
        raise TraceError(f"codec {codec.name!r} is already registered")
    _CODECS[codec.name] = codec


def available_codecs() -> tuple[str, ...]:
    """Registered codec names, sorted."""
    return tuple(sorted(_CODECS))


def get_codec(name: str) -> TraceCodec:
    """Look up a codec by name.

    Raises
    ------
    TraceError
        For an unknown name (the message lists what is available).
    """
    try:
        return _CODECS[name]
    except KeyError:
        raise TraceError(
            f"unknown trace codec {name!r}; available: "
            f"{', '.join(available_codecs())}") from None


def detect_codec(path: str | Path) -> str:
    """Identify the codec of an existing trace file by its leading bytes.

    A file opening with the binary magic is ``"binary"``; anything else
    is assumed to be a text log.
    """
    with open(path, "rb") as stream:
        return ("binary" if stream.read(len(BINARY_MAGIC)) == BINARY_MAGIC
                else "text")


register_codec(TextTraceCodec())
register_codec(BinaryTraceCodec())
