"""Ingest wire protocol: handshake line + length-prefixed binary frames.

Every TCP ingest connection opens with one ASCII handshake line::

    REPRO-SERVE/1 <codec> <feed>\\n

where ``codec`` is ``text`` or ``binary`` and ``feed`` names the logical
feed the connection contributes to (many connections may share a feed).
After the handshake, a *text* connection streams raw WMS log lines —
headers included — exactly as they appear in a log file.  A *binary*
connection streams frames::

    type    u8                                  (1 byte)
    length  u32 little-endian payload size      (4 bytes)
    payload ``length`` bytes

Frame types:

* ``FRAME_META`` — JSON object of free-form sender metadata.
* ``FRAME_CLIENTS`` — JSON array of ``[index, ip, player_id, os_name]``
  rows declaring client identities; entries may only reference indices
  declared by an earlier CLIENTS frame on the same feed.
* ``FRAME_ENTRIES`` — one quantized entry batch: ``u32 rows`` followed by
  the eight :data:`~repro.trace.codecs.ENTRY_COLUMNS` arrays, each
  ``rows`` little-endian ``i64`` values, in column order.  A frame is
  the wire form of one on-disk binary segment
  (:meth:`~repro.trace.codecs.BinaryTraceReader.segment_quantized`), so
  replaying a ``.rtb`` file frame-per-segment reproduces the batch
  characterizer's accumulation grouping exactly.
* ``FRAME_END`` — empty payload; the sender is done and wants the
  connection summary.

Everything here is synchronous bytes-in/bytes-out (testable without an
event loop); :mod:`repro.serve.service` drives it from asyncio readers.
"""

from __future__ import annotations

import json
import re
import struct
from typing import Any, Mapping, Sequence

import numpy as np

from .._typing import IntArray
from ..errors import ProtocolError
from ..trace.codecs import ENTRY_COLUMNS

#: Handshake line prefix (protocol version 1).
HANDSHAKE_PREFIX = "REPRO-SERVE/1"

#: Hard ceiling on a single frame payload; anything larger is a protocol
#: error (guards the server against a garbage length prefix).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Frame type codes.
FRAME_META = 1
FRAME_CLIENTS = 2
FRAME_ENTRIES = 3
FRAME_END = 4

_FRAME_TYPES = frozenset((FRAME_META, FRAME_CLIENTS, FRAME_ENTRIES,
                          FRAME_END))

_HEADER = struct.Struct("<BI")

#: Feed names: short, filesystem/JSON-friendly tokens.
_FEED_NAME = re.compile(r"^[A-Za-z0-9._-]{1,64}$")

#: Codecs a handshake may declare.
_CODECS = ("text", "binary")


def format_handshake(codec: str, feed: str) -> bytes:
    """The handshake line a client sends to open an ingest connection."""
    if codec not in _CODECS:
        raise ProtocolError(f"unknown ingest codec {codec!r}")
    if not _FEED_NAME.match(feed):
        raise ProtocolError(
            f"invalid feed name {feed!r} (want 1-64 chars of "
            "[A-Za-z0-9._-])")
    return f"{HANDSHAKE_PREFIX} {codec} {feed}\n".encode("ascii")


def parse_handshake(line: bytes) -> tuple[str, str]:
    """Parse a handshake line into ``(codec, feed)``.

    Raises
    ------
    ProtocolError
        If the line is not a valid version-1 handshake.
    """
    try:
        text = line.decode("ascii").strip()
    except UnicodeDecodeError as exc:
        raise ProtocolError("handshake line is not ASCII") from exc
    parts = text.split()
    if len(parts) != 3 or parts[0] != HANDSHAKE_PREFIX:
        raise ProtocolError(
            f"bad handshake {text!r} (want '{HANDSHAKE_PREFIX} "
            "<codec> <feed>')")
    codec, feed = parts[1], parts[2]
    if codec not in _CODECS:
        raise ProtocolError(f"unknown ingest codec {codec!r}")
    if not _FEED_NAME.match(feed):
        raise ProtocolError(f"invalid feed name {feed!r}")
    return codec, feed


def valid_feed_name(feed: str) -> bool:
    """Whether ``feed`` is an acceptable feed name."""
    return _FEED_NAME.match(feed) is not None


# ----------------------------------------------------------------------
# Frame packing
# ----------------------------------------------------------------------
def pack_frame(frame_type: int, payload: bytes) -> bytes:
    """Wrap ``payload`` in a frame header."""
    if frame_type not in _FRAME_TYPES:
        raise ProtocolError(f"unknown frame type {frame_type}")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    return _HEADER.pack(frame_type, len(payload)) + payload


def pack_meta(meta: Mapping[str, Any]) -> bytes:
    """Pack a META frame."""
    return pack_frame(FRAME_META,
                      json.dumps(dict(meta), sort_keys=True).encode("utf-8"))


def pack_clients(rows: Sequence[tuple[int, str, str, str]]) -> bytes:
    """Pack a CLIENTS identity-declaration frame."""
    payload = json.dumps([[int(index), ip, player, os_name]
                          for index, ip, player, os_name in rows]
                         ).encode("utf-8")
    return pack_frame(FRAME_CLIENTS, payload)


def pack_entries(quantized: Mapping[str, IntArray]) -> bytes:
    """Pack one quantized entry batch as an ENTRIES frame.

    ``quantized`` maps every :data:`~repro.trace.codecs.ENTRY_COLUMNS`
    name to an equal-length integer array (the output of
    :meth:`~repro.trace.codecs.BinaryTraceReader.segment_quantized` or
    :func:`~repro.trace.wms_log.quantize_entry_columns`).
    """
    columns = [np.ascontiguousarray(np.asarray(quantized[name],
                                               dtype=np.int64))
               for name in ENTRY_COLUMNS]
    rows = int(columns[0].size)
    for name, column in zip(ENTRY_COLUMNS, columns, strict=True):
        if int(column.size) != rows:
            raise ProtocolError(
                f"entry column {name!r} has {column.size} rows, "
                f"expected {rows}")
    parts = [struct.pack("<I", rows)]
    for column in columns:
        parts.append(column.astype("<i8", copy=False).tobytes())
    return pack_frame(FRAME_ENTRIES, b"".join(parts))


def pack_end() -> bytes:
    """Pack the END frame."""
    return pack_frame(FRAME_END, b"")


# ----------------------------------------------------------------------
# Frame unpacking
# ----------------------------------------------------------------------
def parse_frame_header(header: bytes) -> tuple[int, int]:
    """Parse the 5-byte frame header into ``(type, payload_length)``.

    Raises
    ------
    ProtocolError
        On a short header, unknown type, or oversized length.
    """
    if len(header) < _HEADER.size:
        raise ProtocolError(
            f"truncated frame header ({len(header)} of "
            f"{_HEADER.size} bytes)")
    frame_type, length = _HEADER.unpack(header[:_HEADER.size])
    if frame_type not in _FRAME_TYPES:
        raise ProtocolError(f"unknown frame type {frame_type}")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    return int(frame_type), int(length)


def unpack_meta(payload: bytes) -> dict[str, Any]:
    """Decode a META frame payload."""
    try:
        meta = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad META payload: {exc}") from exc
    if not isinstance(meta, dict):
        raise ProtocolError("META payload must be a JSON object")
    return meta


def unpack_clients(payload: bytes) -> list[tuple[int, str, str, str]]:
    """Decode a CLIENTS frame payload."""
    try:
        rows = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad CLIENTS payload: {exc}") from exc
    if not isinstance(rows, list):
        raise ProtocolError("CLIENTS payload must be a JSON array")
    out: list[tuple[int, str, str, str]] = []
    for row in rows:
        if (not isinstance(row, list) or len(row) != 4
                or not isinstance(row[0], int)
                or not all(isinstance(part, str) for part in row[1:])):
            raise ProtocolError(
                "CLIENTS rows must be [index, ip, player_id, os_name]")
        out.append((row[0], row[1], row[2], row[3]))
    return out


def unpack_entries(payload: bytes) -> dict[str, IntArray]:
    """Decode an ENTRIES frame payload into quantized integer columns.

    Raises
    ------
    ProtocolError
        If the payload size does not match its row count.
    """
    if len(payload) < 4:
        raise ProtocolError("truncated ENTRIES payload (no row count)")
    (rows,) = struct.unpack("<I", payload[:4])
    expected = 4 + 8 * rows * len(ENTRY_COLUMNS)
    if len(payload) != expected:
        raise ProtocolError(
            f"ENTRIES payload of {len(payload)} bytes does not match "
            f"{rows} rows (expected {expected} bytes)")
    out: dict[str, IntArray] = {}
    offset = 4
    for name in ENTRY_COLUMNS:
        nbytes = 8 * rows
        out[name] = np.frombuffer(payload, dtype="<i8", count=rows,
                                  offset=offset).astype(np.int64)
        offset += nbytes
    return out


async def read_frame(reader: Any) -> tuple[int, bytes]:
    """Read one frame from an ``asyncio.StreamReader``-like object.

    Returns ``(frame_type, payload)``.

    Raises
    ------
    ProtocolError
        On a malformed header or a stream that ends mid-frame.
    EOFError
        On a clean end of stream *between* frames.
    """
    header = await reader.read(_HEADER.size)
    if not header:
        raise EOFError("end of stream")
    while len(header) < _HEADER.size:
        more = await reader.read(_HEADER.size - len(header))
        if not more:
            raise ProtocolError(
                f"connection closed mid-frame-header "
                f"({len(header)} of {_HEADER.size} bytes)")
        header += more
    frame_type, length = parse_frame_header(header)
    try:
        payload = await reader.readexactly(length)
    except Exception as exc:  # asyncio.IncompleteReadError
        raise ProtocolError(
            f"connection closed mid-frame ({length}-byte payload "
            f"incomplete)") from exc
    return frame_type, payload
