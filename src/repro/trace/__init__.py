"""Trace data model and Windows-Media-Server-style log handling.

The unit of observation in the paper is the *transfer*: one start/stop
viewing of a live object by one client, recorded as a single log entry by
the Windows Media Server (Section 2.3).  This subpackage provides:

* :class:`~repro.trace.records.TransferRecord` /
  :class:`~repro.trace.records.ClientRecord` — row-level record types;
* :class:`~repro.trace.store.Trace` — a columnar (NumPy-backed) container
  holding millions of transfers compactly, plus the client table;
* :class:`~repro.trace.builder.TraceBuilder` — incremental construction;
* :mod:`~repro.trace.wms_log` — a W3C-style log writer/parser mimicking the
  Windows Media Services log format with its one-second resolution;
* :mod:`~repro.trace.codecs` — the codec registry: the text log plus a
  columnar binary format with memory-mapped chunked reads;
* :mod:`~repro.trace.sanitize` — the paper's Section 2.4 log sanitization
  (spanning entries, server-overload screening).
"""

from .builder import TraceBuilder
from .codecs import (
    BinaryTraceReader,
    BinaryTraceWriter,
    TraceCodec,
    available_codecs,
    detect_codec,
    get_codec,
    read_binary_trace,
    write_binary_trace,
)
from .csvio import read_csv, write_csv
from .records import ClientRecord, TransferRecord
from .sanitize import SanitizationReport, sanitize_trace
from .store import ClientTable, Trace
from .streaming import StreamingCharacterizer, StreamingSummary
from .transform import daily_slices, time_slice
from .wms_log import (
    StreamingTraceWriter,
    StreamingWmsLogWriter,
    log_round_trip,
    read_wms_log,
    write_wms_log,
)

__all__ = [
    "BinaryTraceReader",
    "BinaryTraceWriter",
    "ClientRecord",
    "ClientTable",
    "SanitizationReport",
    "StreamingCharacterizer",
    "StreamingSummary",
    "StreamingTraceWriter",
    "StreamingWmsLogWriter",
    "Trace",
    "TraceBuilder",
    "TraceCodec",
    "TransferRecord",
    "available_codecs",
    "daily_slices",
    "detect_codec",
    "get_codec",
    "log_round_trip",
    "read_binary_trace",
    "read_csv",
    "read_wms_log",
    "sanitize_trace",
    "time_slice",
    "write_binary_trace",
    "write_csv",
    "write_wms_log",
]
