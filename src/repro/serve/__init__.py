"""Live characterization service.

Everything the batch pipeline computes after the fact, this subpackage
computes *while the traffic happens*: an asyncio ingest server accepts
WMS-style log lines (text) or columnar entry frames (binary codec) from
many concurrent feeds over one TCP protocol (a ``REPRO-SERVE/1 <codec>
<feed>`` handshake, then the payload), a bounded-queue worker per feed
folds the stream into the exact same accumulators the batch pipeline
uses (:class:`~repro.trace.streaming.StreamingCharacterizer` +
:class:`~repro.stream.sessionize.OnlineSessionizer`), the service
checkpoints atomically through the ``.npz`` machinery of
:mod:`repro.stream.checkpoint`, and a JSON-over-HTTP port for reads and
control exposes live ``c(t)``, session counts, per-feed rates, and
fitted Table 2 parameter drift against the golden registry.

The conform suite proves the load-bearing claim: the characterization
state reached by live ingest of a log is **bit-identical** to running
the batch characterizer over the same file, for both codecs.  See
``docs/API.md`` ("Live characterization service") for the architecture
diagram and usage.
"""

from .config import DEFAULT_LATENESS, ServeConfig
from .feed import FeedWorker
from .load import LoadReport, run_load, run_load_async
from .metrics import parameter_drift
from .protocol import (
    FRAME_CLIENTS,
    FRAME_END,
    FRAME_ENTRIES,
    FRAME_META,
    HANDSHAKE_PREFIX,
    MAX_FRAME_BYTES,
    pack_clients,
    pack_end,
    pack_entries,
    pack_meta,
    parse_handshake,
    read_frame,
    unpack_clients,
    unpack_entries,
    unpack_meta,
)
from .service import CharacterizationService
from .tracking import ConcurrencyTracker, LatencyHistogram

__all__ = [
    "CharacterizationService",
    "ConcurrencyTracker",
    "DEFAULT_LATENESS",
    "FRAME_CLIENTS",
    "FRAME_END",
    "FRAME_ENTRIES",
    "FRAME_META",
    "FeedWorker",
    "HANDSHAKE_PREFIX",
    "LatencyHistogram",
    "LoadReport",
    "MAX_FRAME_BYTES",
    "ServeConfig",
    "pack_clients",
    "pack_end",
    "pack_entries",
    "pack_meta",
    "parameter_drift",
    "parse_handshake",
    "read_frame",
    "run_load",
    "run_load_async",
    "unpack_clients",
    "unpack_entries",
    "unpack_meta",
]
