"""Configuration for the live characterization service."""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from ..errors import ServeError
from ..units import DEFAULT_SESSION_TIMEOUT

#: Default reorder-buffer lateness bound, seconds of data time.  Ingest
#: connections deliver entries in transfer-*end* order (the WMS server
#: logs a transfer when it completes); sessionization needs *start*
#: order.  An entry ending at the stream's end frontier ``M`` started at
#: ``M - duration``, so entries with start at or below ``M - lateness``
#: are safe to release as long as no transfer lasts longer than
#: ``lateness``.  One day comfortably bounds the paper's duration tail;
#: longer transfers are dropped from session tracking (counted and
#: surfaced as ``late_drops`` — the characterizer itself is order-blind
#: and never drops).
DEFAULT_LATENESS = 86400.0


@dataclass(frozen=True)
class ServeConfig:
    """Validated settings shared by the service, workers, and CLI.

    Attributes
    ----------
    host, tcp_port, http_port:
        Bind address and ports (``0`` asks the OS for an ephemeral
        port; the service prints the bound ports on startup).
    checkpoint_path:
        ``.npz`` checkpoint file, or ``None`` to disable checkpointing.
    checkpoint_interval:
        Seconds of wall time between periodic checkpoints.
    resume:
        Restore state from ``checkpoint_path`` before serving.
    timeout:
        Session silence threshold ``T_o`` (paper: 1,500 s).
    lateness:
        Reorder-buffer bound; see :data:`DEFAULT_LATENESS`.
    queue_batches:
        Per-feed worker queue capacity, in batches.  A full queue sheds
        (rejects) further input rather than buffering unboundedly.
    golden_workload:
        Key into the conform golden registry (``small``/``medium``/
        ``paper``) used for the parameter-drift metrics, or ``None``.
    """

    host: str = "127.0.0.1"
    tcp_port: int = 7070
    http_port: int = 8080
    checkpoint_path: str | None = None
    checkpoint_interval: float = 30.0
    resume: bool = False
    timeout: float = DEFAULT_SESSION_TIMEOUT
    lateness: float = DEFAULT_LATENESS
    queue_batches: int = 64
    golden_workload: str | None = None

    def validate(self) -> "ServeConfig":
        """Check the configuration; returns ``self`` for chaining.

        Raises
        ------
        ServeError
            On any out-of-range or inconsistent setting.
        """
        for name, port in (("tcp_port", self.tcp_port),
                           ("http_port", self.http_port)):
            if not 0 <= port <= 65535:
                raise ServeError(
                    f"{name} must be in [0, 65535], got {port}")
        if self.tcp_port != 0 and self.tcp_port == self.http_port:
            raise ServeError(
                f"tcp_port and http_port must differ, both are "
                f"{self.tcp_port}")
        if self.checkpoint_interval <= 0:
            raise ServeError(
                f"checkpoint_interval must be positive, got "
                f"{self.checkpoint_interval}")
        if self.timeout <= 0:
            raise ServeError(
                f"timeout must be positive, got {self.timeout}")
        if self.lateness <= 0:
            raise ServeError(
                f"lateness must be positive, got {self.lateness}")
        if self.queue_batches < 1:
            raise ServeError(
                f"queue_batches must be positive, got "
                f"{self.queue_batches}")
        if self.checkpoint_path is not None:
            parent = Path(self.checkpoint_path).parent
            if not os.path.isdir(parent):
                raise ServeError(
                    f"checkpoint directory does not exist: {parent}")
        if self.resume:
            if self.checkpoint_path is None:
                raise ServeError("resume requires a checkpoint path")
            if not os.path.exists(self.checkpoint_path):
                raise ServeError(
                    f"checkpoint to resume from does not exist: "
                    f"{self.checkpoint_path}")
        return self
