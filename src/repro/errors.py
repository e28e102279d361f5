"""Exception hierarchy for the :mod:`repro` package.

Bad input -- a malformed trace, log line, checkpoint, model, scenario spec
or configuration -- raises a :class:`ReproError` subclass, so a caller can
catch one base class.  A call that breaks a function's own contract (``jobs``
below 1, an array of the wrong shape) raises the built-in ``ValueError``, as
any Python API does.  Subclasses are kept deliberately coarse: one per
failure domain rather than one per call site.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A configuration object is inconsistent or out of range."""


class DistributionError(ReproError):
    """A distribution was constructed with invalid parameters."""


class FittingError(ReproError):
    """A fitting routine could not produce a valid estimate.

    Raised, for example, when the sample is empty, constant, or contains
    values outside the support of the model being fitted.
    """


class TraceError(ReproError):
    """A trace, log file, or record violates the trace data model."""


class LogParseError(TraceError):
    """A log line could not be parsed into a :class:`LogEntry`.

    Attributes
    ----------
    line_number:
        1-based line number within the log stream, when known.
    line:
        The offending raw line, when known.
    """

    def __init__(self, message: str, *, line_number: int | None = None,
                 line: str | None = None) -> None:
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number
        self.line = line


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class CheckpointError(ReproError):
    """A streaming checkpoint is missing, corrupt, or inconsistent.

    Raised when a checkpoint file cannot be read, carries an unsupported
    format version, or was written by a run whose parameters (model, seed,
    inputs) differ from the one trying to resume from it.
    """


class AnalysisError(ReproError):
    """An analysis routine received data it cannot process."""


class GenerationError(ReproError):
    """The synthetic workload generator was asked for an impossible output."""


class ServeError(ReproError):
    """The live characterization service was misconfigured or misused.

    Raised for invalid service configuration (bad ports, unknown feeds,
    missing checkpoint directories) and for service-level operational
    failures that are not wire-protocol violations.
    """


class ProtocolError(ServeError):
    """A client violated the ingest wire protocol.

    Raised while decoding a handshake line or a binary ingest frame:
    unknown frame types, truncated payloads, oversized frames, or
    malformed JSON metadata.  The server reports the message back to the
    offending connection and closes it; other feeds are unaffected.
    """


class CdnError(ReproError):
    """The simulated delivery hierarchy was misconfigured or misused.

    Raised for inconsistent topologies (no edges, negative capacities),
    failure plans that leave no edge alive, unknown assignment policies,
    and capacity-planner sweeps over empty or malformed grids.
    """


class ScenarioError(ReproError):
    """A workload scenario spec is unknown, malformed, or out of range.

    Raised when parsing a scenario spec string (unknown scenario name,
    bad composition syntax, non-numeric or unknown parameters) and when
    a scenario's parameters fail validation (e.g. a blackout fraction
    outside ``[0, 1]``).
    """


class LintError(ReproError):
    """The static-analysis pass was invoked with bad inputs.

    Raised for unknown rule IDs in ``--select``/``--ignore`` and for
    nonexistent or non-Python paths.  Rule *violations* are not errors —
    they are data (see :class:`repro.lint.Violation`).
    """
