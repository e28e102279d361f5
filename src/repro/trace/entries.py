"""The entry rule: which transfers a trace may hold.

Every door into a trace applies this one rule: the
:class:`~repro.trace.store.Trace` constructor (and so
:class:`~repro.trace.builder.TraceBuilder`), the codec writers' shared
reorder buffer, the WMS text parser, the binary decoder (``.rtb`` reads,
the map-reduce characterizer and serve ENTRIES frames) and
:class:`~repro.trace.records.TransferRecord`.

The rule admits exactly the rows both trace codecs can write and read
back as the same values.  Both quantize ``floor(start + duration)`` (the
entry timestamp), the rounded duration and the bandwidth to int64, and
loss and CPU to ten-thousandths, which ``.rtb`` decodes as ``q / 10**4``
in float64: the same double the text parser reads only while ``q`` is
exact, below 2**53.  The ``floor(t) + 1`` length display is a float64,
exact only below 2**53 seconds.  Negative starts, bandwidths, losses and
CPU loads are admitted: both codecs keep them.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np
import numpy.typing as npt

from ..errors import TraceError

_INT64_BOUND = 2.0 ** 63
_QUANTUM_BOUND = 2.0 ** 53 / 10 ** 4

#: The checks of the entry rule, in order, as ``(column, condition, low,
#: high, low is inclusive)``: a check admits the values between ``low``
#: and ``high`` (exclusive); the client table's size stands in for a
#: ``None`` high.
_RULE: tuple[tuple[str, str, float, float | None, bool], ...] = (
    ("duration", "is not finite", -np.inf, np.inf, False),
    ("duration", "outside [0, 2**53)", 0.0, 2.0 ** 53, True),
    ("start", "is not finite", -np.inf, np.inf, False),
    ("start + duration", "does not floor to an int64",
     -_INT64_BOUND, _INT64_BOUND, True),
    ("bandwidth_bps", "outside (-2**63, 2**63)",
     -_INT64_BOUND, _INT64_BOUND, False),
    ("packet_loss", "outside (-2**53, 2**53) / 10**4",
     -_QUANTUM_BOUND, _QUANTUM_BOUND, False),
    ("server_cpu", "outside (-2**53, 2**53) / 10**4",
     -_QUANTUM_BOUND, _QUANTUM_BOUND, False),
    ("client_index", "outside the client table", 0, None, True),
)

#: The checks of the entry rule, in order, as ``(column, condition)``; a
#: refused row is reported by the first check it fails.
ENTRY_CHECKS: tuple[tuple[str, str], ...] = tuple(
    (column, condition) for column, condition, *_ in _RULE)

_FLOAT_COLUMNS = ("start", "duration", "bandwidth_bps", "packet_loss",
                  "server_cpu")


def entry_rule(columns: Mapping[str, Any], n_clients: int | None = None
               ) -> tuple[npt.NDArray[np.bool_], npt.NDArray[np.int8]]:
    """The rows of ``columns`` the entry rule admits.

    ``columns`` maps entry column names to parallel arrays: ``start`` and
    ``duration`` are required; ``bandwidth_bps``, ``packet_loss`` and
    ``server_cpu`` are checked when present, ``client_index`` when
    ``n_clients`` is given.  Other keys are ignored.

    Returns the mask of admitted rows and, for each refused row in row
    order, the index into :data:`ENTRY_CHECKS` of the first check it
    fails.  Each check is first decided from the column's minimum and
    maximum (``start + duration`` from ``start``'s and ``duration``'s,
    since rounding is monotone), so a batch that passes costs a few reductions and no
    temporaries; only a failing check is evaluated row by row.
    """
    arrays = {name: np.asarray(columns[name], dtype=np.float64)
              for name in _FLOAT_COLUMNS if name in columns}
    if n_clients is not None:
        arrays["client_index"] = np.asarray(columns["client_index"],
                                            dtype=np.int64)
    n = arrays["start"].size
    if n == 0:
        return np.ones(0, dtype=bool), np.empty(0, dtype=np.int8)
    ranges = {name: (float(values.min()), float(values.max()))
              for name, values in arrays.items()}
    (start_lo, start_hi), (duration_lo, duration_hi) = (
        ranges["start"], ranges["duration"])
    ranges["start + duration"] = (start_lo + duration_lo,
                                  start_hi + duration_hi)

    failing = []
    for check, (name, _, low, high, closed) in enumerate(_RULE):
        if name not in ranges:
            continue
        high = n_clients if high is None else high
        lo, hi = ranges[name]
        if not ((lo >= low if closed else lo > low) and hi < high):
            failing.append(check)
    if not failing:
        return np.ones(n, dtype=bool), np.empty(0, dtype=np.int8)

    failed = np.full(n, -1, dtype=np.int8)
    # Later checks are marked first, so a row keeps its first failure.
    for check in reversed(failing):
        name, _, low, high, closed = _RULE[check]
        high = n_clients if high is None else high
        if name == "start + duration":
            with np.errstate(invalid="ignore", over="ignore"):
                values = arrays["start"] + arrays["duration"]
        else:
            values = arrays[name]
        ok = values >= low if closed else values > low
        ok &= values < high
        np.putmask(failed, ~ok, check)
    admitted = failed < 0
    return admitted, failed[~admitted]


def _describe_refusal(columns: Mapping[str, Any], row: int,
                     check: int) -> str:
    """``"<column> <condition> (<value>)"`` for ``row`` of ``columns``
    refused by :data:`ENTRY_CHECKS` ``[check]``."""
    name, condition = ENTRY_CHECKS[check]
    if name == "start + duration":
        value = (f"{float(columns['start'][row])!r} + "
                 f"{float(columns['duration'][row])!r}")
    else:
        value = repr(np.asarray(columns[name])[row].item())
    return f"{name} {condition} ({value})"


def require_entries(columns: Mapping[str, Any], n_clients: int | None = None,
                    *, offset: int = 0) -> None:
    """Raise :class:`TraceError` unless :func:`entry_rule` admits every
    row; the message names the first refused row (counted from
    ``offset``) and the first check it fails."""
    admitted, checks = entry_rule(columns, n_clients)
    if checks.size:
        row = int(np.argmin(admitted))
        raise TraceError(f"transfer {offset + row}: "
                         f"{_describe_refusal(columns, row, int(checks[0]))}")
