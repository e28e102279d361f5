"""Host-speed probe: a fixed CPU kernel timed next to every repetition.

On a shared 2-vCPU host, other tenants slow a whole run by up to two
thirds for tens of seconds at a time, and the guest kernel reports no
steal time for it.  The probe runs the same fixed work every time: text
splitting and float parsing into a dict, the interpreter-bound part of
the workloads, plus a sort and a unique count over a fixed array, the
numpy part.  Its time therefore tracks how fast the host runs code at
that moment.  The end-to-end metrics divide each wall time by the
probe's slowdown over ``REFERENCE_S`` around it, raised to
``SENSITIVITY``.
"""

from __future__ import annotations

import time

import numpy as np

#: The probe's time on the reference host when it is not contended:
#: 2-core Intel Xeon, Python 3.11.7, numpy 2.4.6 (fastest of 60 runs).
REFERENCE_S = 0.158

#: How much of the probe's slowdown a workload shares.  The probe is
#: interpreter-bound and single-threaded; numpy kernels that wait on
#: memory, and pool workers running beside it, slow down less.  Over ten
#: seeds per workload, scaling by the square root of the probe's
#: slowdown kept the spread of every workload's per-run medians at or
#: below 0.20, against up to 0.28 unscaled and 0.22 with full scaling
#: (the table is in README.md).
SENSITIVITY = 0.5


class Probe:
    """The fixed kernel, with its inputs built once."""

    def __init__(self) -> None:
        self._values = np.random.default_rng(2002).random(200_000)
        self._keys = (self._values * 1000).astype(np.int64)

    def seconds(self) -> float:
        """Run the kernel once; returns its wall time."""
        start = time.perf_counter()
        totals: dict[str, float] = {}
        for i in range(160_000):
            fields = f"{i} {i * 0.5:.4f} feed{i % 7}".split()
            totals[fields[2]] = totals.get(fields[2], 0.0) + float(fields[1])
        np.sort(self._values)
        np.unique(self._keys, return_counts=True)
        return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` corrected towards the reference host's speed.

    ``before`` and ``after`` are the probe times around the timed step.
    """
    slowdown = (before + after) / 2.0 / REFERENCE_S
    return seconds / slowdown ** SENSITIVITY
