"""In-memory span recorder for the benchmark's traced runs.

Spans are opened by the benchmark's own code around calls into the
``repro`` modules; nothing inside ``src/`` is instrumented.  A span is
``(name, start, end, parent, run_id)`` with ``perf_counter`` times, which
on Linux read ``CLOCK_MONOTONIC`` and are therefore comparable across
the worker processes of one host.  Spans stay in memory and are written
out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator


@dataclass(frozen=True)
class Span:
    """One timed call into a layer."""

    name: str
    start: float
    end: float
    parent: int | None
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class Tracer:
    """Records the spans of one repetition of a workload.

    Nested ``with tracer.span(...)`` blocks take the innermost open span
    as their parent.  Spans recorded elsewhere (worker processes,
    concurrent asyncio tasks) are added with :meth:`add` and an explicit
    parent index.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        start = time.perf_counter()
        self.spans.append(Span(name, start, start, parent, self.run_id))
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.spans[index] = Span(name, start, time.perf_counter(),
                                     parent, self.run_id)

    def add(self, name: str, start: float, end: float,
            parent: int | None) -> None:
        """Record a span timed outside a ``with`` block."""
        self.spans.append(Span(name, start, end, parent, self.run_id))

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(
                    (span.start, span.end))
        out = []
        for index, span in enumerate(self.spans):
            inner = [(max(s, span.start), min(e, span.end))
                     for s, e in children.get(index, [])]
            inner = [(s, e) for s, e in inner if e > s]
            out.append(span.duration - covered_length(inner))
        return out

    def busy_by_name(self) -> dict[str, float]:
        """Summed self time per span name."""
        busy: dict[str, float] = {}
        for span, own in zip(self.spans, self.self_times(), strict=True):
            busy[span.name] = busy.get(span.name, 0.0) + own
        return busy

    def top_level_seconds(self) -> float:
        """Summed duration of the spans that have no parent."""
        return sum(span.duration for span in self.spans
                   if span.parent is None)


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    """Write every recorded span as one JSON document."""
    rows = [{"name": span.name, "start": span.start, "end": span.end,
             "parent": span.parent, "run_id": span.run_id}
            for tracer in tracers for span in tracer.spans]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"spans": rows}, indent=1) + "\n",
                    encoding="utf-8")
