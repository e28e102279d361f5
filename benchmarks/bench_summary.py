#!/usr/bin/env python3
"""One-table summary of every ``BENCH_*.json`` in the repository root.

Each benchmark writes its own schema; this tool knows the headline
metric of each and renders one aligned table so ``make bench`` ends
with a single screen a reviewer can compare across PRs.  Unknown
``BENCH_*.json`` files still get a row (name + file) rather than being
silently dropped.

Run:  python benchmarks/bench_summary.py [--dir .]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path


def _fmt(value: float) -> str:
    return f"{value:,.0f}"


def _headline(name: str, doc: dict) -> tuple[str, str, str]:
    """(benchmark, headline metric, verdict) for one report document."""
    if name == "BENCH_perf_core.json":
        benches = doc.get("benchmarks", [])
        slowest = max((b["stats"]["mean"] for b in benches), default=0.0)
        return ("core hot paths",
                f"{len(benches)} cases, slowest mean "
                f"{slowest * 1000:.1f} ms", "recorded")
    if name == "BENCH_parallel.json":
        best = max((r["speedup_vs_serial"] for r in doc.get("runs", [])),
                   default=0.0)
        met = doc.get("speedup_target_1.8x_at_jobs4_met")
        return ("sharded generation",
                f"{_fmt(doc.get('serial_transfers_per_second', 0))} "
                f"transfers/s serial, best speedup {best:.2f}x",
                "target met" if met else "ceiling documented")
    if name == "BENCH_stream.json":
        return ("bounded-memory streaming",
                f"{_fmt(doc.get('transfers_per_second', 0))} transfers/s, "
                f"peak RSS {doc.get('peak_rss_bytes', 0) / 2**20:,.0f} MiB",
                "bounded" if doc.get("bounded_memory_met") else "over")
    if name == "BENCH_serve.json":
        return ("live service replay",
                f"peak {_fmt(doc.get('peak_lines_per_sec', 0))} lines/s",
                "target met" if doc.get("target_100k_met") else "below")
    return (doc.get("benchmark", "unknown"), "unrecognized schema", "-")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dir", type=Path, default=Path("."),
                        help="directory holding the BENCH_*.json files")
    args = parser.parse_args()

    paths = sorted(args.dir.glob("BENCH_*.json"))
    if not paths:
        print(f"no BENCH_*.json files under {args.dir}")
        return 1
    rows = []
    for path in paths:
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            rows.append((path.name, "unreadable", str(exc), "-"))
            continue
        benchmark, metric, verdict = _headline(path.name, doc)
        rows.append((path.name, benchmark, metric, verdict))

    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    header = ("file", "benchmark", "headline", "verdict")
    widths = [max(w, len(h)) for w, h in zip(widths, header, strict=True)]
    line = "  ".join(h.ljust(w) for h, w in zip(header, widths,
                                               strict=True))
    print(line)
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(col.ljust(w)
                        for col, w in zip(row, widths, strict=True)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
