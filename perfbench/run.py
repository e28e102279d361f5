#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload log-text --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The workload's inputs are generated from ``--seed``.  After setting up
(several times; the median counts), the workload's timed phases repeat
until ``--seconds`` have passed, every repetition's outputs are checked,
and medians are reported.  End-to-end times are corrected for host
speed by a probe run between the timed steps (see ``probe.py``).
``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs one untraced repetition as the reference, then traced
repetitions, and reports the per-layer metrics.  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

A record of the run (host facts, every repetition, checks) is written
under ``.perfbench/runs/``, and the spans of a traced run next to it.
The code under test is the ``repro`` package in ``src/`` beside this
directory; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOAD_NAMES = ("log-text", "paper-binary", "plan-sweep", "live-ingest")

#: Times each run sets its workload up; the median is reported.
SETUP_REPEATS = 3

#: End-to-end metrics (untraced runs), with units: medians over a run's
#: set-ups and repetitions, corrected for host speed (see ``probe.py``).
END_TO_END = {
    "setup_s": "s",
    "total_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mib": "MiB",
}

#: Per-layer metrics (traced runs), with units.  ``*.busy_s`` is the
#: summed self time of the spans named by the prefix (and its codec
#: suffixes); the rest are counts, ratios and phase rates.
PER_LAYER = {
    "stream.generate.busy_s": "s",
    "stream.generate.peak_pending_rows": "count",
    "stream.sessionize.busy_s": "s",
    "stream.sessionize.peak_open_sessions": "count",
    "trace.codecs.encode.busy_s": "s",
    "trace.codecs.encode.bytes": "B",
    "trace.codecs.encode.peak_buffered": "count",
    "trace.codecs.decode.busy_s": "s",
    "trace.streaming.consume.busy_s": "s",
    "trace.streaming.consume.entries": "count",
    "trace.streaming.merge.busy_s": "s",
    "trace.streaming.summary.busy_s": "s",
    "parallel.plan_chunks.busy_s": "s",
    "parallel.plan_chunks.chunks": "count",
    "parallel.pool.overhead_s": "s",
    "trace.sanitize.busy_s": "s",
    "core.sessionizer.busy_s": "s",
    "core.summary.busy_s": "s",
    "core.client_layer.busy_s": "s",
    "core.session_layer.busy_s": "s",
    "core.transfer_layer.busy_s": "s",
    "cdn.load_trace.busy_s": "s",
    "cdn.simulate.busy_s": "s",
    "cdn.simulate.calls": "count",
    "cdn.admitted_ratio": "ratio",
    "serve.send.blocked_s": "s",
    "serve.drain.wait_s": "s",
    "serve.shed_lines": "count",
    "serve.retries": "count",
    "serve.ingested_ratio": "ratio",
    "generate_transfers_per_s": "1/s",
    "characterize_entries_per_s": "1/s",
    "hierarchy_transfers_per_s": "1/s",
    "sweep_configs_per_s": "1/s",
    "ingest_lines_per_s": "1/s",
    "unattributed_s": "s",
    "tracing.overhead_s": "s",
}

#: Phase name -> the per-layer rate metric reporting it.
PHASE_RATES = {
    "generate": "generate_transfers_per_s",
    "characterize": "characterize_entries_per_s",
    "hierarchy": "hierarchy_transfers_per_s",
    "sweep": "sweep_configs_per_s",
    "ingest": "ingest_lines_per_s",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measurement length per run (default: 15)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def _layer_values(rep: Any, tracer: Any, reference: Any) -> dict[str, float]:
    """One traced repetition's per-layer metrics."""
    busy = tracer.busy_by_name()
    values = {name: 0.0 for name in PER_LAYER}
    for name in PER_LAYER:
        if name.endswith(".busy_s"):
            prefix = name[:-len(".busy_s")]
            values[name] = sum(own for span, own in busy.items()
                               if span == prefix
                               or span.startswith(prefix + "."))
    for name, value in rep.counters.items():
        values[name] = float(value)
    for phase, (seconds, items) in rep.phases.items():
        values[PHASE_RATES[phase]] = items / seconds
    values["unattributed_s"] = rep.seconds - tracer.top_level_seconds()
    values["tracing.overhead_s"] = rep.seconds - reference.seconds
    return values


def _share_checks(name: str, layer: dict[str, float], total: float,
                  tracers: list[Any]) -> dict[str, bool]:
    """What each workload is for, confirmed from the traced shares."""
    checks = {"unattributed under 10% of total_s":
              layer["unattributed_s"] < 0.10 * total}
    if name == "log-text":
        checks["encode + consume at least 75% of total_s"] = (
            layer["trace.codecs.encode.busy_s"]
            + layer["trace.streaming.consume.busy_s"] >= 0.75 * total)
    elif name == "paper-binary":
        checks["no text-codec span"] = not any(
            span.name.endswith(".text")
            for tracer in tracers for span in tracer.spans)
    elif name == "plan-sweep":
        layers = {key: value for key, value in layer.items()
                  if key.endswith(".busy_s")
                  or key == "parallel.pool.overhead_s"}
        checks["cdn.simulate is the largest layer"] = (
            max(layers, key=layers.__getitem__) == "cdn.simulate.busy_s")
    return checks


def run_workload(name: str, seed: int, seconds: float, trace: bool, *,
                 scale: float = 1.0, import_s: float = 0.0) -> dict[str, Any]:
    """Set up, measure and check one workload; returns the run record."""
    from host import host_facts
    from probe import Probe, scaled
    from tracing import Tracer, write_spans
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = cls(seed, workdir, scale)
    setup_times: list[float] = []
    reps: list[Any] = []
    tracers: list[Any] = []
    reference = None
    # Every timed step sits between two host-speed probes.
    probe = Probe()
    probes = [probe.seconds()]
    try:
        for attempt in range(SETUP_REPEATS):
            if attempt:
                workload.teardown()
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
            probes.append(probe.seconds())
        if trace:
            reference = workload.run(None)
            probes.append(probe.seconds())
        began = time.perf_counter()
        while (len(reps) < workload.min_reps
               or time.perf_counter() - began < seconds):
            if reps or reference is not None:
                workload.before_rep()
            tracer = Tracer(f"{name}/{seed}/{len(reps)}") if trace else None
            reps.append(workload.run(tracer))
            probes.append(probe.seconds())
            if tracer is not None:
                tracers.append(tracer)
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [message for rep in ([reference] if reference else []) + reps
                for message in rep.failures]
    baseline = reference or reps[0]
    for index, rep in enumerate(reps):
        for key, value in baseline.artefacts.items():
            if rep.artefacts.get(key) != value:
                failures.append(
                    f"repetition {index}: {key} differs from the "
                    f"{'untraced run' if reference else 'first repetition'}")
                rep.failed = rep.items
    counted = ([reference] if reference else []) + reps
    attempted = sum(rep.items for rep in counted)
    failed = sum(rep.failed for rep in counted)

    total = _median([rep.seconds for rep in reps])
    checks: dict[str, bool] = {}
    if trace:
        per_rep = [_layer_values(rep, tracer, reference)
                   for rep, tracer in zip(reps, tracers, strict=True)]
        values = {key: _median([row[key] for row in per_rep])
                  for key in PER_LAYER}
        units = PER_LAYER
        checks = _share_checks(name, values, total, tracers)
        if scale == 1.0:
            # The shares describe the benchmark's sizes; at a smoke
            # scale fixed costs dominate and they are only recorded.
            failures += [f"share check failed: {label}"
                         for label, ok in checks.items() if not ok]
    else:
        setups = [scaled(sec, probes[k], probes[k + 1])
                  for k, sec in enumerate(setup_times)]
        totals = [scaled(rep.seconds, probes[k], probes[k + 1])
                  for k, rep in enumerate(reps, start=SETUP_REPEATS)]
        values = {
            "setup_s": (scaled(import_s, probes[0], probes[0])
                        + _median(setups)),
            "total_s": _median(totals),
            "items_per_s": _median([rep.items / total for rep, total
                                    in zip(reps, totals, strict=True)]),
            "peak_rss_mib": workload.peak_rss_mib(),
        }
        units = END_TO_END
    if failures and failed == 0:
        failed = 1
    record = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "scale": scale, "item": cls.item,
        "host": host_facts(ROOT, workload.pool_jobs),
        "setup_times_s": setup_times, "import_s": import_s,
        "probes_s": probes,
        "repetitions": [{"seconds": rep.seconds, "items": rep.items,
                         "phases": rep.phases, "artefacts": rep.artefacts,
                         "counters": rep.counters} for rep in reps],
        "checks": checks, "failures": failures,
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": {key: {"value": value, "unit": units[key]}
                        for key, value in values.items()},
        },
    }
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{stem}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if trace:
        write_spans(runs / f"{stem}-spans.json", tracers)
    return record


def _print_record(record: dict[str, Any]) -> None:
    print(f"perfbench host {json.dumps(record['host'], sort_keys=True)}")
    reps = record["repetitions"]
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} repetitions={len(reps)} "
          f"({record['item']})")
    for key, metric in record["result"]["metrics"].items():
        print(f"  {key:<40} {metric['value']:>16.6g} {metric['unit']}")
    if not record["trace"]:
        wall = _median([rep["seconds"] for rep in reps])
        print(f"  {'total_wall_s':<40} {wall:>16.6g} s (unscaled, median)")
        for phase, rate in PHASE_RATES.items():
            rates = [items / sec for rep in reps
                     for name, (sec, items) in rep["phases"].items()
                     if name == phase]
            if rates:
                print(f"  {rate:<40} {_median(rates):>16.6g} 1/s "
                      "(phase, median)")
    for label, ok in record["checks"].items():
        print(f"  check {'ok  ' if ok else 'FAIL'} {label}")
    for message in record["failures"]:
        print(f"  FAILED: {message}")


def _run_all(args: argparse.Namespace) -> int:
    """Run every workload, each in its own process; print each table."""
    status = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        result = (json.loads(done.stdout.strip().splitlines()[-1])
                  if done.returncode == 0 and done.stdout.strip() else None)
        if result is None or not result["correct"]:
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the repro sources are missing ({SRC})",
              file=sys.stderr)
        return 2
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    if args.workload == "all":
        return _run_all(args)
    import workloads  # noqa: F401  (the import is part of setup_s)
    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace),
                          import_s=time.perf_counter() - _STARTED)
    _print_record(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
