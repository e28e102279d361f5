"""The benchmark's four workloads, each run through public entry points.

Every workload has the same life cycle: :meth:`Workload.setup` builds
the model, writes the input files and boots any service;
:meth:`Workload.run` executes the timed phases once and checks their
outputs; :meth:`Workload.teardown` stops what setup started.  ``run``
takes an optional :class:`~tracing.Tracer`.  Untraced, it calls the
entry point a user would call (``run_streaming_generation``,
``characterize_logs``, ``plan_deployment``, ``run_load_async``).  Traced,
it calls the same modules' public functions one layer at a time, with a
span around each call, and must reproduce the untraced artefacts byte
for byte.
"""

from __future__ import annotations

import asyncio
import ctypes
import dataclasses
import functools
import hashlib
import json
import os
import re
import resource
import signal
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ClassVar

import numpy as np

from repro.cdn import plan_deployment
from repro.cdn.engine import simulate_cdn
from repro.cdn.failures import FailurePlan
from repro.cdn.planner import ConfigOutcome, PlanConfig, PlanReport, sweep_configs
from repro.cdn.topology import DEFAULT_ORIGIN_STREAM_BPS
from repro.conform.registry import load_registry
from repro.core.characterize import (
    WorkloadCharacterization,
    characterize,
    summarize_trace,
)
from repro.core.client_layer import characterize_client_layer
from repro.core.gismo import LiveWorkloadGenerator, synthetic_client_identity
from repro.core.model import LiveWorkloadModel
from repro.core.session_layer import characterize_session_layer
from repro.core.sessionizer import sessionize
from repro.core.transfer_layer import characterize_transfer_layer
from repro.parallel import map_ordered
from repro.parallel.characterize import (
    LogChunk,
    characterize_logs,
    consume_chunk,
    plan_log_chunks,
)
from repro.serve import DEFAULT_LATENESS, run_load_async
from repro.stream import run_streaming_generation
from repro.stream.generate import GenerationStream
from repro.stream.sessionize import OnlineSessionizer
from repro.trace.codecs import BinaryTraceReader, get_codec, read_binary_trace
from repro.trace.sanitize import sanitize_trace
from repro.trace.store import Trace
from repro.trace.streaming import StreamingCharacterizer, StreamingSummary
from repro.trace.wms_log import LOG_FIELDS
from repro.units import DEFAULT_SESSION_TIMEOUT

from tracing import Tracer, covered_length

#: Seed at which ``paper-binary`` is the conform ``paper`` workload.
GOLDEN_SEED = 2002


# ----------------------------------------------------------------------
# Artefact digests
# ----------------------------------------------------------------------
def _feed(h: Any, obj: Any) -> None:
    """Hash ``obj`` structurally: same value, same bytes, any process."""
    if obj is None or isinstance(obj, (bool, int, str)):
        h.update(repr(obj).encode())
    elif isinstance(obj, float):
        h.update(obj.hex().encode())
    elif isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, np.generic):
        _feed(h, obj.item())
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    else:
        h.update(type(obj).__name__.encode())
        _feed(h, vars(obj))


def digest(obj: Any) -> str:
    """SHA-256 of a result object's full contents."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def file_digest(path: Path) -> str:
    """SHA-256 of a file's bytes."""
    h = hashlib.sha256()
    with open(path, "rb") as stream:
        for block in iter(lambda: stream.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ----------------------------------------------------------------------
# One repetition's outcome
# ----------------------------------------------------------------------
@dataclass
class Rep:
    """What one timed repetition did.

    ``seconds`` covers the timed phases only; ``phases`` maps each phase
    to its ``(seconds, items)``.  The repetition attempts its ``items``
    operations; ``failed`` counts the failed ones: all of them when an
    output check fails, and on ``live-ingest`` also every shed, retried,
    errored or late line on its own.
    """

    seconds: float
    items: int
    phases: dict[str, tuple[float, int]]
    artefacts: dict[str, str]
    failures: list[str]
    failed: int
    counters: dict[str, float] = field(default_factory=dict)


def _rep(seconds: float, items: int, phases: dict[str, tuple[float, int]],
         artefacts: dict[str, str], failures: list[str],
         counters: dict[str, float], *, failed_items: int = 0) -> Rep:
    return Rep(seconds, items, phases, artefacts, failures,
               failed=items if failures else failed_items,
               counters=counters)


def _check(failures: list[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


# ----------------------------------------------------------------------
# Shared phases: streaming generation and log characterization
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Generated:
    n_transfers: int
    n_sessions: int
    peak_pending: int
    peak_open_sessions: int
    peak_buffered: int


def generate(model: LiveWorkloadModel, days: float, seed: int, path: Path,
             codec: str, tracer: Tracer | None) -> Generated:
    """Stream-generate a workload into ``path`` with online sessionizing.

    The traced branch chains ``GenerationStream.block_steps`` into the
    codec writer's ``push`` and ``OnlineSessionizer.push_batch`` exactly
    as ``run_streaming_generation`` does, so it writes the same bytes.
    """
    if tracer is None:
        result = run_streaming_generation(
            model, days, seed=seed, log_path=path, codec=codec,
            collect_sessions=False)
        return Generated(result.n_transfers, int(result.n_sessions or 0),
                         result.peak_pending, result.peak_open_sessions,
                         result.peak_log_buffered)

    encode = f"trace.codecs.encode.{codec}"
    with tracer.span("stream.generate"):
        stream = GenerationStream(model, days, seed=seed)
    sessionizer = OnlineSessionizer(model.n_clients,
                                    timeout=DEFAULT_SESSION_TIMEOUT)
    codec_impl = get_codec(codec)
    with tracer.span(encode):
        out = codec_impl.open_stream(path)
    try:
        with tracer.span(encode):
            writer = codec_impl.make_writer(out, synthetic_client_identity)
        peak_pending = stream.n_pending
        peak_buffered = writer.n_buffered
        steps = stream.block_steps()
        while True:
            with tracer.span("stream.generate"):
                batches = next(steps, None)
            if batches is None:
                break
            for batch in batches:
                with tracer.span(encode):
                    writer.push(
                        client_index=batch.client_index,
                        object_id=batch.object_id, start=batch.start,
                        duration=batch.duration,
                        bandwidth_bps=batch.bandwidth_bps,
                        global_offset=batch.global_offset,
                        horizon=batch.horizon)
                peak_buffered = max(peak_buffered, writer.n_buffered)
                with tracer.span("stream.sessionize"):
                    sessionizer.push_batch(batch)
            peak_pending = max(peak_pending, stream.n_pending)
        with tracer.span(encode):
            writer.finish()
        with tracer.span("stream.sessionize"):
            sessionizer.finish()
    finally:
        with tracer.span(encode):
            out.close()
    return Generated(stream.n_emitted, sessionizer.n_finalized, peak_pending,
                     sessionizer.peak_open, peak_buffered)


def _consume_binary(part: StreamingCharacterizer, chunk: LogChunk,
                    tracer: Tracer) -> int:
    """``consume_chunk``'s binary branch, split into decode and consume."""
    parsed = 0
    with tracer.span("trace.codecs.decode.binary"):
        reader = BinaryTraceReader(chunk.path)
        identities = reader.client_identity_map()
        players = np.asarray(
            [identities.get(i, ("", "", ""))[1]
             for i in range((max(identities) + 1) if identities else 0)],
            dtype=np.str_)
    try:
        for index in chunk.segments:
            with tracer.span("trace.codecs.decode.binary"):
                columns = reader.segment_columns(index)
                names = players[np.asarray(columns["client_index"],
                                           dtype=np.int64)]
            with tracer.span("trace.streaming.consume"):
                parsed += part.consume_columns(columns, names)
    finally:
        reader.close()
    return parsed


def characterize_file(path: Path, tracer: Tracer | None,
                      counters: dict[str, float]) -> StreamingSummary:
    """``characterize_logs(path, jobs=1)``, one layer at a time if traced."""
    if tracer is None:
        return characterize_logs(path, jobs=1)
    with tracer.span("parallel.plan_chunks"):
        chunks = plan_log_chunks([path])
    parts = []
    consumed = 0
    for chunk in chunks:
        part = StreamingCharacterizer()
        if chunk.codec == "binary":
            consumed += _consume_binary(part, chunk, tracer)
        else:
            with tracer.span("trace.streaming.consume"):
                consumed += consume_chunk(part, chunk)
        parts.append(part)
    with tracer.span("trace.streaming.merge"):
        total = StreamingCharacterizer()
        for part in parts:
            total.merge(part)
    with tracer.span("trace.streaming.summary"):
        summary = total.summary(top_k=10)
    counters["parallel.plan_chunks.chunks"] = len(chunks)
    counters["trace.streaming.consume.entries"] = consumed
    return summary


def _generation_counters(gen: Generated, path: Path) -> dict[str, float]:
    return {
        "stream.generate.peak_pending_rows": gen.peak_pending,
        "stream.sessionize.peak_open_sessions": gen.peak_open_sessions,
        "trace.codecs.encode.bytes": path.stat().st_size,
        "trace.codecs.encode.peak_buffered": gen.peak_buffered,
    }


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """Base class: one named set of inputs and the phases run on them."""

    name: ClassVar[str]
    item: ClassVar[str]
    #: Fewest timed repetitions per run, however long they take.
    min_reps: ClassVar[int] = 3

    def __init__(self, seed: int, workdir: Path, scale: float = 1.0) -> None:
        self.seed = int(seed)
        self.workdir = workdir
        self.scale = float(scale)

    def setup(self) -> None:
        """Build the model and inputs; repeatable."""

    def before_rep(self) -> None:
        """Untimed preparation before every repetition but the first."""

    def teardown(self) -> None:
        """Stop whatever :meth:`setup` started."""

    def run(self, tracer: Tracer | None) -> Rep:
        raise NotImplementedError

    def peak_rss_mib(self) -> float:
        """Peak resident set of the processes that did the work."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    @property
    def pool_jobs(self) -> int:
        """Worker processes the workload's pool uses (1 = inline)."""
        return 1


class LogText(Workload):
    """Paper model over 2 days, text log: the text codec dominates."""

    name = "log-text"
    item = "transfers"
    RATE, CLIENTS, DAYS = 0.62, 50_000, 2.0

    def setup(self) -> None:
        self.model = LiveWorkloadModel.paper_defaults(
            mean_session_rate=self.RATE, n_clients=self.CLIENTS)
        self.path = self.workdir / "log-text.log"

    def run(self, tracer: Tracer | None) -> Rep:
        counters: dict[str, float] = {}
        t0 = time.perf_counter()
        gen = generate(self.model, self.DAYS * self.scale, self.seed,
                       self.path, "text", tracer)
        t1 = time.perf_counter()
        summary = characterize_file(self.path, tracer, counters)
        t2 = time.perf_counter()
        failures: list[str] = []
        _check(failures, summary.n_entries == gen.n_transfers,
               f"characterized {summary.n_entries} entries but generated "
               f"{gen.n_transfers} transfers")
        _check(failures, summary.n_skipped == 0,
               f"{summary.n_skipped} log lines skipped as malformed")
        counters.update(_generation_counters(gen, self.path))
        return _rep(t2 - t0, gen.n_transfers,
                    {"generate": (t1 - t0, gen.n_transfers),
                     "characterize": (t2 - t1, summary.n_entries)},
                    {"log": file_digest(self.path),
                     "summary": digest(summary)},
                    failures, counters)


class PaperBinary(Workload):
    """The conform ``paper`` workload through the binary codec."""

    name = "paper-binary"
    item = "transfers"
    RATE, CLIENTS, DAYS = 0.62, 50_000, 28.0

    def setup(self) -> None:
        self.model = LiveWorkloadModel.paper_defaults(
            mean_session_rate=self.RATE, n_clients=self.CLIENTS)
        self.path = self.workdir / "paper.rtb"
        self.golden: dict[str, int] | None = None
        if self.seed == GOLDEN_SEED and self.scale == 1.0:
            self.golden = load_registry()["workloads"]["paper"]["counts"]

    def run(self, tracer: Tracer | None) -> Rep:
        counters: dict[str, float] = {}
        t0 = time.perf_counter()
        gen = generate(self.model, self.DAYS * self.scale, self.seed,
                       self.path, "binary", tracer)
        t1 = time.perf_counter()
        summary = characterize_file(self.path, tracer, counters)
        t2 = time.perf_counter()
        trace, fit = self._hierarchy(tracer)
        t3 = time.perf_counter()

        failures: list[str] = []
        _check(failures, summary.n_entries == gen.n_transfers,
               f"characterized {summary.n_entries} entries but generated "
               f"{gen.n_transfers} transfers")
        _check(failures, summary.n_skipped == 0,
               f"{summary.n_skipped} entries skipped as malformed")
        _check(failures, len(trace) == gen.n_transfers,
               f"decoded {len(trace)} transfers but generated "
               f"{gen.n_transfers}")
        if self.golden is not None:
            _check(failures, gen.n_transfers == self.golden["n_transfers"],
                   f"{gen.n_transfers} transfers, golden.json pins "
                   f"{self.golden['n_transfers']}")
            _check(failures, gen.n_sessions == self.golden["n_sessions"],
                   f"{gen.n_sessions} sessions, golden.json pins "
                   f"{self.golden['n_sessions']}")
        counters.update(_generation_counters(gen, self.path))
        return _rep(t3 - t0, gen.n_transfers,
                    {"generate": (t1 - t0, gen.n_transfers),
                     "characterize": (t2 - t1, summary.n_entries),
                     "hierarchy": (t3 - t2, len(trace))},
                    {"trace": file_digest(self.path),
                     "summary": digest(summary),
                     "characterization": digest(fit)},
                    failures, counters)

    def _hierarchy(self, tracer: Tracer | None
                   ) -> tuple[Trace, WorkloadCharacterization]:
        """Decode, sanitize, and fit the three layers."""
        if tracer is None:
            trace = read_binary_trace(self.path)
            clean, _ = sanitize_trace(trace)
            return trace, characterize(clean)
        with tracer.span("trace.codecs.decode.binary"):
            trace = read_binary_trace(self.path)
        with tracer.span("trace.sanitize"):
            clean, _ = sanitize_trace(trace)
        with tracer.span("core.sessionizer"):
            sessions = sessionize(clean, DEFAULT_SESSION_TIMEOUT)
        with tracer.span("core.summary"):
            summary = summarize_trace(clean, sessions)
        with tracer.span("core.client_layer"):
            client = characterize_client_layer(clean, sessions)
        with tracer.span("core.session_layer"):
            session = characterize_session_layer(sessions)
        with tracer.span("core.transfer_layer"):
            transfer = characterize_transfer_layer(clean)
        return trace, WorkloadCharacterization(
            summary=summary, client=client, session=session,
            transfer=transfer, timeout=float(DEFAULT_SESSION_TIMEOUT))


# -- plan-sweep ---------------------------------------------------------
@functools.lru_cache(maxsize=1)
def _load_npz(path: str) -> Trace:
    """Per-process trace cache, as the planner's workers keep one."""
    return Trace.load_npz(path)


def _traced_config(task: tuple[str, int, float, str, float]
                   ) -> tuple[tuple[Any, ...], float, float, float]:
    """Pool worker: one candidate deployment, with its layer times.

    Returns the planner's result row plus the worker-side clock readings
    ``(start, loaded, simulated)``.
    """
    path, n_edges, bandwidth_bps, policy, step = task
    start = time.perf_counter()
    trace = _load_npz(path)
    loaded = time.perf_counter()
    config = PlanConfig(n_edges=n_edges, bandwidth_bps=bandwidth_bps,
                        max_connections=None)
    result = simulate_cdn(
        trace, config.topology(origin_stream_bps=DEFAULT_ORIGIN_STREAM_BPS),
        policy=policy, failures=FailurePlan(), step=step)
    row = (result.n_requests, result.n_rejected, result.n_reassigned,
           result.n_failover_rejected, result.rejection_rate,
           max(e.peak_connections for e in result.edges),
           max(e.peak_bandwidth_bps for e in result.edges),
           result.origin.peak_streams)
    return row, start, loaded, time.perf_counter()


class PlanSweep(Workload):
    """A 12-config SLO sweep over a saved trace, on a process pool."""

    name = "plan-sweep"
    item = "configs"
    RATE, CLIENTS, DAYS = 2.0, 10_000, 2.0
    EDGES = (1, 2, 4, 8)
    BANDWIDTHS = (10e6, 50e6, 200e6)
    POLICY, SLO, STEP, JOBS = "as-hash", 0.01, 60.0, 2

    @property
    def pool_jobs(self) -> int:
        return self.JOBS

    def setup(self) -> None:
        model = LiveWorkloadModel.paper_defaults(
            mean_session_rate=self.RATE, n_clients=self.CLIENTS)
        workload = LiveWorkloadGenerator(model).generate(
            self.DAYS * self.scale, seed=self.seed)
        self.path = self.workdir / "plan.npz"
        workload.trace.save_npz(self.path)
        self.n_transfers = int(workload.trace.n_transfers)

    def run(self, tracer: Tracer | None) -> Rep:
        counters: dict[str, float] = {}
        t0 = time.perf_counter()
        if tracer is None:
            report = plan_deployment(
                self.path, policy=self.POLICY, slo=self.SLO,
                edge_counts=self.EDGES, bandwidths_bps=self.BANDWIDTHS,
                step=self.STEP, jobs=self.JOBS)
        else:
            report = self._traced_plan(tracer, counters)
        t1 = time.perf_counter()
        n = len(report.outcomes)
        failures: list[str] = []
        _check(failures, n == len(self.EDGES) * len(self.BANDWIDTHS),
               f"swept {n} configs, expected "
               f"{len(self.EDGES) * len(self.BANDWIDTHS)}")
        for outcome in report.outcomes:
            _check(failures, outcome.n_requests == self.n_transfers,
                   f"{outcome.n_edges}x{outcome.bandwidth_bps:g}: "
                   f"{outcome.n_requests} requests for "
                   f"{self.n_transfers} transfers")
        return _rep(t1 - t0, n, {"sweep": (t1 - t0, n)},
                    {"report": digest(report.to_dict())}, failures, counters)

    def _traced_plan(self, tracer: Tracer,
                     counters: dict[str, float]) -> PlanReport:
        """``plan_deployment`` with worker-side load/simulate spans."""
        configs = sweep_configs(self.EDGES, self.BANDWIDTHS)
        tasks = [(str(self.path), c.n_edges, c.bandwidth_bps, self.POLICY,
                  self.STEP) for c in configs]
        with tracer.span("parallel.pool") as pool:
            results = map_ordered(_traced_config, tasks, jobs=self.JOBS,
                                  label="config")
        wall = tracer.spans[pool].duration
        worker_busy = 0.0
        for _, start, loaded, done in results:
            tracer.add("cdn.load_trace", start, loaded, pool)
            tracer.add("cdn.simulate", loaded, done, pool)
            worker_busy += done - start
        rows = [row for row, *_ in results]
        requests = sum(row[0] for row in rows)
        counters["parallel.pool.overhead_s"] = (
            wall - worker_busy / min(self.JOBS, len(tasks)))
        counters["cdn.simulate.calls"] = len(rows)
        counters["cdn.admitted_ratio"] = (
            (requests - sum(row[1] for row in rows)) / requests
            if requests else 0.0)

        outcomes = tuple(
            ConfigOutcome(n_edges=c.n_edges, bandwidth_bps=c.bandwidth_bps,
                          max_connections=c.max_connections,
                          n_requests=row[0], n_rejected=row[1],
                          n_reassigned=row[2], n_failover_rejected=row[3],
                          rejection_rate=row[4], peak_connections=row[5],
                          peak_bandwidth_bps=row[6],
                          origin_peak_streams=row[7])
            for c, row in zip(configs, rows, strict=True))
        frontier = []
        for count in sorted({o.n_edges for o in outcomes}):
            meeting = [o for o in outcomes
                       if o.n_edges == count and o.meets(self.SLO)]
            if meeting:
                frontier.append(min(
                    meeting, key=lambda o: (o.bandwidth_bps is None,
                                            o.bandwidth_bps or 0.0)))
        return PlanReport(policy=self.POLICY, slo=self.SLO,
                          outcomes=outcomes, frontier=tuple(frontier),
                          best=frontier[0] if frontier else None)

    def peak_rss_mib(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return max(own, workers) / 1024.0


# -- live-ingest --------------------------------------------------------
_LISTENING = re.compile(r"tcp=(\d+) http=(\d+)")


def _without_peaks(obj: Any) -> Any:
    """``obj`` without its high-water marks (keys starting ``peak``).

    The service's ``/state`` is a function of the lines each feed
    processed, except for gauges such as the sessionizer's
    ``peak_open``: those depend on where TCP split the stream into
    batches, which changes from run to run.
    """
    if isinstance(obj, dict):
        return {key: _without_peaks(value) for key, value in obj.items()
                if not str(key).startswith("peak")}
    if isinstance(obj, list):
        return [_without_peaks(item) for item in obj]
    return obj


#: Seconds to wait for the service to boot or to stop.
_SERVICE_WAIT_S = 60.0

#: ``prctl`` option asking the kernel to signal a child when its parent
#: dies (Linux).
_PR_SET_PDEATHSIG = 1


def _stop_with_parent() -> None:
    """In the service child: get SIGTERM if the benchmark dies first."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)


class LiveIngest(Workload):
    """Replay a text log into ``repro serve`` over two closed-loop feeds."""

    name = "live-ingest"
    item = "lines"
    # Two processes share the host here, and a repetition's time varies
    # by a third within a run, so the median needs more of them.
    min_reps = 6
    RATE, CLIENTS, DAYS = 0.5, 10_000, 3.0
    FEEDS, BATCH_LINES = 2, 2048

    def __init__(self, seed: int, workdir: Path, scale: float = 1.0) -> None:
        super().__init__(seed, workdir, scale)
        self.service: subprocess.Popen[str] | None = None
        self.used = False

    def setup(self) -> None:
        model = LiveWorkloadModel.paper_defaults(
            mean_session_rate=self.RATE, n_clients=self.CLIENTS)
        self.path = self.workdir / "live.log"
        result = run_streaming_generation(
            model, self.DAYS * self.scale, seed=self.seed,
            log_path=self.path, collect_sessions=False)
        self.n_transfers = result.n_transfers
        # The service drops from session tracking, by design, transfers
        # that last longer than its reorder bound; the lognormal length
        # tail puts one in about one log in ten.  Timestamps are whole
        # seconds, hence the margin.
        at = LOG_FIELDS.index("x-duration")
        with open(self.path, encoding="ascii") as stream:
            self.n_long = sum(
                1 for line in stream if not line.startswith("#")
                and float(line.split()[at]) >= DEFAULT_LATENESS - 2.0)
        self._boot()

    def _boot(self) -> None:
        src = Path(sys.modules["repro"].__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        self.service = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--tcp-port", "0", "--http-port", "0"],
            stdout=subprocess.PIPE, text=True, env=env, cwd=self.workdir,
            preexec_fn=_stop_with_parent)
        assert self.service.stdout is not None
        line = self.service.stdout.readline()
        match = _LISTENING.search(line)
        if match is None:
            self.teardown()
            raise RuntimeError(f"service did not start: {line!r}")
        self.tcp_port, self.http_port = int(match[1]), int(match[2])
        self.used = False

    def before_rep(self) -> None:
        if self.used:
            self.teardown()
            self._boot()

    def teardown(self) -> None:
        service, self.service = self.service, None
        if service is None:
            return
        service.terminate()
        try:
            service.wait(timeout=_SERVICE_WAIT_S)
        except subprocess.TimeoutExpired:
            service.kill()
            service.wait()
        if service.stdout is not None:
            service.stdout.close()

    def _get(self, route: str) -> Any:
        url = f"http://127.0.0.1:{self.http_port}{route}"
        with urllib.request.urlopen(url, timeout=_SERVICE_WAIT_S) as reply:
            return json.load(reply)

    def run(self, tracer: Tracer | None) -> Rep:
        self.used = True
        load = run_load_async(
            self.path, tcp_port=self.tcp_port, http_port=self.http_port,
            feeds=self.FEEDS, batch_lines=self.BATCH_LINES, speedup=0.0)
        counters: dict[str, float] = {}
        if tracer is None:
            t0 = time.perf_counter()
            report = asyncio.run(load)
            t1 = time.perf_counter()
        else:
            report, t0, t1 = self._traced_load(load, tracer, counters)

        feeds = self._get("/metrics")["feeds"]
        state = self._get("/state")["feeds"]
        totals: dict[str, int] = {}
        for block in feeds.values():
            for key, value in block["counters"].items():
                totals[key] = totals.get(key, 0) + int(value)
        ingested = totals.get("lines_ingested", 0)
        shed = totals.get("shed_lines", 0) + totals.get("shed_events", 0)
        late = max(0, totals.get("late_drops", 0) - self.n_long)
        line_failures = (shed + report.retries + totals.get("feed_errors", 0)
                         + late + abs(report.lines_sent - ingested))
        failures: list[str] = []
        _check(failures, ingested == report.lines_sent,
               f"service ingested {ingested} lines of "
               f"{report.lines_sent} sent")
        _check(failures, totals.get("entries_ingested") == self.n_transfers,
               f"service characterized {totals.get('entries_ingested')} "
               f"entries of {self.n_transfers} transfers")
        _check(failures, late == 0,
               f"{totals.get('late_drops')} late drops, only {self.n_long} "
               "transfers outlast the reorder bound")
        for key in ("feed_errors", "truncated_lines"):
            _check(failures, totals.get(key, 0) == 0,
                   f"{totals.get(key)} {key}")
        counters.update({
            "serve.shed_lines": shed,
            "serve.retries": report.retries,
            "serve.ingested_ratio": (ingested / report.lines_sent
                                     if report.lines_sent else 0.0),
        })
        return _rep(t1 - t0, report.lines_sent,
                    {"ingest": (t1 - t0, report.lines_sent)},
                    {"state": digest(_without_peaks(state))},
                    failures, counters, failed_items=line_failures)

    def _traced_load(self, load: Any, tracer: Tracer,
                     counters: dict[str, float]) -> tuple[Any, float, float]:
        """Run the replay with every ingest-socket ``drain`` timed.

        ``StreamWriter.drain`` returns once the kernel send buffer has
        room again, so the time spent in it is the time the service's
        backpressure holds the client up.  The patch lives only in this
        process, for the length of the replay.
        """
        original = asyncio.StreamWriter.drain
        blocked: list[tuple[float, float]] = []
        tcp_port = self.tcp_port

        async def timed_drain(writer: asyncio.StreamWriter) -> None:
            start = time.perf_counter()
            try:
                await original(writer)
            finally:
                peer = writer.get_extra_info("peername")
                if peer is not None and peer[1] == tcp_port:
                    blocked.append((start, time.perf_counter()))

        asyncio.StreamWriter.drain = timed_drain  # type: ignore[method-assign]
        try:
            with tracer.span("serve.load") as parent:
                report = asyncio.run(load)
        finally:
            asyncio.StreamWriter.drain = original  # type: ignore[method-assign]
        span = tracer.spans[parent]
        for start, end in blocked:
            tracer.add("serve.send.blocked", start, end, parent)
        sent = max((end for _, end in blocked), default=span.start)
        tracer.add("serve.drain.wait", sent, span.end, parent)
        counters["serve.send.blocked_s"] = covered_length(blocked)
        counters["serve.drain.wait_s"] = span.end - sent
        return report, span.start, span.end

    def peak_rss_mib(self) -> float:
        # The services are this process's only children, and each has
        # been waited for by teardown, so this is the largest service
        # VmHWM of the run.
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (LogText, PaperBinary, PlanSweep, LiveIngest)}
