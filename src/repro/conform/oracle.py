"""Cross-pipeline differential oracle.

The repo carries three ways to produce the same workload — the serial
batch engine (``repro.core``), the same engine on a worker pool
(``repro.parallel``), and the bounded-memory streaming pipeline
(``repro.stream``) — all bound by one determinism contract: *for a
fixed (model, days, seed) every path yields bit-identical artifacts*.
The oracle enforces the contract by actually running the matrix:

* ``parallel[jobs=j]`` for each pooled worker count must equal the
  serial batch trace column for column (plus the session attribution);
* ``stream[chunk=c]`` for several chunk sizes must write byte-identical
  WMS logs and finalize bit-identical session columns;
* ``stream[resume@k]`` runs the streaming pipeline up to a mid-run
  checkpoint, abandons it, resumes from the checkpoint file, and the
  stitched artifacts must *still* be byte-identical;
* ``binary[...]`` re-runs the streaming pipeline with the columnar
  binary codec (:mod:`repro.trace.codecs`) and proves it interchangeable
  with the text log three ways: the decoded :class:`~repro.trace.Trace`
  is bit-identical to the parsed text log (client table included), the
  binary entry stream re-formatted through the text formatter reproduces
  the text log's data lines byte for byte, and a mid-run kill/resume
  yields a byte-identical binary file.  The map-reduce characterization
  of the binary file must also be the same at one and two workers and
  agree with the text log's, and its ``bytes_served`` the batch trace's.

Each comparison is recorded individually, so a violation names the
exact configuration and the first diverging column/byte.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from ..core.gismo import GismoWorkload, LiveWorkloadGenerator
from ..core.sessionizer import sessionize
from ..parallel import characterize_logs
from ..stream import GenerationStream, run_streaming_generation
from ..trace.codecs import BinaryTraceReader, format_quantized_entry, read_binary_trace
from ..trace.wms_log import read_wms_log, write_wms_log
from .matrix import WorkloadSpec

#: Default differential matrix (smoke scale).
DEFAULT_PARALLEL_JOBS: tuple[int, ...] = (2,)
DEFAULT_CHUNK_SIZES: tuple[int, ...] = (7, 1009)

#: Fraction of the canonical blocks executed before the mid-run
#: checkpoint/resume split.
RESUME_SPLIT_FRACTION = 1 / 3

#: Chunk size of the binary characterization leg: small enough that a
#: smoke-scale file splits into several chunks, so two workers merge.
SUMMARY_CHUNK_BYTES = 2048


@dataclass(frozen=True)
class OracleComparison:
    """One artifact comparison between two pipeline paths."""

    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class OracleReport:
    """All differential comparisons for one canonical workload."""

    workload: str
    comparisons: tuple[OracleComparison, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.comparisons)

    def failures(self) -> tuple[OracleComparison, ...]:
        """The comparisons that found a divergence."""
        return tuple(c for c in self.comparisons if not c.passed)


def _compare_trace(name: str, reference: GismoWorkload,
                   candidate: GismoWorkload) -> OracleComparison:
    """Bit-compare two workloads' traces and session attributions."""
    ref, cand = reference.trace, candidate.trace
    columns = (
        ("client_index", ref.client_index, cand.client_index),
        ("object_id", ref.object_id, cand.object_id),
        ("start", ref.start, cand.start),
        ("duration", ref.duration, cand.duration),
        ("bandwidth_bps", ref.bandwidth_bps, cand.bandwidth_bps),
        ("transfer_session", reference.transfer_session,
         candidate.transfer_session),
    )
    for column, a, b in columns:
        if a.shape != b.shape:
            return OracleComparison(
                name, False,
                f"{column}: shape {b.shape} != reference {a.shape}")
        if a.dtype != b.dtype:
            return OracleComparison(
                name, False,
                f"{column}: dtype {b.dtype} != reference {a.dtype}")
        if not np.array_equal(a, b):
            i = int(np.flatnonzero(a != b)[0])
            return OracleComparison(
                name, False,
                f"{column}[{i}]: {b[i]!r} != reference {a[i]!r}")
    if ref.extent != cand.extent:
        return OracleComparison(
            name, False, f"extent: {cand.extent} != reference {ref.extent}")
    return OracleComparison(
        name, True, f"{ref.n_transfers} transfers bit-identical")


def _compare_files(name: str, reference: Path,
                   candidate: Path) -> OracleComparison:
    """Byte-compare two files, reporting the first diverging line."""
    ref_bytes = reference.read_bytes()
    cand_bytes = candidate.read_bytes()
    if ref_bytes == cand_bytes:
        return OracleComparison(
            name, True, f"{len(ref_bytes)} bytes byte-identical")
    limit = min(len(ref_bytes), len(cand_bytes))
    view_a = np.frombuffer(ref_bytes, dtype=np.uint8, count=limit)
    view_b = np.frombuffer(cand_bytes, dtype=np.uint8, count=limit)
    diffs = np.flatnonzero(view_a != view_b)
    offset = int(diffs[0]) if diffs.size else limit
    line = ref_bytes[:offset].count(b"\n") + 1
    return OracleComparison(
        name, False,
        f"first divergence at byte {offset} (line {line}); sizes "
        f"{len(cand_bytes)} vs reference {len(ref_bytes)}")


def _compare_sessions(name: str, reference, candidate) -> OracleComparison:
    """Bit-compare ``(client, start, end, count)`` session columns."""
    labels = ("client_index", "start", "end", "n_transfers")
    for label, a, b in zip(labels, reference, candidate, strict=True):
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape:
            return OracleComparison(
                name, False,
                f"sessions.{label}: shape {b.shape} != reference {a.shape}")
        if not np.array_equal(a, b):
            i = int(np.flatnonzero(a != b)[0])
            return OracleComparison(
                name, False,
                f"sessions.{label}[{i}]: {b[i]!r} != reference {a[i]!r}")
    return OracleComparison(
        name, True,
        f"{np.asarray(reference[0]).size} sessions bit-identical")


def _compare_decoded(name: str, reference, candidate) -> OracleComparison:
    """Bit-compare two fully decoded traces, client tables included.

    Unlike :func:`_compare_trace` (generator output), this covers every
    persisted column — the quantized loss/cpu/status fields and the
    client identity strings — because codec interchangeability is a
    claim about the *decoded artifact*, not just the generator state.
    """
    columns = [(column, getattr(reference, column), getattr(candidate, column))
               for column in ("client_index", "object_id", "start",
                              "duration", "bandwidth_bps", "packet_loss",
                              "server_cpu", "status")]
    columns += [(f"clients.{column}",
                 getattr(reference.clients, column),
                 getattr(candidate.clients, column))
                for column in ("player_ids", "ips", "os_names")]
    for column, a, b in columns:
        if a.shape != b.shape:
            return OracleComparison(
                name, False,
                f"{column}: shape {b.shape} != reference {a.shape}")
        if not np.array_equal(a, b):
            i = int(np.flatnonzero(a != b)[0])
            return OracleComparison(
                name, False,
                f"{column}[{i}]: {b[i]!r} != reference {a[i]!r}")
    if reference.extent != candidate.extent:
        return OracleComparison(
            name, False,
            f"extent: {candidate.extent} != reference {reference.extent}")
    return OracleComparison(
        name, True,
        f"{reference.n_transfers} transfers + {len(reference.clients)} "
        f"clients bit-identical after decode")


def _compare_entry_streams(name: str, text_log: Path,
                           binary_path: Path) -> OracleComparison:
    """Re-format the binary entry stream and compare to the text log.

    Every entry of every binary segment, walked in file order and pushed
    through the text formatter with the binary file's own client
    identities, must reproduce the text log's data lines byte for byte.
    This pins the quantization contract (truncated timestamps, half-even
    rounding, 4-decimal ratios) to the text format itself rather than to
    whatever both decoders happen to agree on.
    """
    with open(text_log, "r", encoding="ascii") as stream:
        text_lines = [line.rstrip("\n") for line in stream
                      if not line.startswith("#")]
    formatted: list[str] = []
    with BinaryTraceReader(binary_path) as reader:
        identity = reader.identity_lookup()
        for quantized in reader.iter_quantized():
            rows = int(quantized["timestamp"].shape[0])
            formatted.extend(
                format_quantized_entry(quantized, row, identity)
                for row in range(rows))
    if len(formatted) != len(text_lines):
        return OracleComparison(
            name, False,
            f"entry count {len(formatted)} != text data lines "
            f"{len(text_lines)}")
    for i, (got, want) in enumerate(zip(formatted, text_lines,
                                        strict=True)):
        if got != want:
            return OracleComparison(
                name, False,
                f"entry {i}: formatted {got!r} != text line {want!r}")
    return OracleComparison(
        name, True,
        f"{len(formatted)} binary entries re-format to the exact text "
        f"data lines")


def _compare_binary_summaries(name: str, text_log: Path, batch_bytes: float,
                              binary_path: Path) -> OracleComparison:
    """Characterize the binary file at one and two workers.

    ``characterize_logs`` must report the same summary, bit for bit, at
    ``jobs=1`` and ``jobs=2``, and the text log's summary, whose
    ``bytes_served`` must also equal ``batch_bytes``, the batch total.
    """
    serial = characterize_logs(binary_path, jobs=1,
                               chunk_bytes=SUMMARY_CHUNK_BYTES)
    pooled = characterize_logs(binary_path, jobs=2,
                               chunk_bytes=SUMMARY_CHUNK_BYTES)
    text = characterize_logs(text_log, jobs=1)
    batch = replace(text, bytes_served=batch_bytes)
    for other, label in ((pooled, "jobs=2"), (text, "text log"),
                         (batch, "batch trace")):
        for field in fields(serial):
            want = getattr(serial, field.name)
            got = getattr(other, field.name)
            same = (np.array_equal(want, got)
                    if isinstance(want, np.ndarray) else want == got)
            if not same:
                return OracleComparison(
                    name, False,
                    f"{field.name}: {label} {got!r} != binary jobs=1 "
                    f"{want!r}")
    return OracleComparison(
        name, True,
        f"{serial.n_entries} entries: binary summary equal at jobs=1 and "
        f"jobs=2, and to the text log's; bytes_served {batch_bytes!r} equal "
        "to the batch trace's")


def run_differential_oracle(
        spec: WorkloadSpec, workdir: str | Path, *,
        parallel_jobs: tuple[int, ...] = DEFAULT_PARALLEL_JOBS,
        chunk_sizes: tuple[int, ...] = DEFAULT_CHUNK_SIZES,
        resume_split: bool = True,
        binary_codec: bool = True,
        reference: GismoWorkload | None = None,
        scenario: str | None = None) -> OracleReport:
    """Run the full differential matrix for one canonical workload.

    Parameters
    ----------
    spec:
        The canonical workload.
    workdir:
        Scratch directory for log files and checkpoints.
    parallel_jobs:
        Worker counts for the pooled batch engine.
    chunk_sizes:
        Streaming batch sizes; the smallest must split at least one
        canonical block into sibling batches (verified), or intra-block
        horizon handling would go untested.
    resume_split:
        Also run the streaming pipeline with a mid-run checkpoint
        abandon/resume and compare the stitched artifacts.
    binary_codec:
        Also run the streaming pipeline with the columnar binary codec
        and prove decode bit-identity, entry-stream byte identity
        against the text log, binary kill/resume byte identity, and
        equal binary characterization summaries at one and two workers.
    reference:
        Reuse an already generated batch workload.
    scenario:
        Optional scenario spec applied to *every* leg of the matrix —
        the scenario determinism contract says the perturbed workload
        must stay bit-identical across engines too.
    """
    workdir = Path(workdir)
    model = spec.model()
    comparisons: list[OracleComparison] = []

    if reference is None:
        reference = LiveWorkloadGenerator(model).generate(
            spec.days, seed=spec.seed, scenario=scenario)
    ref_log = workdir / "reference.log"
    write_wms_log(reference.trace, ref_log)
    ref_sessions = sessionize(reference.trace).session_columns()

    for jobs in parallel_jobs:
        candidate = LiveWorkloadGenerator(model).generate(
            spec.days, seed=spec.seed, jobs=jobs, scenario=scenario)
        comparisons.append(_compare_trace(
            f"parallel[jobs={jobs}].trace", reference, candidate))

    min_chunk = min(chunk_sizes)
    probe = GenerationStream(model, spec.days, seed=spec.seed,
                             chunk_size=min_chunk, scenario=scenario)
    splits = max(len(step) for step in probe.block_steps())
    comparisons.append(OracleComparison(
        f"stream[chunk={min_chunk}].splits-blocks", splits > 1,
        f"largest block emitted {splits} sibling batches "
        f"(need >1 to exercise intra-block horizons)"))

    for chunk in chunk_sizes:
        log_path = workdir / f"stream_chunk{chunk}.log"
        result = run_streaming_generation(
            model, spec.days, seed=spec.seed, log_path=log_path,
            chunk_size=chunk, scenario=scenario)
        comparisons.append(_compare_files(
            f"stream[chunk={chunk}].log", ref_log, log_path))
        comparisons.append(_compare_sessions(
            f"stream[chunk={chunk}].sessions", ref_sessions,
            (result.sessions.client_index, result.sessions.start,
             result.sessions.end, result.sessions.n_transfers)))

    if resume_split:
        chunk = min_chunk
        split = max(1, int(probe.n_blocks * RESUME_SPLIT_FRACTION))
        log_path = workdir / "stream_resume.log"
        ck_path = workdir / "stream_resume.ck.npz"
        first = run_streaming_generation(
            model, spec.days, seed=spec.seed, log_path=log_path,
            chunk_size=chunk, checkpoint_path=ck_path, resume=True,
            max_blocks=split, scenario=scenario)
        comparisons.append(OracleComparison(
            f"stream[resume@{split}].interrupted", not first.completed,
            f"first leg stopped after {first.blocks_run} of "
            f"{probe.n_blocks} blocks"))
        second = run_streaming_generation(
            model, spec.days, seed=spec.seed, log_path=log_path,
            chunk_size=chunk, checkpoint_path=ck_path, resume=True,
            scenario=scenario)
        comparisons.append(OracleComparison(
            f"stream[resume@{split}].completed", second.completed,
            "resumed leg ran to the end of the window"))
        comparisons.append(_compare_files(
            f"stream[resume@{split}].log", ref_log, log_path))
        comparisons.append(_compare_sessions(
            f"stream[resume@{split}].sessions", ref_sessions,
            (second.sessions.client_index, second.sessions.start,
             second.sessions.end, second.sessions.n_transfers)))

    if binary_codec:
        chunk = min_chunk
        bin_path = workdir / f"binary_chunk{chunk}.rtb"
        bin_result = run_streaming_generation(
            model, spec.days, seed=spec.seed, log_path=bin_path,
            chunk_size=chunk, codec="binary", scenario=scenario)
        comparisons.append(_compare_sessions(
            f"binary[chunk={chunk}].sessions", ref_sessions,
            (bin_result.sessions.client_index, bin_result.sessions.start,
             bin_result.sessions.end, bin_result.sessions.n_transfers)))
        ref_trace = read_wms_log(ref_log)
        comparisons.append(_compare_decoded(
            f"binary[chunk={chunk}].decode",
            ref_trace, read_binary_trace(bin_path)))
        comparisons.append(_compare_entry_streams(
            f"binary[chunk={chunk}].entry-stream", ref_log, bin_path))
        comparisons.append(_compare_binary_summaries(
            f"binary[chunk={chunk}].summary", ref_log,
            ref_trace.bytes_served(), bin_path))

        if resume_split:
            split = max(1, int(probe.n_blocks * RESUME_SPLIT_FRACTION))
            resume_path = workdir / "binary_resume.rtb"
            ck_path = workdir / "binary_resume.ck.npz"
            first = run_streaming_generation(
                model, spec.days, seed=spec.seed, log_path=resume_path,
                chunk_size=chunk, codec="binary", checkpoint_path=ck_path,
                resume=True, max_blocks=split, scenario=scenario)
            comparisons.append(OracleComparison(
                f"binary[resume@{split}].interrupted", not first.completed,
                f"first leg stopped after {first.blocks_run} of "
                f"{probe.n_blocks} blocks"))
            run_streaming_generation(
                model, spec.days, seed=spec.seed, log_path=resume_path,
                chunk_size=chunk, codec="binary", checkpoint_path=ck_path,
                resume=True, scenario=scenario)
            comparisons.append(_compare_files(
                f"binary[resume@{split}].file", bin_path, resume_path))

    return OracleReport(workload=spec.name, comparisons=tuple(comparisons))
