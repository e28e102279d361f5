"""End-to-end equivalence of the streaming pipeline with the batch path.

The acceptance contract of ``repro.stream``: for a fixed ``(model, days,
seed, blocks)`` the streamed artifacts — log bytes, finalized sessions,
characterization summary — are bit-identical to the batch pipeline's,
for any chunk size and across arbitrary checkpoint/resume splits.
"""

import dataclasses
import errno
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.model import LiveWorkloadModel
from repro.core.sessionizer import sessionize
from repro.errors import CheckpointError
from repro.parallel import pool
from repro.parallel.characterize import (
    CHECKPOINT_EVERY,
    characterize_logs,
    plan_log_chunks,
)
from repro.parallel.engine import generate_sharded
from repro.stream import GenerationStream, checkpoint, run_streaming_generation
from repro.stream.checkpoint import load_checkpoint, save_checkpoint
from repro.trace.wms_log import write_wms_log

SEED = 99
DAYS = 1.0


@pytest.fixture(scope="module")
def model():
    return LiveWorkloadModel.paper_defaults(mean_session_rate=0.01,
                                            n_clients=400)


@pytest.fixture(scope="module")
def batch_artifacts(model, tmp_path_factory):
    root = tmp_path_factory.mktemp("stream_batch")
    workload = generate_sharded(model, DAYS, seed=SEED)
    log = root / "batch.log"
    write_wms_log(workload.trace, log)
    return workload.trace, log


def _assert_sessions_match(result, trace):
    client, start, end, count = sessionize(trace).session_columns()
    got = result.sessions
    np.testing.assert_array_equal(got.client_index, client)
    np.testing.assert_array_equal(got.start, start)
    np.testing.assert_array_equal(got.end, end)
    np.testing.assert_array_equal(got.n_transfers, count)
    assert result.n_sessions == client.size


def test_small_chunks_split_blocks(model):
    """Guard for the equivalence parametrization below: chunk_size=7 must
    produce sibling batches within a block — the case where a batch's
    horizon must bound its *siblings'* starts, not just the next block's
    (the regression that once finalized sessions early and reordered log
    entries)."""
    stream = GenerationStream(model, DAYS, seed=SEED, chunk_size=7)
    assert max(len(step) for step in stream.block_steps()) > 1


@pytest.mark.parametrize("chunk_size", [100_000, 137, 7])
def test_streamed_artifacts_match_batch(model, batch_artifacts, tmp_path,
                                        chunk_size):
    trace, batch_log = batch_artifacts
    stream_log = tmp_path / "stream.log"
    result = run_streaming_generation(model, DAYS, seed=SEED,
                                      log_path=stream_log,
                                      chunk_size=chunk_size)
    assert result.completed
    assert result.n_transfers == trace.n_transfers
    assert result.n_entries == trace.n_transfers
    assert stream_log.read_bytes() == batch_log.read_bytes()
    _assert_sessions_match(result, trace)
    # The bounded-state claim: in-flight state stays well below the trace.
    assert result.peak_log_buffered < trace.n_transfers
    assert result.peak_open_sessions <= result.n_sessions


def test_kill_and_resume_is_bit_transparent(model, batch_artifacts,
                                            tmp_path):
    trace, batch_log = batch_artifacts
    log = tmp_path / "resumed.log"
    ck = tmp_path / "ck.npz"
    # chunk_size=17 splits blocks into sibling batches (see
    # test_small_chunks_split_blocks), so resume legs also cross
    # mid-block horizon state.
    kwargs = dict(seed=SEED, log_path=log, chunk_size=17,
                  checkpoint_path=ck)
    # Three interrupted legs, then run to completion; a resume with a
    # missing checkpoint file (the very first leg) starts from scratch.
    legs = 0
    while True:
        result = run_streaming_generation(model, DAYS, resume=True,
                                          max_blocks=17, **kwargs)
        legs += 1
        if result.completed:
            break
    assert legs == 4  # 64 blocks / 17 per leg
    assert log.read_bytes() == batch_log.read_bytes()
    _assert_sessions_match(result, trace)

    # Resuming a completed run is a no-op with identical artifacts.
    again = run_streaming_generation(model, DAYS, resume=True, **kwargs)
    assert again.completed and again.blocks_run == 0
    assert log.read_bytes() == batch_log.read_bytes()
    _assert_sessions_match(again, trace)


def test_resume_rejects_wrong_workload(model, tmp_path):
    log = tmp_path / "s.log"
    ck = tmp_path / "ck.npz"
    run_streaming_generation(model, DAYS, seed=SEED, log_path=log,
                             checkpoint_path=ck, max_blocks=5)
    with pytest.raises(CheckpointError, match="seed"):
        run_streaming_generation(model, DAYS, seed=SEED + 1, log_path=log,
                                 checkpoint_path=ck, resume=True)
    with pytest.raises(CheckpointError, match="missing"):
        (tmp_path / "s.log").unlink()
        run_streaming_generation(model, DAYS, seed=SEED, log_path=log,
                                 checkpoint_path=ck, resume=True)


#: Every array of a generation checkpoint with a log and collected
#: sessions, by codec.
_RUN_ARRAYS = (
    [f"gen_pending_{name}" for name in (
        "start", "duration", "object_id", "bandwidth_bps",
        "transfer_session")]
    + [f"sess_{name}" for name in (
        "open", "start", "run_max", "count", "last_start")]
    + [f"log_{name}" for name in (
        "end", "position", "client_index", "object_id", "duration",
        "bandwidth_bps", "packet_loss", "server_cpu", "status")]
    + [f"fin_{name}" for name in ("client", "start", "end", "count")])
RUN_ARRAYS = {"text": _RUN_ARRAYS,
              "binary": _RUN_ARRAYS + ["log_seen_clients"]}

#: Damage applied to one checkpoint array.
DAMAGE = {
    "dropped": lambda arrays, key: arrays.pop(key),
    "halved": lambda arrays, key: arrays.update(
        {key: arrays[key][:arrays[key].size // 2]}),
}


@pytest.fixture(scope="module")
def interrupted_runs(model, tmp_path_factory):
    """Per codec: a log and the checkpoint of a run stopped after five
    blocks, with every checkpoint array non-empty."""
    root = tmp_path_factory.mktemp("interrupted")
    runs = {}
    for codec, keys in RUN_ARRAYS.items():
        log, ck = root / f"run.{codec}", root / f"{codec}.npz"
        run_streaming_generation(model, DAYS, seed=SEED, log_path=log,
                                 codec=codec, checkpoint_path=ck,
                                 max_blocks=5)
        _, arrays = load_checkpoint(ck)
        assert sorted(arrays) == sorted(keys)
        assert all(column.size for column in arrays.values())
        runs[codec] = (log, ck)
    return runs


@pytest.mark.parametrize(
    ("codec", "key", "damage"),
    [(codec, key, damage) for codec, keys in RUN_ARRAYS.items()
     for key in keys for damage in DAMAGE])
def test_resume_rejects_damaged_checkpoint(model, interrupted_runs, tmp_path,
                                           codec, key, damage):
    """Dropping or halving any one array of a generation checkpoint is
    refused with CheckpointError naming it; none resumes into a wrong
    log or fails with a bare IndexError."""
    log, ck = tmp_path / "run.log", tmp_path / "ck.npz"
    log.write_bytes(interrupted_runs[codec][0].read_bytes())
    meta, arrays = load_checkpoint(interrupted_runs[codec][1])
    DAMAGE[damage](arrays, key)
    save_checkpoint(ck, meta, arrays)
    with pytest.raises(CheckpointError, match=key):
        run_streaming_generation(model, DAYS, seed=SEED, log_path=log,
                                 codec=codec, checkpoint_path=ck,
                                 resume=True)


def test_count_only_mode_matches(model, batch_artifacts, tmp_path):
    trace, _ = batch_artifacts
    result = run_streaming_generation(model, DAYS, seed=SEED,
                                      collect_sessions=False)
    assert result.sessions is None
    assert result.n_entries == 0  # no log requested
    assert result.n_sessions == sessionize(trace).n_sessions
    assert result.n_transfers == trace.n_transfers


#: codec -> chunk size giving a plan of several chunks for its log.
RESUME_CHUNK_BYTES = {"text": 8_192, "binary": 1_024}


@pytest.fixture(scope="module")
def codec_logs(model, batch_artifacts, tmp_path_factory):
    """The batch log and an ``.rtb`` copy of the same workload."""
    binary = tmp_path_factory.mktemp("stream_binary") / "batch.rtb"
    run_streaming_generation(model, DAYS, seed=SEED, log_path=binary,
                             codec="binary", collect_sessions=False)
    return {"text": batch_artifacts[1], "binary": binary}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("codec", sorted(RESUME_CHUNK_BYTES))
def test_resumable_characterization_matches_mapreduce(codec_logs, tmp_path,
                                                      codec, jobs):
    log, chunk_bytes = codec_logs[codec], RESUME_CHUNK_BYTES[codec]
    want = characterize_logs(log, jobs=2, chunk_bytes=chunk_bytes)
    whole = tmp_path / "whole.npz"
    assert characterize_logs(log, chunk_bytes=chunk_bytes,
                             checkpoint_path=whole) is not None
    ck = tmp_path / "chk.npz"
    # Drive in 5-chunk legs until done, resuming each time: a leg saves
    # after 4 merged chunks and again at its stop.
    summary = None
    for legs in range(1, 100):
        summary = characterize_logs(
            log, jobs=jobs, checkpoint_path=ck, resume=True,
            chunk_bytes=chunk_bytes, max_chunks=5)
        if summary is not None:
            break
    assert legs > 1
    assert summary is not None
    np.testing.assert_equal(dataclasses.asdict(summary),
                            dataclasses.asdict(want))
    meta, _ = load_checkpoint(ck)
    whole_meta, _ = load_checkpoint(whole)
    assert meta == whole_meta


def _disk_full(staged, dst):
    raise OSError(errno.ENOSPC, "No space left on device")


def _short_write(staged, dst):
    with open(staged, "r+b") as stream:
        stream.truncate(os.path.getsize(staged) // 2)
    _disk_full(staged, dst)


class _Killed(BaseException):
    """Stands in for the writer's process dying mid-save."""


def _killed_writer(staged, dst):
    # A killed writer's temp file outlives it, half written, beside the
    # checkpoint (this process's own temp file is still cleaned up).
    data = Path(staged).read_bytes()
    Path(f"{dst}.killed.tmp").write_bytes(data[:len(data) // 2])
    raise _Killed


@pytest.mark.parametrize("codec, driver, fault", [
    pytest.param("text", "characterize", _disk_full, id="text"),
    pytest.param("binary", "characterize", _disk_full, id="binary"),
    *(pytest.param("text", driver, fault, id=f"{name}-{driver}")
      for name, fault in (("short-write", _short_write),
                          ("killed-writer", _killed_writer))
      for driver in ("characterize", "generate")),
])
def test_failed_checkpoint_save_keeps_the_previous_one(
        model, codec_logs, tmp_path, monkeypatch, codec, driver, fault):
    # The second save of a checkpointed run fails: the disk is full at the
    # rename, the staged archive is cut short before it, or the writer
    # dies and leaves a half-written temp file.  The failure reaches the
    # caller, no worker outlives the call, the first checkpoint is intact,
    # and resuming from it gives the uninterrupted summary, log and final
    # checkpoint bytes.
    if driver == "characterize":
        log, chunk_bytes = codec_logs[codec], RESUME_CHUNK_BYTES[codec]
        assert len(plan_log_chunks([log], chunk_bytes=chunk_bytes)) > \
            CHECKPOINT_EVERY

        def run(ck, **kwargs):
            summary = characterize_logs(log, jobs=2, chunk_bytes=chunk_bytes,
                                        checkpoint_path=ck, **kwargs)
            return dataclasses.asdict(summary)
    else:
        def run(ck, **kwargs):
            log = ck.with_suffix(".log")
            result = run_streaming_generation(
                model, DAYS, seed=SEED, log_path=log, checkpoint_path=ck,
                collect_sessions=False, **kwargs)
            return (result.completed, result.n_transfers, result.n_entries,
                    result.n_sessions, log.read_bytes())

    whole, ck = tmp_path / "whole" / "chk.npz", tmp_path / "run" / "chk.npz"
    whole.parent.mkdir()
    ck.parent.mkdir()
    want = run(whole)
    replace = checkpoint.os.replace
    first = []

    def fail_second_save(staged, dst):
        if first:
            fault(staged, dst)
        replace(staged, dst)
        first.append(Path(dst).read_bytes())

    monkeypatch.setattr(checkpoint.os, "replace", fail_second_save)
    with pytest.raises((OSError, _Killed)) as failure:
        run(ck)
    monkeypatch.undo()
    if fault is _killed_writer:
        assert failure.type is _Killed
    else:
        assert failure.value.errno == errno.ENOSPC
    assert multiprocessing.active_children() == []
    assert ck.read_bytes() == first[0]
    meta, _ = load_checkpoint(ck)
    if driver == "characterize":
        assert meta["next_chunk"] == CHECKPOINT_EVERY
    stray = [p.name for p in sorted(ck.parent.glob("chk.npz.*.tmp"))]
    assert stray == (["chk.npz.killed.tmp"] if fault is _killed_writer
                     else [])
    np.testing.assert_equal(run(ck, resume=True), want)
    assert ck.read_bytes() == whole.read_bytes()


def test_checkpointed_run_starts_one_pool(codec_logs, tmp_path,
                                          monkeypatch):
    log, chunk_bytes = codec_logs["text"], RESUME_CHUNK_BYTES["text"]
    assert len(plan_log_chunks([log], chunk_bytes=chunk_bytes)) >= 9
    executor = pool.ProcessPoolExecutor
    built = []

    def counting_executor(*args, **kwargs):
        built.append(kwargs)
        return executor(*args, **kwargs)

    monkeypatch.setattr(pool, "ProcessPoolExecutor", counting_executor)
    characterize_logs(log, jobs=2, chunk_bytes=chunk_bytes,
                      checkpoint_path=tmp_path / "chk.npz")
    assert len(built) == 1


def test_resumable_characterization_rejects_changed_log(batch_artifacts,
                                                        tmp_path):
    _, batch_log = batch_artifacts
    log = tmp_path / "copy.log"
    log.write_bytes(batch_log.read_bytes())
    ck = tmp_path / "chk.npz"
    characterize_logs(log, checkpoint_path=ck, chunk_bytes=8_192,
                      max_chunks=1)
    with log.open("a") as stream:
        stream.write("tampered line\n")
    with pytest.raises(CheckpointError, match="was written for"):
        characterize_logs(log, checkpoint_path=ck, resume=True,
                          chunk_bytes=8_192)


#: Damage to a characterization checkpoint's characterizer document.
CHARACTERIZER_DAMAGE = {
    "short histogram": lambda state: state.update(
        bandwidth_histogram=state["bandwidth_histogram"][:-1]),
    "no bits": lambda state: state.pop("bits"),
}


@pytest.mark.parametrize("damage", sorted(CHARACTERIZER_DAMAGE))
def test_resumable_characterization_rejects_damaged_state(batch_artifacts,
                                                          tmp_path, damage):
    _, batch_log = batch_artifacts
    ck = tmp_path / "chk.npz"
    characterize_logs(batch_log, checkpoint_path=ck, chunk_bytes=8_192,
                      max_chunks=1)
    meta, arrays = load_checkpoint(ck)
    CHARACTERIZER_DAMAGE[damage](meta["characterizer"])
    save_checkpoint(ck, meta, arrays)
    with pytest.raises(CheckpointError, match="characterizer"):
        characterize_logs(batch_log, checkpoint_path=ck, resume=True,
                          chunk_bytes=8_192)
