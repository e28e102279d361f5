"""End-to-end equivalence of the streaming pipeline with the batch path.

The acceptance contract of ``repro.stream``: for a fixed ``(model, days,
seed, blocks)`` the streamed artifacts — log bytes, finalized sessions,
characterization summary — are bit-identical to the batch pipeline's,
for any chunk size and across arbitrary checkpoint/resume splits.
"""

import numpy as np
import pytest

from repro.core.model import LiveWorkloadModel
from repro.core.sessionizer import sessionize
from repro.errors import CheckpointError
from repro.parallel.characterize import characterize_logs
from repro.parallel.engine import generate_sharded
from repro.stream import GenerationStream, characterize_logs_resumable, run_streaming_generation
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


def test_resume_rejects_checkpoint_without_last_start(model, tmp_path):
    """A generation checkpoint whose session table lacks the per-client
    last start cannot resume the sessionizer."""
    ck = tmp_path / "ck.npz"
    run_streaming_generation(model, DAYS, seed=SEED, checkpoint_path=ck,
                             max_blocks=5)
    meta, arrays = load_checkpoint(ck)
    del arrays["sess_last_start"]
    save_checkpoint(ck, meta, arrays)
    with pytest.raises(CheckpointError, match="sess_last_start"):
        run_streaming_generation(model, DAYS, seed=SEED, checkpoint_path=ck,
                                 resume=True)


def test_count_only_mode_matches(model, batch_artifacts, tmp_path):
    trace, _ = batch_artifacts
    result = run_streaming_generation(model, DAYS, seed=SEED,
                                      collect_sessions=False)
    assert result.sessions is None
    assert result.n_entries == 0  # no log requested
    assert result.n_sessions == sessionize(trace).n_sessions
    assert result.n_transfers == trace.n_transfers


def test_resumable_characterization_matches_mapreduce(batch_artifacts,
                                                      tmp_path):
    _, batch_log = batch_artifacts
    want = characterize_logs(batch_log, jobs=2, chunk_bytes=8_192)
    ck = tmp_path / "chk.npz"
    # Drive in 2-chunk legs until done, resuming each time.
    summary = None
    for _ in range(100):
        summary = characterize_logs_resumable(
            batch_log, checkpoint_path=ck, resume=True,
            chunk_bytes=8_192, checkpoint_every=1, max_chunks=2)
        if summary is not None:
            break
    assert summary is not None
    assert summary.n_entries == want.n_entries
    assert summary.length_log_mu == want.length_log_mu
    assert summary.length_log_sigma == want.length_log_sigma
    assert summary.bytes_served == want.bytes_served
    assert summary.feed_counts == want.feed_counts
    assert summary.top_clients == want.top_clients
    np.testing.assert_array_equal(summary.bandwidth_histogram,
                                  want.bandwidth_histogram)
    np.testing.assert_array_equal(summary.diurnal_counts,
                                  want.diurnal_counts)


def test_resumable_characterization_rejects_changed_log(batch_artifacts,
                                                        tmp_path):
    _, batch_log = batch_artifacts
    log = tmp_path / "copy.log"
    log.write_bytes(batch_log.read_bytes())
    ck = tmp_path / "chk.npz"
    characterize_logs_resumable(log, checkpoint_path=ck,
                                chunk_bytes=8_192, max_chunks=1)
    with log.open("a") as stream:
        stream.write("tampered line\n")
    with pytest.raises(CheckpointError, match="was written for"):
        characterize_logs_resumable(log, checkpoint_path=ck, resume=True,
                                    chunk_bytes=8_192)
