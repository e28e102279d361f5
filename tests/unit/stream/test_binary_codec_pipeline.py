"""Integration tests: the binary codec through the streaming pipeline.

The pipeline must treat codecs as interchangeable — a binary run decodes
to the same trace as a text run, a killed binary run resumed from its
checkpoint reproduces the uninterrupted file byte for byte, and the
chunked characterizer folds memory-mapped binary segments into the same
summary the text parser produces.
"""

import filecmp
import numpy as np
import pytest

from repro.core.model import LiveWorkloadModel
from repro.parallel import characterize_logs
from repro.parallel.characterize import plan_log_chunks
from repro.stream import run_streaming_generation
from repro.trace.codecs import BinaryTraceReader, detect_codec, read_binary_trace
from repro.trace.store import TRANSFER_COLUMNS
from repro.trace.wms_log import read_wms_log

SEED = 4242


@pytest.fixture(scope="module")
def model():
    return LiveWorkloadModel.paper_defaults(mean_session_rate=0.05,
                                            n_clients=120)


@pytest.fixture(scope="module")
def codec_runs(model, tmp_path_factory):
    """One workload streamed through both codecs."""
    root = tmp_path_factory.mktemp("codec_runs")
    text_path = root / "run.log"
    bin_path = root / "run.rtb"
    run_streaming_generation(model, 1.0, seed=SEED, log_path=text_path)
    run_streaming_generation(model, 1.0, seed=SEED, log_path=bin_path,
                             codec="binary")
    return text_path, bin_path


def test_binary_run_detected_and_smaller(codec_runs):
    text_path, bin_path = codec_runs
    assert detect_codec(text_path) == "text"
    assert detect_codec(bin_path) == "binary"
    assert bin_path.stat().st_size < text_path.stat().st_size


def test_binary_run_decodes_like_text_run(codec_runs):
    text_path, bin_path = codec_runs
    from_text = read_wms_log(text_path)
    from_binary = read_binary_trace(bin_path)
    for column in TRANSFER_COLUMNS:
        np.testing.assert_array_equal(getattr(from_text, column),
                                      getattr(from_binary, column),
                                      err_msg=column)
    assert np.array_equal(from_text.clients.player_ids,
                          from_binary.clients.player_ids)


def test_binary_kill_and_resume_byte_identical(model, codec_runs,
                                               tmp_path):
    _, bin_path = codec_runs
    resumed = tmp_path / "resumed.rtb"
    ck = tmp_path / "resume.ck.npz"
    first = run_streaming_generation(
        model, 1.0, seed=SEED, log_path=resumed, codec="binary",
        checkpoint_path=ck, resume=True, max_blocks=2)
    assert not first.completed
    second = run_streaming_generation(
        model, 1.0, seed=SEED, log_path=resumed, codec="binary",
        checkpoint_path=ck, resume=True)
    assert second.completed
    assert filecmp.cmp(resumed, bin_path, shallow=False)


def test_checkpoint_fingerprint_pins_codec(model, tmp_path):
    """A text checkpoint cannot silently resume a binary run."""
    from repro.errors import CheckpointError

    log = tmp_path / "run.log"
    ck = tmp_path / "run.ck.npz"
    run_streaming_generation(model, 0.2, seed=SEED, log_path=log,
                             checkpoint_path=ck, resume=True, max_blocks=1)
    with pytest.raises(CheckpointError, match="codec"):
        run_streaming_generation(model, 0.2, seed=SEED,
                                 log_path=tmp_path / "run.rtb",
                                 codec="binary", checkpoint_path=ck,
                                 resume=True)


@pytest.mark.parametrize("jobs", [1, 2])
def test_chunked_binary_characterization_matches_text(codec_runs, jobs):
    text_path, bin_path = codec_runs
    want = characterize_logs(text_path, jobs=1)
    got = characterize_logs(bin_path, jobs=jobs,
                            chunk_bytes=16_384)
    assert got.n_entries == want.n_entries
    assert got.n_clients == want.n_clients
    assert got.feed_counts == want.feed_counts
    np.testing.assert_array_equal(got.diurnal_counts, want.diurnal_counts)
    np.testing.assert_array_equal(got.bandwidth_histogram,
                                  want.bandwidth_histogram)
    assert got.top_clients == want.top_clients
    assert got.bytes_served == want.bytes_served


def test_binary_chunk_plan_covers_all_segments(codec_runs):
    _, bin_path = codec_runs
    chunks = plan_log_chunks([bin_path], chunk_bytes=8_192)
    assert all(chunk.codec == "binary" for chunk in chunks)
    assert len(chunks) > 1
    # Every segment appears exactly once, in file order, across chunks.
    seen = [s for chunk in chunks for s in chunk.segments]
    with BinaryTraceReader(bin_path) as reader:
        assert seen == list(range(reader.n_segments))
        assert sum(reader.segment_rows()) == reader.n_entries
