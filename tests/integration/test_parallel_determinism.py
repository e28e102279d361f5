"""Integration: the repro.parallel determinism contract, end to end.

The acceptance matrix of the block-parallel engine: for every tested
``(blocks, jobs)`` combination the batch workload must be bit-for-bit
identical to the streaming engine's transfers for the same plan, the
serial ``LiveWorkloadGenerator`` must equal the pooled engine, and the
map-reduce log characterization must reproduce the one-process
``StreamingSummary`` exactly.
"""

import numpy as np
import pytest

from repro.core.gismo import LiveWorkloadGenerator
from repro.core.model import LiveWorkloadModel
from repro.parallel import characterize_logs, generate_sharded
from repro.stream import GenerationStream
from repro.trace.streaming import StreamingCharacterizer
from repro.trace.wms_log import write_wms_log


@pytest.fixture(scope="module")
def model():
    return LiveWorkloadModel.paper_defaults(mean_session_rate=0.01,
                                            n_clients=250)


@pytest.fixture(scope="module")
def serial(model):
    return LiveWorkloadGenerator(model).generate(1, seed=2002)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("blocks", [1, 2, 5])
def test_sharded_generation_matches_serial(model, blocks, jobs):
    batch = generate_sharded(model, 1, seed=2002, blocks=blocks, jobs=jobs)
    streamed = list(GenerationStream(model, 1, seed=2002, blocks=blocks,
                                     chunk_size=997))
    for name in ("start", "duration", "client_index", "object_id",
                 "bandwidth_bps"):
        np.testing.assert_array_equal(
            getattr(batch.trace, name),
            np.concatenate([getattr(b, name) for b in streamed]))
    np.testing.assert_array_equal(
        batch.transfer_session,
        np.concatenate([b.transfer_session for b in streamed]))


def test_generator_front_end_matches_engine(model, serial):
    front_end = LiveWorkloadGenerator(model).generate(1, seed=2002, jobs=2)
    np.testing.assert_array_equal(serial.trace.start, front_end.trace.start)
    np.testing.assert_array_equal(serial.transfer_session,
                                  front_end.transfer_session)


def test_parallel_characterization_matches_serial(serial, tmp_path):
    path = tmp_path / "workload.log"
    write_wms_log(serial.trace, path)

    one_pass = StreamingCharacterizer()
    one_pass.consume(path)
    expected = one_pass.summary()

    summary = characterize_logs([path], jobs=2, chunk_bytes=16 * 1024)
    assert summary.n_entries == expected.n_entries
    assert summary.n_skipped == expected.n_skipped
    assert summary.n_clients == expected.n_clients
    assert summary.length_log_mu == expected.length_log_mu
    assert summary.length_log_sigma == expected.length_log_sigma
    assert summary.bytes_served == expected.bytes_served
    assert summary.feed_counts == expected.feed_counts
    assert summary.congestion_bound_fraction == \
        expected.congestion_bound_fraction
    assert summary.top_clients == expected.top_clients
    np.testing.assert_array_equal(summary.diurnal_counts,
                                  expected.diurnal_counts)
    np.testing.assert_array_equal(summary.bandwidth_histogram,
                                  expected.bandwidth_histogram)
