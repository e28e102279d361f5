"""Unit tests for the chunked time-ordered generation stream."""

import numpy as np
import pytest

from repro.core.model import LiveWorkloadModel
from repro.errors import CheckpointError
from repro.parallel.engine import generate_sharded
from repro.parallel.plan import emit_horizons, plan_generation
from repro.stream import GenerationStream

SEED = 1234


@pytest.fixture(scope="module")
def model():
    return LiveWorkloadModel.paper_defaults(mean_session_rate=0.005,
                                            n_clients=200)


@pytest.fixture(scope="module")
def batch_trace(model):
    return generate_sharded(model, 1.0, seed=SEED).trace


def _concat_stream(stream):
    cols = {name: [] for name in ("client_index", "object_id", "start",
                                  "duration", "bandwidth_bps")}
    offsets = []
    for batch in stream:
        offsets.append((batch.global_offset, batch.n_transfers))
        for name in cols:
            cols[name].append(getattr(batch, name))
    return {name: np.concatenate(parts) if parts else np.empty(0)
            for name, parts in cols.items()}, offsets


@pytest.mark.parametrize("chunk_size", [1000, 50])
def test_bit_identical_to_batch_engine(model, batch_trace, chunk_size):
    stream = GenerationStream(model, 1.0, seed=SEED, chunk_size=chunk_size)
    cols, offsets = _concat_stream(stream)
    for name, got in cols.items():
        want = getattr(batch_trace, name)
        np.testing.assert_array_equal(got, want)
        assert got.dtype == want.dtype, name
    # Offsets tile the trace contiguously and chunks respect the bound.
    position = 0
    for offset, size in offsets:
        assert offset == position
        assert 1 <= size <= chunk_size
        position += size
    assert position == batch_trace.n_transfers == stream.n_emitted


@pytest.mark.parametrize("chunk_size", [200, 13])
def test_horizon_bounds_future_starts(model, chunk_size):
    stream = GenerationStream(model, 1.0, seed=SEED, chunk_size=chunk_size)
    steps = list(stream.block_steps())
    if chunk_size == 13:
        # The stressing case: blocks split into sibling batches, whose
        # horizons must bound the *sibling* starts, not just the block's.
        assert max(len(step) for step in steps) > 1
    batches = [batch for step in steps for batch in step]
    horizons = np.array([batch.horizon for batch in batches])
    first_starts = np.array([float(batch.start[0]) for batch in batches])
    # Every batch's horizon is a lower bound on the start of every
    # transfer in every later batch (suffix minimum of first starts).
    future_min = np.minimum.accumulate(first_starts[::-1])[::-1]
    assert np.all(horizons[:-1] <= future_min[1:])
    for batch in batches:
        assert np.all(batch.start <= batch.horizon)
    assert batches[-1].horizon == np.inf


def test_block_steps_resume_round_trip(model):
    full = GenerationStream(model, 1.0, seed=SEED, chunk_size=300)
    want, _ = _concat_stream(full)

    first = GenerationStream(model, 1.0, seed=SEED, chunk_size=300)
    steps = first.block_steps()
    head = []
    for _ in range(20):
        head.extend(next(steps))
    meta, arrays = first.state_meta(), first.state_arrays()

    second = GenerationStream(model, 1.0, seed=SEED, chunk_size=300)
    second.restore(meta, arrays)
    assert second.next_block == 20
    tail = [batch for step in second.block_steps() for batch in step]
    got = {name: np.concatenate(
        [getattr(b, name) for b in head + tail])
        for name in ("client_index", "start", "duration")}
    for name, col in got.items():
        np.testing.assert_array_equal(col, want[name])
    assert second.n_emitted == full.n_emitted


def test_restore_validates_cursor(model):
    stream = GenerationStream(model, 1.0, seed=SEED)
    with pytest.raises(CheckpointError, match="out of range"):
        stream.restore({"next_block": 65, "n_emitted": 0},
                       stream.state_arrays())
    with pytest.raises(CheckpointError, match="missing generation state"):
        stream.restore({"next_block": 0, "n_emitted": 0}, {})


def test_chunk_size_validation(model):
    with pytest.raises(ValueError, match="chunk_size"):
        GenerationStream(model, 1.0, seed=SEED, chunk_size=0)


def test_emit_horizons_bound_block_starts(model):
    plan = plan_generation(model, 1.0, seed=SEED, blocks=16)
    horizons = emit_horizons(plan)
    assert horizons.shape == (16,)
    assert np.all(np.diff(horizons) >= 0)
    assert horizons[-1] == np.inf
    for k, block in enumerate(plan.specs):
        if block.n_sessions and k > 0:
            assert block.arrivals[0] >= horizons[k - 1]
