"""Unit tests for the shard planner (repro.parallel.plan)."""

import pickle

import numpy as np
import pytest

from repro.core.model import LiveWorkloadModel
from repro.errors import GenerationError
from repro.parallel.plan import DEFAULT_BLOCKS, plan_generation


@pytest.fixture(scope="module")
def model():
    return LiveWorkloadModel.paper_defaults(mean_session_rate=0.01,
                                            n_clients=200)


class TestPlanStructure:
    def test_blocks_cover_all_sessions_once(self, model):
        plan = plan_generation(model, 1, seed=3, shards=5)
        ranges = [(block.session_lo, block.session_hi)
                  for shard in plan.shards for block in shard.blocks]
        # Contiguous, non-overlapping, covering [0, n_sessions).
        assert ranges[0][0] == 0
        assert ranges[-1][1] == plan.n_sessions
        for (_, hi), (lo, _) in zip(ranges, ranges[1:], strict=False):
            assert hi == lo
        assert sum(hi - lo for lo, hi in ranges) == plan.n_sessions
        assert sum(shard.n_sessions for shard in plan.shards) == \
            plan.n_sessions

    def test_block_arrivals_match_global_slices(self, model):
        plan = plan_generation(model, 1, seed=3, shards=3)
        for shard in plan.shards:
            for block in shard.blocks:
                np.testing.assert_array_equal(
                    block.arrivals,
                    plan.arrivals[block.session_lo:block.session_hi])

    def test_default_block_count(self, model):
        plan = plan_generation(model, 1, seed=0)
        assert sum(shard.n_blocks for shard in plan.shards) == DEFAULT_BLOCKS

    def test_shard_count_honoured_even_beyond_blocks(self, model):
        plan = plan_generation(model, 1, seed=0, shards=10, blocks=4)
        assert plan.n_shards == 10
        assert sum(shard.n_blocks for shard in plan.shards) == 4
        assert sum(shard.n_sessions for shard in plan.shards) == \
            plan.n_sessions

    def test_specs_are_picklable(self, model):
        plan = plan_generation(model, 1, seed=3, shards=2)
        for spec in plan.shards:
            clone = pickle.loads(pickle.dumps(spec))
            assert clone.index == spec.index
            assert clone.n_sessions == spec.n_sessions
            for block, other in zip(spec.blocks, clone.blocks,
                                    strict=True):
                np.testing.assert_array_equal(block.arrivals, other.arrivals)
                assert block.seed_seq.spawn_key == other.seed_seq.spawn_key


class TestStrategies:
    """Shards group blocks by session count (the one grouping left)."""

    def test_sessions_balances_session_counts(self, model):
        plan = plan_generation(model, 1, seed=3, shards=4)
        counts = [shard.n_sessions for shard in plan.shards]
        # Diurnal skew means perfect balance is impossible, but no shard
        # should be wildly off a fair share once blocks are fine enough.
        assert max(counts) <= 2 * plan.n_sessions / len(counts)


class TestValidation:
    def test_nonpositive_days(self, model):
        with pytest.raises(GenerationError):
            plan_generation(model, 0, seed=1)

    def test_bad_shards(self, model):
        with pytest.raises(ValueError):
            plan_generation(model, 1, seed=1, shards=0)

    def test_bad_blocks(self, model):
        with pytest.raises(ValueError):
            plan_generation(model, 1, seed=1, blocks=0)
