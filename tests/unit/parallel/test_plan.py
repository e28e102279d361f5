"""Unit tests for the generation planner (repro.parallel.plan)."""

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
        plan = plan_generation(model, 1, seed=3)
        ranges = [(block.session_lo, block.session_hi)
                  for block in plan.specs]
        # Contiguous, non-overlapping, covering [0, n_sessions).
        assert ranges[0][0] == 0
        assert ranges[-1][1] == plan.n_sessions
        for (_, hi), (lo, _) in zip(ranges, ranges[1:], strict=False):
            assert hi == lo
        assert sum(block.n_sessions for block in plan.specs) == \
            plan.n_sessions

    def test_block_arrivals_match_global_slices(self, model):
        plan = plan_generation(model, 1, seed=3)
        for block in plan.specs:
            np.testing.assert_array_equal(
                block.arrivals,
                plan.arrivals[block.session_lo:block.session_hi])
            np.testing.assert_array_equal(
                block.session_client,
                plan.session_client[block.session_lo:block.session_hi])

    def test_default_block_count(self, model):
        plan = plan_generation(model, 1, seed=0)
        assert len(plan.specs) == DEFAULT_BLOCKS

    def test_one_spec_per_block(self, model):
        plan = plan_generation(model, 1.0, seed=0, blocks=16)
        assert [block.index for block in plan.specs] == list(range(16))
        assert len({block.seed_seq.spawn_key for block in plan.specs}) == 16

    def test_specs_are_picklable(self, model):
        plan = plan_generation(model, 1, seed=3, blocks=2)
        for spec in plan.specs:
            clone = pickle.loads(pickle.dumps(spec))
            assert clone.index == spec.index
            assert clone.n_sessions == spec.n_sessions
            np.testing.assert_array_equal(clone.arrivals, spec.arrivals)
            assert clone.seed_seq.spawn_key == spec.seed_seq.spawn_key


class TestValidation:
    def test_nonpositive_days(self, model):
        with pytest.raises(GenerationError):
            plan_generation(model, 0, seed=1)

    def test_bad_blocks(self, model):
        with pytest.raises(ValueError):
            plan_generation(model, 1, seed=1, blocks=0)
