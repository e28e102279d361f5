"""Integration tests of the experiment harness.

These run every experiment module against the shared scenario contexts
(each simulated once per process), asserting the paper's qualitative
shapes hold — the same checks ``repro experiments`` reports.
"""

import pytest

from repro.experiments import get_context, render_experiment, run_experiment
from repro.experiments.runner import ALL_EXPERIMENTS


class TestRegistry:
    def test_all_experiments_listed(self):
        assert len(ALL_EXPERIMENTS) == 30
        assert ALL_EXPERIMENTS[0] == "table1"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError):
            get_context("nonexistent")


@pytest.mark.parametrize("name", ALL_EXPERIMENTS)
def test_experiment_checks_pass(name):
    experiment = run_experiment(name)
    failing = [desc for desc, ok in experiment.checks if not ok]
    assert not failing, f"{name}: {failing}"


def test_experiments_share_cached_context():
    a = get_context()
    b = get_context()
    assert a is b
    assert a.trace is b.trace


def test_render_includes_rows_and_checks():
    experiment = run_experiment("table1")
    text = render_experiment(experiment)
    assert "[table1]" in text
    assert "PASS" in text or "FAIL" in text
    assert "Table 1" in text
