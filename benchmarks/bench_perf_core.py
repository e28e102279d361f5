"""Performance benchmarks of the library's hot paths.

Unlike the ``bench_<table/figure>`` targets (which regenerate the paper's
evaluation artifacts), these measure raw throughput of the pipeline stages
a downstream user pays for: simulation, sessionization, concurrency
counting, and synthetic generation.
"""

import numpy as np
import pytest

from repro.analysis.concurrency import mean_concurrency_bins, sampled_concurrency
from repro.core.calibrate import calibrate_model
from repro.core.gismo import LiveWorkloadGenerator
from repro.core.model import LiveWorkloadModel
from repro.core.sessionizer import (
    _reference_silence_gaps,
    sessionize,
    silence_gaps,
)
from repro.simulation.live_show import LiveShowScenario, ScenarioConfig
from repro.trace.transform import daily_slices, merge_traces
from repro.units import FIFTEEN_MINUTES


@pytest.fixture(scope="module")
def perf_trace():
    config = ScenarioConfig(days=7.0, mean_session_rate=0.1,
                            inject_spanning_entries=0)
    return LiveShowScenario(config).run(seed=1234).trace


def bench_perf_simulation(benchmark):
    """Simulate a 7-day scale-model world (~60k sessions)."""
    config = ScenarioConfig(days=7.0, mean_session_rate=0.1,
                            inject_spanning_entries=0)

    result = benchmark.pedantic(
        lambda: LiveShowScenario(config).run(seed=77), rounds=3,
        iterations=1)
    assert result.trace.n_transfers > 10_000


def bench_perf_sessionize(benchmark, perf_trace):
    """Sessionize ~100k transfers at the paper's timeout."""
    sessions = benchmark.pedantic(lambda: sessionize(perf_trace),
                                  rounds=3, iterations=1)
    assert sessions.n_sessions > 10_000


def bench_perf_silence_gaps(benchmark, perf_trace):
    """Vectorized silence-gap computation (the sessionization hot path)."""
    gaps, order = benchmark.pedantic(lambda: silence_gaps(perf_trace),
                                     rounds=3, iterations=1)
    assert gaps.size == len(perf_trace) and order.size == len(perf_trace)


def bench_perf_silence_gaps_reference(benchmark, perf_trace):
    """Python-loop reference silence gaps (the pre-vectorization baseline)."""
    gaps, _ = benchmark.pedantic(
        lambda: _reference_silence_gaps(perf_trace), rounds=3, iterations=1)
    assert gaps.size == len(perf_trace)


def bench_perf_merge(benchmark, perf_trace):
    """Merge the 7-day trace's daily slices back together (vectorized
    client re-interning)."""
    slices = daily_slices(perf_trace)
    offsets = np.cumsum([0.0] + [s.extent for s in slices[:-1]]).tolist()
    merged = benchmark.pedantic(
        lambda: merge_traces(slices, offsets=offsets), rounds=3, iterations=1)
    assert len(merged) == len(perf_trace)


def bench_perf_concurrency(benchmark, perf_trace):
    """Concurrency counting: minute samples plus exact 15-minute bins."""

    def run():
        samples = sampled_concurrency(perf_trace.start, perf_trace.end,
                                      extent=perf_trace.extent, step=60.0)
        bins = mean_concurrency_bins(perf_trace.start, perf_trace.end,
                                     extent=perf_trace.extent,
                                     bin_width=FIFTEEN_MINUTES)
        return samples, bins

    samples, bins = benchmark.pedantic(run, rounds=3, iterations=1)
    assert samples.size > 1_000 and bins.size > 100


def bench_perf_calibration(benchmark, perf_trace):
    """Full Table 2 calibration of ~100k transfers."""
    result = benchmark.pedantic(lambda: calibrate_model(perf_trace),
                                rounds=3, iterations=1)
    assert result.model.n_clients > 0


def bench_perf_gismo_generation(benchmark):
    """GISMO-live generation of a 7-day workload."""
    model = LiveWorkloadModel.paper_defaults(mean_session_rate=0.1,
                                             n_clients=20_000)
    workload = benchmark.pedantic(
        lambda: LiveWorkloadGenerator(model).generate(days=7, seed=88),
        rounds=3, iterations=1)
    assert workload.trace.n_transfers > 10_000
