"""Capacity planning from a generative model.

The paper's bottom line (Section 1): live content forbids admission
control as a safety valve, so capacity must be planned from an accurate
workload model.  This module turns a :class:`LiveWorkloadModel` into
provisioning numbers:

* :func:`required_capacity` — the concurrent-transfer capacity needed to
  keep the denial probability below a target, estimated by generating
  workloads from the model and reading the demand distribution;
* :func:`denial_rate_at` — the converse: the fraction of requests a given
  capacity would deny.

Both operate on *generated* workloads, which is exactly how a planner
would use GISMO-live: measure once, calibrate, then ask what-if questions
of the model rather than of the production system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._typing import SeedLike
from ..analysis.concurrency import sampled_concurrency
from ..errors import GenerationError
from ..rng import make_rng, spawn
from ..simulation.replay import replay_trace
from .gismo import LiveWorkloadGenerator
from .model import LiveWorkloadModel


@dataclass(frozen=True)
class CapacityPlan:
    """Result of :func:`required_capacity`.

    Attributes
    ----------
    capacity:
        Concurrent-transfer provisioning that meets the target.
    demand_percentile:
        The demand percentile the capacity corresponds to.
    peak_demand:
        Largest concurrent demand observed across the planning runs.
    n_runs, days_per_run:
        Monte-Carlo effort behind the estimate.
    """

    capacity: int
    demand_percentile: float
    peak_demand: int
    n_runs: int
    days_per_run: float


def _demand_samples(model: LiveWorkloadModel, *, days: float, n_runs: int,
                    step: float, seed: SeedLike) -> np.ndarray:
    rng = make_rng(seed)
    samples = []
    for run_rng in spawn(rng, n_runs):
        workload = LiveWorkloadGenerator(model).generate(days, run_rng)
        trace = workload.trace
        counts = sampled_concurrency(trace.start, trace.end,
                                     extent=trace.extent, step=step)
        samples.append(counts)
    return np.concatenate(samples) if samples else np.empty(0)


def required_capacity(model: LiveWorkloadModel, *, days: float = 7.0,
                      target_percentile: float = 99.9, n_runs: int = 3,
                      step: float = 60.0,
                      seed: SeedLike = None) -> CapacityPlan:
    """Capacity covering the demand up to ``target_percentile``.

    Generates ``n_runs`` independent workloads of ``days`` days from the
    model, samples the concurrent-transfer demand, and returns the
    requested percentile (rounded up) as the provisioning level.

    Parameters
    ----------
    model:
        The calibrated workload model.
    days:
        Length of each planning workload.
    target_percentile:
        Demand percentile the capacity must cover (e.g. 99.9 keeps the
        server below capacity 99.9% of the time).
    n_runs:
        Independent generations to smooth the estimate.
    step:
        Demand sampling period in seconds.
    seed:
        Seed for the Monte-Carlo runs.
    """
    if not 0.0 < target_percentile <= 100.0:
        raise GenerationError(
            f"target_percentile must be in (0, 100], got {target_percentile}")
    if n_runs < 1 or days <= 0:
        raise GenerationError("n_runs and days must be positive")
    demand = _demand_samples(model, days=days, n_runs=n_runs, step=step,
                             seed=seed)
    if demand.size == 0:
        raise GenerationError("model generated no demand to plan from")
    capacity = int(np.ceil(np.percentile(demand, target_percentile)))
    return CapacityPlan(
        capacity=max(capacity, 1),
        demand_percentile=target_percentile,
        peak_demand=int(demand.max()),
        n_runs=n_runs,
        days_per_run=days,
    )


def denial_rate_at(model: LiveWorkloadModel, capacity: int, *,
                   days: float = 7.0, seed: SeedLike = None) -> float:
    """Fraction of live requests denied at the given capacity.

    Generates one workload from the model and replays it through a server
    with admission limit ``capacity``.

    Parameters
    ----------
    model:
        The workload model.
    capacity:
        Admission-control limit (concurrent transfers).
    days:
        Length of the generated workload.
    seed:
        Seed for the generation.
    """
    if capacity < 1:
        raise GenerationError(f"capacity must be positive, got {capacity}")
    workload = LiveWorkloadGenerator(model).generate(days, seed)
    return replay_trace(workload.trace,
                        max_concurrent=capacity).rejection_rate
