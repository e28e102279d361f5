"""Shared infrastructure for the experiment modules.

Experiments share one simulated trace per scenario (simulation,
sanitization, sessionization, and the full characterization are cached
in-process), so running all 30 experiments costs one simulation per
scenario plus the per-figure analysis.

Two scenarios are provided:

* ``default`` — the 28-day scale model (about a twelfth of the paper's
  session rate).  Used by almost every experiment.
* ``paper-rate`` — a shorter window at the paper's full arrival rate.
  Transfer interarrival statistics (Figure 17/18) depend on the absolute
  rate — the two-regime crossover sits near 100 s only at the paper's
  scale — so those experiments use this scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from ..core.calibrate import CalibrationResult, calibrate_model
from ..core.characterize import WorkloadCharacterization, characterize
from ..core.sessionizer import Sessions, sessionize
from ..simulation.live_show import LiveShowScenario, ScenarioConfig, SimulationResult
from ..simulation.population import PopulationConfig
from ..trace.sanitize import SanitizationReport, sanitize_trace
from ..trace.store import Trace

#: Seed used by all cached experiment contexts.
EXPERIMENT_SEED = 20020510  # the paper's publication date


def default_scenario() -> ScenarioConfig:
    """The 28-day scale-model scenario behind most experiments."""
    return ScenarioConfig()


def paper_rate_scenario() -> ScenarioConfig:
    """A 7-day window at the paper's full session arrival rate (~0.62/s).

    Used where absolute rate matters (transfer interarrival regimes).
    The deep-night hourly shape lets the overnight arrival rate approach
    zero, producing the paper's far-tail interarrival regime — the
    "unpopular time intervals" of Section 5.2.
    """
    from ..distributions.diurnal import DEEP_NIGHT_HOURLY_SHAPE
    from ..simulation.show import (
        ShowSchedule,
        default_reality_show_events,
        nightly_maintenance_outages,
    )

    return ScenarioConfig(
        days=7.0,
        mean_session_rate=0.62,
        population=PopulationConfig(n_clients=200_000),
        hourly_shape=DEEP_NIGHT_HOURLY_SHAPE,
        schedule=ShowSchedule(events=default_reality_show_events()
                              + nightly_maintenance_outages()),
    )


class ExperimentContext:
    """Lazily computed, shared artifacts of one scenario run.

    Attributes are cached on first access: the raw simulation, the
    sanitized trace, the sessionization, the full characterization, and
    the calibrated model.
    """

    def __init__(self, config: ScenarioConfig,
                 seed: int = EXPERIMENT_SEED) -> None:
        self.config = config
        self.seed = seed

    @cached_property
    def simulation(self) -> SimulationResult:
        """The raw simulation result (trace plus ground truth)."""
        return LiveShowScenario(self.config).run(self.seed)

    @cached_property
    def _sanitized(self) -> tuple[Trace, SanitizationReport]:
        return sanitize_trace(self.simulation.trace)

    @property
    def trace(self) -> Trace:
        """The sanitized trace."""
        return self._sanitized[0]

    @property
    def sanitization(self) -> SanitizationReport:
        """What sanitization removed."""
        return self._sanitized[1]

    @cached_property
    def sessions(self) -> Sessions:
        """Sessionization at the paper's timeout."""
        return sessionize(self.trace)

    @cached_property
    def characterization(self) -> WorkloadCharacterization:
        """The full three-layer characterization."""
        return characterize(self.trace)

    @cached_property
    def calibration(self) -> CalibrationResult:
        """The Table 2 model calibrated from the trace."""
        return calibrate_model(self.trace, sessions=self.sessions)


_CONTEXTS: dict[str, ExperimentContext] = {}

_SCENARIOS: dict[str, Callable[[], ScenarioConfig]] = {
    "default": default_scenario,
    "paper-rate": paper_rate_scenario,
}


def get_context(name: str = "default") -> ExperimentContext:
    """Return the shared, cached context for a named scenario."""
    if name not in _SCENARIOS:
        raise KeyError(
            f"unknown scenario {name!r}; known: {sorted(_SCENARIOS)}")
    if name not in _CONTEXTS:
        _CONTEXTS[name] = ExperimentContext(_SCENARIOS[name]())
    return _CONTEXTS[name]


@dataclass(frozen=True)
class Experiment:
    """The outcome of one reproduction experiment.

    Attributes
    ----------
    id:
        Short identifier (``table1``, ``fig07``, ...).
    title:
        Human-readable title.
    paper_ref:
        Which table/figure/section of the paper this reproduces.
    rows:
        ``(label, measured, paper)`` comparison rows; the ``paper`` column
        may be empty for quantities with no direct reference value.
    series:
        Named ``(x, y)`` data series — the regenerated figure data.
    checks:
        ``(description, passed)`` qualitative-shape assertions.
    notes:
        Caveats (scale substitutions, known deviations).
    """

    id: str
    title: str
    paper_ref: str
    rows: list[tuple[str, str, str]] = field(default_factory=list)
    series: dict[str, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict)
    checks: list[tuple[str, bool]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when every shape check passed."""
        return all(ok for _, ok in self.checks)


def fmt(value: float, digits: int = 4) -> str:
    """Format a measurement for a comparison row."""
    if value != value:  # NaN
        return "nan"
    if abs(value) >= 1e6 or (0 < abs(value) < 1e-3):
        return f"{value:.3g}"
    return f"{value:.{digits}g}"


def series_preview(x: np.ndarray, y: np.ndarray,
                   n_points: int = 8) -> list[tuple[float, float]]:
    """Thin a series to a handful of log-spaced points for display."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size <= n_points:
        return list(zip(x.tolist(), y.tolist(), strict=True))
    idx = np.unique(np.logspace(0, np.log10(x.size), n_points
                                ).astype(np.int64)) - 1
    return [(float(x[i]), float(y[i])) for i in idx]


def render_experiment(exp: Experiment) -> str:
    """Render one experiment as plain text."""
    lines = [f"[{exp.id}] {exp.title}", f"  reproduces: {exp.paper_ref}"]
    if exp.rows:
        width = max(len(label) for label, _, _ in exp.rows)
        for label, measured, ref in exp.rows:
            line = f"    {label:<{width}}  {measured:>14}"
            if ref:
                line += f"   (paper: {ref})"
            lines.append(line)
    for description, ok in exp.checks:
        lines.append(f"    [{'PASS' if ok else 'FAIL'}] {description}")
    for note in exp.notes:
        lines.append(f"    note: {note}")
    return "\n".join(lines)
