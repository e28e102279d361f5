"""End-to-end scenario: simulate the reality-show audience into a trace.

:class:`LiveShowScenario` assembles the substrates — show schedule, client
population, session behaviour, bandwidth model, server load model — and
produces a :class:`~repro.trace.store.Trace` shaped like the paper's
proprietary 28-day log, together with the generation-time ground truth
(session arrival times, session-to-client assignment, congestion flags)
that the test suite uses to validate the characterization pipeline by
parameter recovery.

The default configuration is a scale model: the same 28-day window and the
same planted distributions as the paper, with the mean session rate (and
hence population and concurrency magnitudes) reduced about twelvefold so
the full experiment suite runs on a laptop.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .._typing import FloatArray, IntArray, SeedLike
from ..analysis.concurrency import active_counts
from ..distributions.diurnal import (
    REALITY_SHOW_WEEKDAY_SHAPE,
    DiurnalProfile,
    WeeklyProfile,
)
from ..distributions.piecewise_poisson import PiecewiseStationaryPoissonProcess
from ..errors import ConfigError
from ..rng import make_rng, spawn
from ..trace.store import Trace
from ..units import DAY, FIFTEEN_MINUTES
from .network import BandwidthModel, NetworkConfig
from .population import ClientPopulation, PopulationConfig
from .server import ServerConfig, ServerLoadModel
from .show import CompositeRateProfile, ShowSchedule
from .viewer import SessionBehavior, generate_sessions


@dataclass(frozen=True)
class ScenarioConfig:
    """Full configuration of a live-show simulation.

    Attributes
    ----------
    days:
        Trace length in days (the paper: 28).
    mean_session_rate:
        Time-averaged session arrival rate in sessions/second (the paper's
        trace: about 0.62; the scale-model default: 0.05).
    arrival_window:
        Stationarity window of the piecewise Poisson arrival process
        (the paper models 15-minute windows).
    population, behavior, network, server, schedule:
        Sub-component configurations.
    inject_spanning_entries:
        Number of bogus entries, with durations exceeding the trace
        period, injected to exercise the Section 2.4 sanitization.  These
        model the multi-harvest artifacts the paper found in its logs.
    hourly_shape:
        Optional 24-entry relative hourly arrival shape replacing the
        default (:data:`~repro.distributions.diurnal.REALITY_SHOW_HOURLY_SHAPE`);
        e.g. :data:`~repro.distributions.diurnal.DEEP_NIGHT_HOURLY_SHAPE`
        for the Figure 17 far-tail regime.
    qos_abandonment_factor:
        Mean multiplier applied to the durations of congestion-bound
        transfers (in (0, 1]; 1 disables the effect).  Implements the
        QoS-sensitivity the paper flags as future work (Sections 1 and 8):
        for live content, users cannot revisit later, so the paper
        conjectures the abandonment coupling is *weaker* than for stored
        media — this knob lets experiments quantify either assumption.
    audience_trend:
        Ratio of the arrival rate at the end of the trace to the rate at
        its start (linear ramp; 1 = stationary popularity).  Reality shows
        gain audience toward their finale; the knob leaves the configured
        *mean* session rate unchanged.
    """

    days: float = 28.0
    mean_session_rate: float = 0.05
    arrival_window: float = FIFTEEN_MINUTES
    population: PopulationConfig = field(default_factory=PopulationConfig)
    behavior: SessionBehavior = field(default_factory=SessionBehavior)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    server: ServerConfig = field(default_factory=ServerConfig)
    schedule: ShowSchedule = field(default_factory=ShowSchedule)
    inject_spanning_entries: int = 12
    hourly_shape: tuple[float, ...] | None = None
    qos_abandonment_factor: float = 1.0
    audience_trend: float = 1.0

    def __post_init__(self) -> None:
        if self.days <= 0:
            raise ConfigError(f"days must be positive, got {self.days}")
        if self.mean_session_rate <= 0:
            raise ConfigError(
                f"mean_session_rate must be positive, got {self.mean_session_rate}")
        if self.arrival_window <= 0:
            raise ConfigError("arrival_window must be positive")
        if self.inject_spanning_entries < 0:
            raise ConfigError("inject_spanning_entries must be non-negative")
        if self.hourly_shape is not None:
            if len(self.hourly_shape) != 24:
                raise ConfigError(
                    f"hourly_shape needs 24 entries, got {len(self.hourly_shape)}")
            if any(v < 0 for v in self.hourly_shape):
                raise ConfigError("hourly_shape entries must be non-negative")
        if not 0.0 < self.qos_abandonment_factor <= 1.0:
            raise ConfigError(
                f"qos_abandonment_factor must be in (0, 1], got "
                f"{self.qos_abandonment_factor}")
        if not self.audience_trend > 0:
            raise ConfigError(
                f"audience_trend must be positive, got {self.audience_trend}")

    @property
    def duration(self) -> float:
        """Trace length in seconds."""
        return self.days * DAY

    @classmethod
    def smoke(cls) -> "ScenarioConfig":
        """A small, fast configuration for unit tests (about 2 days)."""
        return cls(
            days=2.0,
            mean_session_rate=0.03,
            population=PopulationConfig(n_clients=1_500, n_ases=60,
                                        forced_br_ases=5),
            inject_spanning_entries=3,
        )

    def scaled(self, factor: float) -> "ScenarioConfig":
        """Return a copy with the session rate multiplied by ``factor``."""
        if factor <= 0:
            raise ConfigError(f"factor must be positive, got {factor}")
        return replace(self, mean_session_rate=self.mean_session_rate * factor)


@dataclass(frozen=True)
class SimulationResult:
    """A simulated trace plus generation-time ground truth.

    Attributes
    ----------
    trace:
        The observable trace, as the server would have logged it.
    population:
        The client population behind the trace (provides the IP resolver).
    session_arrivals:
        True session start times, one per generated session.
    session_client:
        True client index of each generated session.
    transfer_session:
        True owning-session index of each transfer *in trace order*.
    congested:
        True congestion-bound flag of each transfer in trace order.
    """

    trace: Trace
    population: ClientPopulation
    session_arrivals: FloatArray = field(repr=False)
    session_client: IntArray = field(repr=False)
    transfer_session: IntArray = field(repr=False)
    congested: np.ndarray = field(repr=False)

    @property
    def n_sessions(self) -> int:
        """Number of generated (ground-truth) sessions."""
        return int(self.session_arrivals.size)


class LiveShowScenario:
    """Assembles and runs the live-show world.

    Parameters
    ----------
    config:
        Scenario configuration (defaults to the 28-day scale model).
    """

    def __init__(self, config: ScenarioConfig | None = None) -> None:
        self.config = config or ScenarioConfig()

    def arrival_profile(self) -> CompositeRateProfile:
        """The arrival-rate profile: audience availability times show events,
        scaled so the weekly mean equals ``config.mean_session_rate``."""
        cfg = self.config
        if cfg.hourly_shape is None:
            base = WeeklyProfile.reality_show(cfg.mean_session_rate)
        else:
            daily = DiurnalProfile(np.asarray(cfg.hourly_shape,
                                              dtype=np.float64), period=DAY)
            base = WeeklyProfile(daily, REALITY_SHOW_WEEKDAY_SHAPE
                                 ).scaled_to_mean(cfg.mean_session_rate)
        composite = CompositeRateProfile(base, cfg.schedule)
        return composite.scaled_to_mean(cfg.mean_session_rate)

    def run(self, seed: SeedLike = None) -> SimulationResult:
        """Simulate the full scenario and return trace plus ground truth."""
        cfg = self.config
        rng = make_rng(seed)
        (pop_rng, arrival_rng, identity_rng, behavior_rng, network_rng,
         server_rng, artifact_rng) = spawn(rng, 7)
        duration = cfg.duration

        population = ClientPopulation.build(cfg.population, pop_rng)

        process = PiecewiseStationaryPoissonProcess(
            self.arrival_profile(), window=cfg.arrival_window)
        if cfg.audience_trend == 1.0:  # reprolint: disable=RL007, exact config sentinel: 1.0 means "no ramp"
            arrivals = process.generate(duration, arrival_rng)
        else:
            # Popularity ramp by thinning: oversample at the ramp's peak,
            # accept each arrival proportionally to the linear trend.  The
            # pre-scaling keeps the configured mean rate exact.
            trend = cfg.audience_trend
            peak = max(1.0, trend)
            oversample = peak / ((1.0 + trend) / 2.0)
            scaled = PiecewiseStationaryPoissonProcess(
                self.arrival_profile().scaled_to_mean(
                    cfg.mean_session_rate * oversample),
                window=cfg.arrival_window)
            candidates = scaled.generate(duration, arrival_rng)
            ramp = 1.0 + (trend - 1.0) * candidates / duration
            keep_arrival = arrival_rng.random(candidates.size) < ramp / peak
            arrivals = candidates[keep_arrival]
        n_sessions = arrivals.size

        session_client = population.sample_clients(n_sessions, identity_rng)

        batch = generate_sessions(
            cfg.behavior, arrivals,
            stickiness=cfg.schedule.stickiness_multiplier,
            seed=behavior_rng)

        # Discard transfers scheduled past the observation window and clip
        # in-progress ones at the final log harvest, as a real collection
        # period does.  Transfers that would start while the feed is down
        # (maintenance outages) cannot happen at all.
        keep = batch.start < duration
        if any(event.feed_down for event in cfg.schedule.events):
            keep &= ~cfg.schedule.feed_down_mask(batch.start)
        starts = batch.start[keep]
        durations = np.minimum(batch.duration[keep], duration - starts)
        object_id = batch.object_id[keep]
        transfer_session = batch.session_index[keep]
        transfer_client = session_client[transfer_session]

        bandwidth, loss, congested = BandwidthModel(cfg.network).sample(
            population.access_bps[transfer_client], network_rng)

        # QoS sensitivity: congestion-bound transfers are abandoned early
        # when the factor is below 1 (Sections 1 and 8 of the paper).
        if cfg.qos_abandonment_factor < 1.0 and congested.any():
            durations = durations.copy()
            durations[congested] *= cfg.qos_abandonment_factor

        # Server load reflects the *true* activity, clipped at the
        # observation window: ends = min(start + duration, window), never
        # past the trace extent.  It is computed before the artifact
        # injection below — the multi-harvest artifacts corrupt only the
        # *recorded* durations, so the logged CPU is artifact-invariant.
        load_model = ServerLoadModel(cfg.server)
        ends = np.minimum(starts + durations, duration)
        concurrency = active_counts(starts, ends, starts)
        server_cpu = load_model.cpu_utilization(concurrency, server_rng)

        # Inject the paper's multi-harvest artifacts: a handful of entries
        # whose recorded duration exceeds the whole trace period.
        n_bogus = min(cfg.inject_spanning_entries, starts.size)
        if n_bogus:
            bogus = artifact_rng.choice(starts.size, size=n_bogus,
                                        replace=False)
            durations = durations.copy()
            durations[bogus] = duration * artifact_rng.uniform(
                1.05, 1.60, size=n_bogus)

        order = np.argsort(starts, kind="stable")
        trace = Trace(
            clients=population.client_table(),
            client_index=transfer_client[order],
            object_id=object_id[order],
            start=starts[order],
            duration=durations[order],
            bandwidth_bps=bandwidth[order],
            packet_loss=loss[order],
            server_cpu=server_cpu[order],
            extent=duration,
        )
        return SimulationResult(
            trace=trace,
            population=population,
            session_arrivals=arrivals,
            session_client=session_client,
            transfer_session=transfer_session[order],
            congested=congested[order],
        )
