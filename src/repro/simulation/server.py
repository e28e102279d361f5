"""Unicast streaming server CPU model.

:class:`ServerLoadModel` is a closed-form CPU-utilization model used when
generating traces in bulk: utilization grows with the number of concurrent
transfers relative to the configured capacity, plus measurement noise.
Scenario defaults keep utilization under the paper's 10% screening
threshold essentially always (Section 2.4).  Replaying a workload under an
admission limit is :mod:`repro.simulation.replay`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._typing import FloatArray, SeedLike
from ..errors import ConfigError
from ..rng import make_rng


@dataclass(frozen=True)
class ServerConfig:
    """Parameters of the server CPU model.

    Attributes
    ----------
    capacity:
        Number of concurrent transfers at which CPU utilization reaches
        100% (scenario defaults place peak demand far below this, matching
        the paper's observation of a never-stressed server).
    base_cpu:
        Idle CPU utilization floor.
    cpu_noise_sigma:
        Standard deviation of the additive measurement noise on sampled
        utilization.
    """

    capacity: int = 25_000
    base_cpu: float = 0.005
    cpu_noise_sigma: float = 0.004

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ConfigError(f"capacity must be positive, got {self.capacity}")
        if not 0.0 <= self.base_cpu < 1.0:
            raise ConfigError(f"base_cpu must be in [0, 1), got {self.base_cpu}")
        if self.cpu_noise_sigma < 0:
            raise ConfigError("cpu_noise_sigma must be non-negative")


class ServerLoadModel:
    """Closed-form CPU model: utilization from concurrency.

    Parameters
    ----------
    config:
        Server parameters; see :class:`ServerConfig`.
    """

    def __init__(self, config: ServerConfig | None = None) -> None:
        self.config = config or ServerConfig()

    @staticmethod
    def concurrency_at(times: FloatArray, starts: FloatArray,
                       ends: FloatArray) -> np.ndarray:
        """Number of transfers active at each query time.

        A transfer ``[s, e)`` is active at ``t`` when ``s <= t < e``.
        """
        t = np.asarray(times, dtype=np.float64)
        s_sorted = np.sort(np.asarray(starts, dtype=np.float64))
        e_sorted = np.sort(np.asarray(ends, dtype=np.float64))
        return (np.searchsorted(s_sorted, t, side="right")
                - np.searchsorted(e_sorted, t, side="right"))

    def cpu_utilization(self, concurrency: np.ndarray,
                        seed: SeedLike = None) -> FloatArray:
        """Sampled CPU utilization for each concurrency level."""
        cfg = self.config
        rng = make_rng(seed)
        conc = np.asarray(concurrency, dtype=np.float64)
        clean = cfg.base_cpu + conc / cfg.capacity
        noisy = clean + rng.normal(0.0, cfg.cpu_noise_sigma, size=conc.shape)
        return np.clip(noisy, 0.0, 1.0)
