"""The simulated "world" that stands in for the paper's proprietary trace.

The paper's data — 28 days of accesses to two live feeds of a Brazilian
reality show — is not public.  This subpackage builds its closest synthetic
equivalent: a stochastic audience and server model whose *planted* behaviour
matches every distributional finding of the paper, so the characterization
pipeline (:mod:`repro.core`) can be validated by parameter recovery.

Components
----------
* :mod:`~repro.simulation.show` — the show schedule: diurnal audience
  availability modulated by scheduled in-show events.
* :mod:`~repro.simulation.population` — the client population: Zipf interest
  ranks, AS/country topology, access-link tiers, shared IPs.
* :mod:`~repro.simulation.viewer` — session behaviour: transfers per
  session, intra-session gaps, stickiness (transfer lengths), feed switching.
* :mod:`~repro.simulation.network` — last-mile bandwidth: client-bound
  spikes plus a congestion-bound mode.
* :mod:`~repro.simulation.server` — the unicast server's CPU-load model.
* :mod:`~repro.simulation.replay` — trace replay against one server with an
  admission limit, decided by :mod:`repro.cdn.admission`.  Import it from
  its module: it depends on :mod:`repro.cdn`, which imports this package.
* :mod:`~repro.simulation.live_show` — end-to-end assembly producing a
  :class:`~repro.trace.store.Trace`.
"""

from .live_show import LiveShowScenario, ScenarioConfig
from .network import BandwidthModel, NetworkConfig
from .population import ClientPopulation, PopulationConfig
from .server import ServerConfig, ServerLoadModel
from .show import CompositeRateProfile, ShowEvent, ShowSchedule
from .viewer import SessionBatch, SessionBehavior

__all__ = [
    "BandwidthModel",
    "ClientPopulation",
    "CompositeRateProfile",
    "LiveShowScenario",
    "NetworkConfig",
    "PopulationConfig",
    "ScenarioConfig",
    "ServerConfig",
    "ServerLoadModel",
    "SessionBatch",
    "SessionBehavior",
    "ShowEvent",
    "ShowSchedule",
]
