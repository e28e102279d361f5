"""repro: a reproduction of *A Hierarchical Characterization of a Live
Streaming Media Workload* (Veloso, Almeida, Meira, Bestavros, Jin — IMC
2002).

The library has three faces:

* **Simulate** — :class:`~repro.simulation.live_show.LiveShowScenario`
  produces a Windows-Media-Server-style trace of a live reality-show
  audience, standing in for the paper's proprietary 28-day log.
* **Characterize** — :func:`~repro.core.characterize.characterize` runs the
  paper's three-layer (client / session / transfer) characterization over
  any trace; :func:`~repro.core.calibrate.calibrate_model` extracts the
  Table 2 generative model from it.
* **Generate** — :class:`~repro.core.gismo.LiveWorkloadGenerator` is the
  paper's GISMO-live extension: synthetic live workloads from a
  :class:`~repro.core.model.LiveWorkloadModel`.

Quickstart
----------
>>> from repro import (LiveShowScenario, sanitize_trace, characterize,
...                    calibrate_model, LiveWorkloadGenerator)
>>> result = LiveShowScenario().run(seed=7)          # doctest: +SKIP
>>> trace, _ = sanitize_trace(result.trace)          # doctest: +SKIP
>>> report = characterize(trace)                     # doctest: +SKIP
>>> model = calibrate_model(trace).model             # doctest: +SKIP
>>> synthetic = LiveWorkloadGenerator(model).generate(days=7, seed=1)  # doctest: +SKIP
"""

from .core.calibrate import CalibrationResult, calibrate_model
from .core.characterize import WorkloadCharacterization, characterize
from .core.gismo import GismoWorkload, LiveWorkloadGenerator
from .core.model import LiveWorkloadModel
from .core.planning import CapacityPlan, denial_rate_at, required_capacity
from .core.report import render_report
from .core.sessionizer import Sessions, session_count_for_timeouts, sessionize
from .core.validate import FidelityReport, compare_workloads
from .errors import ReproError
from .simulation.live_show import (
    LiveShowScenario,
    ScenarioConfig,
    SimulationResult,
)
from .stream import (
    GenerationStream,
    OnlineSessionizer,
    StreamRunResult,
    run_streaming_generation,
)
from .trace.sanitize import SanitizationReport, sanitize_trace
from .trace.store import Trace
from .trace.wms_log import read_wms_log, write_wms_log

__version__ = "1.0.0"

__all__ = [
    "CalibrationResult",
    "CapacityPlan",
    "FidelityReport",
    "GenerationStream",
    "GismoWorkload",
    "LiveShowScenario",
    "LiveWorkloadGenerator",
    "LiveWorkloadModel",
    "OnlineSessionizer",
    "ReproError",
    "SanitizationReport",
    "ScenarioConfig",
    "Sessions",
    "SimulationResult",
    "StreamRunResult",
    "Trace",
    "WorkloadCharacterization",
    "calibrate_model",
    "characterize",
    "compare_workloads",
    "denial_rate_at",
    "read_wms_log",
    "render_report",
    "required_capacity",
    "run_streaming_generation",
    "sanitize_trace",
    "session_count_for_timeouts",
    "sessionize",
    "write_wms_log",
    "__version__",
]
