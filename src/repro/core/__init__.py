"""The paper's primary contribution.

* :mod:`~repro.core.sessionizer` — reconstruct sessions from interleaved
  transfers under the timeout ``T_o`` (Figure 1 / Section 2.2 semantics);
* :mod:`~repro.core.client_layer`, :mod:`~repro.core.session_layer`,
  :mod:`~repro.core.transfer_layer` — the three characterization layers
  (Sections 3, 4, 5);
* :mod:`~repro.core.characterize` — run all layers over a trace;
* :mod:`~repro.core.model` — the generative model's variable set (Table 2);
* :mod:`~repro.core.calibrate` — fit the model from a trace;
* :mod:`~repro.core.gismo` — the GISMO-live synthetic workload generator
  (Section 6);
* :mod:`~repro.core.report` — human-readable characterization reports.
"""

from .calibrate import CalibrationResult, calibrate_model
from .characterize import WorkloadCharacterization, characterize
from .client_layer import ClientLayerCharacterization, characterize_client_layer
from .gismo import GismoWorkload, LiveWorkloadGenerator
from .model import LiveWorkloadModel
from .report import render_report
from .session_layer import SessionLayerCharacterization, characterize_session_layer
from .sessionizer import Sessions, session_count_for_timeouts, sessionize
from .transfer_layer import (
    TransferLayerCharacterization,
    characterize_transfer_layer,
)

__all__ = [
    "CalibrationResult",
    "ClientLayerCharacterization",
    "GismoWorkload",
    "LiveWorkloadGenerator",
    "LiveWorkloadModel",
    "SessionLayerCharacterization",
    "Sessions",
    "TransferLayerCharacterization",
    "WorkloadCharacterization",
    "calibrate_model",
    "characterize",
    "characterize_client_layer",
    "characterize_session_layer",
    "characterize_transfer_layer",
    "render_report",
    "session_count_for_timeouts",
    "sessionize",
]
