"""``repro.cdn``: simulated two-tier live delivery hierarchy.

The capacity-planning face of the reproduction: an origin fanning live
feeds out to N edge servers, client->edge assignment policies, per-edge
admission control with rejection accounting, edge-failure scenarios
with client re-assignment, and an SLO-driven deployment planner sharded
across worker processes.

Layers:

* :mod:`repro.cdn.topology` — edge capacities, origin stream rate,
  integer bandwidth quantization.
* :mod:`repro.cdn.assignment` — deterministic hash assignment
  (SplitMix64) and the policy registry.
* :mod:`repro.cdn.admission` — exact per-edge admission, vectorized.
* :mod:`repro.cdn.failures` — failure plans and their epoch partition.
* :mod:`repro.cdn.engine` — :func:`simulate_cdn`, the orchestrator.
* :mod:`repro.cdn.report` — per-edge/origin accounting structures.
* :mod:`repro.cdn.planner` — :func:`plan_deployment`, the sharded
  SLO sweep behind ``repro plan``.

Everything is a pure function of ``(trace, topology, policy,
failures)``: bit-identical across processes and worker counts.
"""

from .admission import AdmissionOutcome, active_peaks, admit_requests
from .assignment import (
    POLICIES,
    STATIC_POLICIES,
    assign_static,
    assignment_keys,
    mix64,
    validate_policy,
)
from .engine import simulate_cdn
from .failures import EdgeFailure, Epoch, FailurePlan, parse_failure
from .planner import (
    ConfigOutcome,
    PlanConfig,
    PlanReport,
    check_plan,
    parse_sweep,
    plan_deployment,
    sweep_configs,
)
from .report import CdnResult, EdgeReport, LegSet, OriginReport
from .topology import (
    DEFAULT_ORIGIN_STREAM_BPS,
    CdnTopology,
    EdgeConfig,
    quantize_bandwidth,
)

__all__ = [
    "DEFAULT_ORIGIN_STREAM_BPS",
    "POLICIES",
    "STATIC_POLICIES",
    "AdmissionOutcome",
    "CdnResult",
    "CdnTopology",
    "ConfigOutcome",
    "EdgeConfig",
    "EdgeFailure",
    "EdgeReport",
    "Epoch",
    "FailurePlan",
    "LegSet",
    "OriginReport",
    "PlanConfig",
    "PlanReport",
    "active_peaks",
    "admit_requests",
    "assign_static",
    "assignment_keys",
    "check_plan",
    "mix64",
    "parse_failure",
    "parse_sweep",
    "plan_deployment",
    "quantize_bandwidth",
    "simulate_cdn",
    "sweep_configs",
    "validate_policy",
]
