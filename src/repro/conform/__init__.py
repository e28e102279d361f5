"""``repro.conform``: statistical conformance gates + differential oracle.

The correctness backstop for every performance PR.  The repo's three
generation/characterization pipelines (batch ``repro.core``, pooled
``repro.parallel``, streaming ``repro.stream``) promise bit-identical
artifacts, and the Table 2 model promises calibrated parameters near the
paper's published values; this subsystem turns both promises into
machine-checked gates:

* :mod:`repro.conform.matrix` — the canonical workload matrix
  (small / medium / paper scale, fixed seeds).
* :mod:`repro.conform.fingerprint` — content hashes + calibrated
  parameter vectors with bootstrap confidence half-widths.
* :mod:`repro.conform.registry` — the committed ``golden.json``
  (fingerprints *and* tolerances; regenerate via ``make conform-update``).
* :mod:`repro.conform.gates` — hash, parameter-drift, paper-envelope and
  KS/Anderson-Darling distance gates.
* :mod:`repro.conform.oracle` — the cross-pipeline differential oracle
  (core vs parallel vs stream, incl. a mid-run checkpoint/resume split).
* :mod:`repro.conform.mutation` — the self-check proving a 2% parameter
  perturbation is caught.
* :mod:`repro.conform.scenarios` — per-scenario golden envelopes and the
  two-sided sensitivity gates (every registered scenario must be
  statistically distinguishable from baseline *and* reproduce its own
  pinned envelope), plus the inert-scenario self-check.
* :mod:`repro.conform.runner` — one-call orchestration +
  ``CONFORMANCE.json`` emission (the ``repro conform`` CLI verb).

See ``tests/conform/`` for the pytest face (``conform`` marker,
``--conform-scale`` option) and ``docs/API.md`` for usage.
"""

from .fingerprint import (
    GATED_DISTANCES,
    GATED_PARAMETERS,
    WorkloadMeasurement,
    measure_workload,
)
from .gates import (
    PAPER_REFERENCES,
    GateRecord,
    derive_tolerances,
    evaluate_gates,
    statistical_failures,
)
from .matrix import (
    CANONICAL_MATRIX,
    MUTATION_WORKLOAD,
    SCALES,
    WorkloadSpec,
    scale_specs,
    workload_spec,
)
from .mutation import MutationReport, mutation_self_check
from .oracle import OracleComparison, OracleReport, run_differential_oracle
from .registry import (
    REGISTRY_PATH,
    load_registry,
    registry_entry,
    save_registry,
    serialize_registry,
    updated_registry,
)
from .runner import (
    ConformanceResult,
    conformance_document,
    render_failures,
    render_summary,
    run_conformance,
)
from .scenarios import (
    ORACLE_SCENARIOS,
    SCENARIO_WORKLOAD,
    SENSITIVITY_SCENARIOS,
    InertScenarioReport,
    inert_scenario_self_check,
    measure_scenario,
    scenario_gates,
    scenario_key,
    scenario_registry_entry,
)

__all__ = [
    "CANONICAL_MATRIX",
    "ConformanceResult",
    "GATED_DISTANCES",
    "GATED_PARAMETERS",
    "GateRecord",
    "InertScenarioReport",
    "MUTATION_WORKLOAD",
    "MutationReport",
    "ORACLE_SCENARIOS",
    "OracleComparison",
    "OracleReport",
    "PAPER_REFERENCES",
    "REGISTRY_PATH",
    "SCALES",
    "SCENARIO_WORKLOAD",
    "SENSITIVITY_SCENARIOS",
    "WorkloadMeasurement",
    "WorkloadSpec",
    "conformance_document",
    "derive_tolerances",
    "evaluate_gates",
    "inert_scenario_self_check",
    "load_registry",
    "measure_scenario",
    "measure_workload",
    "mutation_self_check",
    "registry_entry",
    "render_failures",
    "render_summary",
    "run_conformance",
    "run_differential_oracle",
    "save_registry",
    "scale_specs",
    "scenario_gates",
    "scenario_key",
    "scenario_registry_entry",
    "serialize_registry",
    "statistical_failures",
    "updated_registry",
    "workload_spec",
]
