"""Conformance orchestration: one call that runs everything.

:func:`run_conformance` wires the subsystem together — measure the
canonical matrix, evaluate the golden gates, run the differential
oracle, run the mutation self-check — and returns a single
:class:`ConformanceResult`.  :func:`conformance_document` renders it as
the ``CONFORMANCE.json`` artifact (deliberately timestamp-free so two
runs of the same tree produce identical files), and
:func:`render_failures` as the human-readable diff CI prints when the
gate closes.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from pathlib import Path

from ..core.gismo import LiveWorkloadGenerator
from .cdn import cdn_reconciliation_comparisons
from .fingerprint import DEFAULT_N_BOOT, WorkloadMeasurement, measure_workload
from .gates import GateRecord, evaluate_gates
from .matrix import MUTATION_WORKLOAD, WorkloadSpec, scale_specs, workload_spec
from .mutation import MutationReport, mutation_self_check
from .oracle import (
    DEFAULT_CHUNK_SIZES,
    OracleReport,
    run_differential_oracle,
)
from .registry import REGISTRY_PATH, load_registry, save_registry, updated_registry
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

#: Differential-oracle shapes per workload.  The paper-scale workload
#: uses chunk sizes that still split the ~38 k-transfer canonical blocks
#: (so intra-block horizons are exercised) without degenerating into
#: hundreds of thousands of tiny batches.
_ORACLE_SHAPES: dict[str, dict] = {
    "paper": {"chunk_sizes": (20_011, 100_003)},
}


@dataclass(frozen=True)
class ConformanceResult:
    """Everything one conformance run established."""

    scale: str
    updated: bool
    measurements: dict[str, WorkloadMeasurement]
    gates: tuple[GateRecord, ...]
    oracles: tuple[OracleReport, ...]
    mutation: MutationReport | None
    scenarios: dict[str, WorkloadMeasurement] = field(default_factory=dict)
    inert: InertScenarioReport | None = None

    @property
    def passed(self) -> bool:
        gates_ok = all(g.passed for g in self.gates)
        oracles_ok = all(o.passed for o in self.oracles)
        mutation_ok = self.mutation is None or self.mutation.caught
        inert_ok = self.inert is None or self.inert.caught
        return gates_ok and oracles_ok and mutation_ok and inert_ok


def _oracle_shape(spec: WorkloadSpec) -> dict:
    return _ORACLE_SHAPES.get(spec.name, {
        "chunk_sizes": DEFAULT_CHUNK_SIZES,
    })


def run_conformance(scale: str = "smoke", *,
                    update: bool = False,
                    run_oracle: bool = True,
                    run_mutation: bool = True,
                    run_scenarios: bool = True,
                    n_boot: int = DEFAULT_N_BOOT,
                    registry_path: str | Path = REGISTRY_PATH,
                    workdir: str | Path | None = None) -> ConformanceResult:
    """Run the conformance suite at ``scale``.

    Parameters
    ----------
    scale:
        ``smoke`` (small + medium) or ``paper`` (adds the paper-scale
        workload).
    update:
        Re-pin the golden registry from this run's measurements instead
        of gating against it (``make conform-update``).  Gates are then
        evaluated against the *fresh* registry — they must pass, and the
        oracle and mutation check still run, so a re-pin cannot land
        with a broken harness.
    run_oracle, run_mutation:
        Toggles for the differential oracle and the mutation self-check.
    run_scenarios:
        Toggle for the scenario leg: per-scenario envelope measurement,
        the two-sided sensitivity gates, the scenario differential
        oracles, and the inert-scenario self-check.
    n_boot:
        Bootstrap replicates per measurement.
    registry_path:
        Golden registry location (tests point this at scratch copies).
    workdir:
        Scratch directory for oracle artifacts (a temporary directory
        by default).
    """
    specs = scale_specs(scale)
    references = {
        spec.name: LiveWorkloadGenerator(spec.model()).generate(
            spec.days, seed=spec.seed)
        for spec in specs}
    measurements = {
        spec.name: measure_workload(spec, n_boot=n_boot,
                                    workload=references[spec.name])
        for spec in specs}

    scenario_measurements: dict[str, WorkloadMeasurement] = {}
    if run_scenarios:
        base_spec = workload_spec(SCENARIO_WORKLOAD)
        for name in SENSITIVITY_SCENARIOS:
            scenario_measurements[name] = measure_scenario(
                base_spec, name, n_boot=n_boot)

    registry_path = Path(registry_path)
    if update:
        base = None
        if registry_path.exists():
            base = load_registry(registry_path)
        scenario_entries = None
        if scenario_measurements:
            # Distinguishers are recorded against the *fresh* baseline
            # entry, so pin the workloads first, then the scenarios.
            fresh = updated_registry(list(measurements.values()), base=base)
            baseline_entry = fresh["workloads"][SCENARIO_WORKLOAD]
            scenario_entries = {
                scenario_key(SCENARIO_WORKLOAD, name): scenario_registry_entry(
                    measurement, baseline_entry, SCENARIO_WORKLOAD, name)
                for name, measurement in scenario_measurements.items()}
        registry = updated_registry(list(measurements.values()), base=base,
                                    scenario_entries=scenario_entries)
        save_registry(registry, registry_path)
    else:
        registry = load_registry(registry_path)

    gates: list[GateRecord] = []
    for spec in specs:
        entry = registry["workloads"].get(spec.name)
        if entry is None:
            gates.append(GateRecord(
                gate="registry:present", workload=spec.name, passed=False,
                detail=(f"workload {spec.name!r} has no golden entry; "
                        "run `make conform-update`")))
            continue
        gates.extend(evaluate_gates(measurements[spec.name], entry))
    for name, measurement in scenario_measurements.items():
        gates.extend(scenario_gates(measurement, registry,
                                    SCENARIO_WORKLOAD, name))

    oracles: list[OracleReport] = []
    if run_oracle:
        own_tmp = None
        try:
            if workdir is None:
                own_tmp = tempfile.TemporaryDirectory(prefix="conform-")
                workdir = own_tmp.name
            for spec in specs:
                scratch = Path(workdir) / spec.name
                scratch.mkdir(parents=True, exist_ok=True)
                report = run_differential_oracle(
                    spec, scratch, reference=references[spec.name],
                    **_oracle_shape(spec))
                # The hierarchy reconciliation rides in the same report:
                # the CDN tier must conserve the single-box work exactly.
                oracles.append(OracleReport(
                    workload=report.workload,
                    comparisons=report.comparisons
                    + cdn_reconciliation_comparisons(
                        references[spec.name])))
            if run_scenarios:
                small = workload_spec("small")
                for idx, name in enumerate(ORACLE_SCENARIOS):
                    scratch = Path(workdir) / f"scenario{idx}"
                    scratch.mkdir(parents=True, exist_ok=True)
                    keyed = dc_replace(small,
                                       name=scenario_key("small", name))
                    oracles.append(run_differential_oracle(
                        keyed, scratch, scenario=name))
        finally:
            if own_tmp is not None:
                own_tmp.cleanup()

    mutation = None
    if run_mutation and MUTATION_WORKLOAD in registry["workloads"]:
        mutation = mutation_self_check(registry)

    inert = None
    if run_scenarios and SCENARIO_WORKLOAD in registry["workloads"]:
        inert = inert_scenario_self_check(registry, n_boot=n_boot)

    return ConformanceResult(
        scale=scale,
        updated=update,
        measurements=measurements,
        gates=tuple(gates),
        oracles=tuple(oracles),
        mutation=mutation,
        scenarios=scenario_measurements,
        inert=inert,
    )


def _measurement_block(m: WorkloadMeasurement) -> dict:
    return {
        "spec": m.spec.to_dict(),
        "hashes": {"trace": m.trace_sha256,
                   "sessions": m.sessions_sha256,
                   "log": m.log_sha256},
        "counts": {"n_transfers": m.n_transfers,
                   "n_sessions": m.n_sessions},
        "parameters": {
            p: {"value": m.parameters[p],
                "ci_halfwidth": m.ci_halfwidth[p]}
            for p in sorted(m.parameters)},
        "distances": dict(sorted(m.distances.items())),
    }


def conformance_document(result: ConformanceResult) -> dict:
    """The ``CONFORMANCE.json`` document for ``result``."""
    workloads = {name: _measurement_block(m)
                 for name, m in sorted(result.measurements.items())}
    scenarios = {name: _measurement_block(m)
                 for name, m in sorted(result.scenarios.items())}
    return {
        "scale": result.scale,
        "updated_registry": result.updated,
        "passed": result.passed,
        "workloads": workloads,
        "gates": [
            {"gate": g.gate, "workload": g.workload, "passed": g.passed,
             "measured": g.measured, "expected": g.expected,
             "tolerance": g.tolerance, "detail": g.detail}
            for g in result.gates],
        "oracle": [
            {"workload": o.workload, "passed": o.passed,
             "comparisons": [
                 {"name": c.name, "passed": c.passed, "detail": c.detail}
                 for c in o.comparisons]}
            for o in result.oracles],
        "mutation": (None if result.mutation is None else {
            "workload": result.mutation.workload,
            "parameter": result.mutation.parameter,
            "relative_delta": result.mutation.relative_delta,
            "original": result.mutation.original,
            "perturbed": result.mutation.perturbed,
            "caught": result.mutation.caught,
            "failing_gates": [r.gate
                              for r in result.mutation.failing_gates],
        }),
        "scenarios": scenarios,
        "inert_scenario": (None if result.inert is None else {
            "workload": result.inert.workload,
            "scenario": result.inert.scenario,
            "bit_identical": result.inert.bit_identical,
            "tripped_gates": list(result.inert.tripped_gates),
            "caught": result.inert.caught,
        }),
    }


def render_failures(result: ConformanceResult) -> str:
    """Readable diff of everything that failed (empty string if green)."""
    lines: list[str] = []
    for g in result.gates:
        if not g.passed:
            lines.append(f"GATE  {g.workload}/{g.gate}: {g.detail}")
    for o in result.oracles:
        for c in o.failures():
            lines.append(f"ORACLE  {o.workload}/{c.name}: {c.detail}")
    if result.mutation is not None and not result.mutation.caught:
        lines.append(f"MUTATION  {result.mutation.summary()}")
    if result.inert is not None and not result.inert.caught:
        lines.append(f"INERT  {result.inert.summary()}")
    return "\n".join(lines)


def render_summary(result: ConformanceResult) -> str:
    """One-screen human summary of a conformance run."""
    lines = [f"conformance @ {result.scale}"
             + (" (registry re-pinned)" if result.updated else "")]
    for name, m in sorted(result.measurements.items()):
        lines.append(f"  {name:<8} {m.n_transfers} transfers, "
                     f"{m.n_sessions} sessions, trace "
                     f"{m.trace_sha256[:12]}…")
    for name, m in sorted(result.scenarios.items()):
        lines.append(f"  scenario {name}: {m.n_transfers} transfers, "
                     f"trace {m.trace_sha256[:12]}…")
    n_gates = len(result.gates)
    n_fail = sum(1 for g in result.gates if not g.passed)
    lines.append(f"  gates    {n_gates - n_fail}/{n_gates} passed")
    for o in result.oracles:
        n = len(o.comparisons)
        ok = sum(1 for c in o.comparisons if c.passed)
        lines.append(f"  oracle   {o.workload}: {ok}/{n} comparisons "
                     "bit-identical")
    if result.mutation is not None:
        lines.append(f"  mutation {result.mutation.summary()}")
    if result.inert is not None:
        lines.append(f"  inert    {result.inert.summary()}")
    lines.append(f"  verdict  {'PASS' if result.passed else 'FAIL'}")
    return "\n".join(lines)
