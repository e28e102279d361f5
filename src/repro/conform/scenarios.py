"""Scenario conformance: calibrated envelopes + two-sided sensitivity.

Every registered scenario (see
:data:`repro.scenarios.REGISTERED_SCENARIOS`) carries its own golden
envelope, pinned on the canonical ``medium`` workload, inside the
registry's ``scenarios`` table.  The claim the gates enforce is
**two-sided** — a falsifiable extension of the mutation self-check:

* **trips baseline** — the scenario trace, evaluated against the
  *baseline* workload's golden entry, must fail at least one
  *statistical* gate (``param:``/``envelope:``/``distance:``; hashes
  and counts don't count — any perturbation trivially flips those).
  A scenario the characterization pipeline cannot distinguish from
  baseline is *inert* and fails conformance.
* **passes own envelope** — the same trace, evaluated against the
  scenario's own pinned entry, must pass every gate (hashes included:
  scenario generation is deterministic).

:func:`inert_scenario_self_check` proves the first side has teeth the
same way the mutation check proves the parameter gates do: it injects
the deliberately inert ``identity`` scenario and asserts the
trips-baseline side *fails* for it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Any

from ..core.gismo import LiveWorkloadGenerator
from ..errors import ConfigError
from ..scenarios import REGISTERED_SCENARIOS, get_scenario, scenario_spec_string
from .fingerprint import WorkloadMeasurement, measure_workload
from .gates import (
    GateRecord,
    derive_tolerances,
    evaluate_gates,
    statistical_failures,
)
from .matrix import WorkloadSpec, workload_spec

#: The canonical workload scenario envelopes are pinned on: large enough
#: that every built-in scenario clears the bootstrap tolerances, small
#: enough to re-measure in every conformance run.
SCENARIO_WORKLOAD = "medium"

#: The scenario specs carrying golden envelopes and sensitivity gates:
#: every registered scenario plus one composition, so composing is
#: itself a conformance-pinned operation.
SENSITIVITY_SCENARIOS: tuple[str, ...] = (
    *REGISTERED_SCENARIOS,
    "flash-crowd+zapping",
)

#: Scenario specs run through the differential oracle (on the ``small``
#: workload): two atoms with different mechanisms — a model perturbation
#: and a trace edit — plus one composition and one bandwidth law.
ORACLE_SCENARIOS: tuple[str, ...] = (
    "flash-crowd",
    "blackout",
    "flash-crowd+zapping",
    "bimodal-shift",
)


def scenario_key(workload: str, scenario: str) -> str:
    """Registry key of a scenario pin: ``<workload>@<scenario spec>``."""
    return f"{workload}@{scenario}"


def measure_scenario(spec: WorkloadSpec, scenario: str, *,
                     n_boot: int = 0) -> WorkloadMeasurement:
    """Generate and fingerprint ``spec``'s workload under ``scenario``.

    The measurement's spec is renamed to the scenario key so every gate
    record and registry echo names the perturbed workload, and the
    distances are still computed against the *canonical* model laws —
    which is exactly what makes a scenario's distributional footprint
    visible.
    """
    keyed = dc_replace(spec, name=scenario_key(spec.name, scenario))
    workload = LiveWorkloadGenerator(spec.model()).generate(
        spec.days, seed=spec.seed, scenario=scenario)
    return measure_workload(keyed, n_boot=n_boot, workload=workload)


def scenario_registry_entry(measurement: WorkloadMeasurement,
                            baseline_entry: dict, workload: str,
                            scenario: str) -> dict:
    """One scenario's registry block, including its distinguishers.

    ``distinguishers`` records which statistical gates the scenario
    tripped against the baseline entry at pin time — committed evidence
    of the distinguishability claim, and a readable changelog when a
    scenario's footprint shifts.
    """
    tolerances = derive_tolerances(measurement)
    baseline_failures = statistical_failures(
        evaluate_gates(measurement, baseline_entry))
    return {
        "workload": workload,
        "scenario": scenario_spec_string(scenario),
        "hashes": {
            "trace": measurement.trace_sha256,
            "sessions": measurement.sessions_sha256,
            "log": measurement.log_sha256,
        },
        "counts": {
            "n_transfers": measurement.n_transfers,
            "n_sessions": measurement.n_sessions,
        },
        "parameters": tolerances["parameters"],
        "distances": tolerances["distances"],
        "distinguishers": sorted(r.gate for r in baseline_failures),
    }


def scenario_gates(measurement: WorkloadMeasurement, registry: dict,
                   workload: str, scenario: str) -> list[GateRecord]:
    """Evaluate the two-sided sensitivity gates for one scenario.

    Returns the scenario's regular gate records against its own pinned
    envelope plus one ``sensitivity:trips-baseline`` record against the
    baseline workload's entry.  A missing pin yields a single failing
    ``registry:present`` record.
    """
    key = scenario_key(workload, scenario)
    entry = registry.get("scenarios", {}).get(key)
    if entry is None:
        return [GateRecord(
            gate="registry:present", workload=key, passed=False,
            detail=(f"scenario {key!r} has no golden entry; "
                    "run `make conform-update`"))]
    baseline_entry = registry["workloads"].get(workload)
    if baseline_entry is None:
        return [GateRecord(
            gate="registry:present", workload=key, passed=False,
            detail=(f"baseline workload {workload!r} has no golden entry "
                    "to distinguish against; run `make conform-update`"))]

    records = evaluate_gates(measurement, entry)
    tripped = statistical_failures(
        evaluate_gates(measurement, baseline_entry))
    names = sorted(r.gate for r in tripped)
    records.append(GateRecord(
        gate="sensitivity:trips-baseline", workload=key,
        passed=bool(tripped),
        measured=float(len(tripped)),
        detail=(f"scenario trips {len(names)} statistical gate(s) vs "
                f"baseline {workload!r}: {', '.join(names)}" if names else
                f"scenario is statistically indistinguishable from "
                f"baseline {workload!r} — an inert perturbation")))
    return records


@dataclass(frozen=True)
class InertScenarioReport:
    """Outcome of the inert-scenario self-check.

    ``caught`` means the sensitivity machinery correctly *refused* the
    deliberately inert scenario: its trace came back bit-identical to
    baseline and tripped zero statistical gates, so the
    ``sensitivity:trips-baseline`` gate would fail it in CI.
    """

    workload: str
    scenario: str
    bit_identical: bool
    tripped_gates: tuple[str, ...]
    caught: bool

    def summary(self) -> str:
        """One-line verdict mirroring :meth:`MutationReport.summary`."""
        verdict = "CAUGHT" if self.caught else "MISSED"
        return (f"inert scenario {self.scenario!r} on {self.workload}: "
                f"{verdict} (bit-identical={self.bit_identical}, "
                f"tripped: {', '.join(self.tripped_gates) or 'none'})")


def inert_scenario_self_check(registry: dict, *,
                              workload: str = SCENARIO_WORKLOAD,
                              scenario: str = "identity",
                              n_boot: int = 0) -> InertScenarioReport:
    """Prove the sensitivity gate fails a perturbation-free scenario.

    Generates ``workload`` under the ``identity`` scenario (a registered
    name whose transform is a no-op), evaluates it against the baseline
    golden entry, and reports ``caught=True`` exactly when the
    trips-baseline side would fail: the trace is bit-identical to the
    baseline pin and no statistical gate trips.  If this check ever
    reports ``MISSED``, the sensitivity claim has lost its teeth — a
    scenario could pass CI without being distinguishable.
    """
    entry = registry["workloads"].get(workload)
    if entry is None:
        raise ConfigError(
            f"workload {workload!r} is not pinned in the golden registry; "
            "run `make conform-update` first")
    resolved = get_scenario(scenario)
    if resolved is None:
        raise ConfigError("inert self-check needs a scenario spec")
    spec = workload_spec(workload)
    measurement = measure_scenario(spec, scenario, n_boot=n_boot)
    tripped = statistical_failures(evaluate_gates(measurement, entry))
    bit_identical = (
        measurement.trace_sha256 == entry["hashes"]["trace"]
        and measurement.sessions_sha256 == entry["hashes"]["sessions"]
        and measurement.log_sha256 == entry["hashes"]["log"])
    return InertScenarioReport(
        workload=workload,
        scenario=scenario,
        bit_identical=bit_identical,
        tripped_gates=tuple(sorted(r.gate for r in tripped)),
        caught=bit_identical and not tripped,
    )


def validate_scenario_table(registry: dict, path: Any) -> None:
    """Structural validation of the registry's ``scenarios`` table.

    Called by :func:`repro.conform.registry.load_registry`; the table is
    optional (older registries predate it), but present entries must
    name a canonical workload, parse as a scenario spec, and carry the
    full envelope block.
    """
    table = registry.get("scenarios")
    if table is None:
        return
    if not isinstance(table, dict):
        raise ConfigError(f"golden registry {path} scenarios table is not "
                          "a mapping")
    for key, entry in table.items():
        workload = entry.get("workload")
        scenario = entry.get("scenario")
        if not isinstance(workload, str) or not isinstance(scenario, str):
            raise ConfigError(
                f"golden registry scenario entry {key!r} lacks its "
                "workload/scenario identity; regenerate with "
                "`make conform-update`")
        workload_spec(workload)  # raises on unknown workloads
        parsed = get_scenario(scenario)  # raises ScenarioError on junk
        assert parsed is not None
        for field in ("hashes", "counts", "parameters", "distances",
                      "distinguishers"):
            if field not in entry:
                raise ConfigError(
                    f"golden registry scenario entry {key!r} lacks "
                    f"{field!r}; regenerate with `make conform-update`")
