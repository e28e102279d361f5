"""Composable workload scenarios over the Table 2 generator.

A scenario is a named, pure, deterministic perturbation of the baseline
live-streaming workload — an arrival surge, a channel-zapping session
mixture, a regional blackout, a bandwidth-class rotation, a
live-vs-VoD duration blend — that composes (``flash-crowd+zapping``)
and flows through every generation engine (serial batch, pooled batch,
streaming) bit-identically.  Resolve a spec string with :func:`get_scenario` and
pass the result to :class:`~repro.core.gismo.LiveWorkloadGenerator`,
:func:`~repro.parallel.generate_sharded`, or
:class:`~repro.stream.GenerationStream`; on the CLI, use
``repro generate --scenario ...`` / ``repro plan --scenario ...``.

Every registered scenario carries calibrated envelopes in the conform
golden registry and must satisfy a two-sided sensitivity gate: its
trace trips the statistical gates against the *baseline* envelope and
passes against its *own* — see :mod:`repro.conform.scenarios`.
"""

from __future__ import annotations

from .base import (
    ComposedScenario,
    IdentityScenario,
    Scenario,
    TraceEdit,
    compose,
)
from .perturbations import (
    BimodalShift,
    Blackout,
    BlackoutEdit,
    FlashCrowd,
    LongtailMix,
    Zapping,
)
from .registry import (
    REGISTERED_SCENARIOS,
    SCENARIO_TYPES,
    get_scenario,
    scenario_names,
    scenario_spec_string,
)
from .spec import parse_spec, parse_term, split_composition

__all__ = [
    "REGISTERED_SCENARIOS",
    "SCENARIO_TYPES",
    "BimodalShift",
    "Blackout",
    "BlackoutEdit",
    "ComposedScenario",
    "FlashCrowd",
    "IdentityScenario",
    "LongtailMix",
    "Scenario",
    "TraceEdit",
    "Zapping",
    "compose",
    "get_scenario",
    "parse_spec",
    "parse_term",
    "scenario_names",
    "scenario_spec_string",
    "split_composition",
]
