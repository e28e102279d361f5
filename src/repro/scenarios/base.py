"""Scenario algebra: composable, deterministic workload perturbations.

A :class:`Scenario` is a *pure transform* of a generation request.  It
may act at two points of the engine, and only those two:

* **Model perturbation** (:meth:`Scenario.perturb_model`) — rewrite the
  Table 2 :class:`~repro.core.model.LiveWorkloadModel` before planning
  (arrival profile surges, session-behaviour blends, bandwidth-class
  rotations).  Applied once, in the planner, so every execution mode
  (serial or pooled batch, streaming) generates from the identical
  perturbed model.
* **Trace edits** (:meth:`Scenario.trace_edits`) — a tuple of
  :class:`TraceEdit` objects applied to every canonical block's
  transfers inside :func:`repro.parallel.engine.generate_shard`.  Edits
  are *row-local* and *start-preserving*: they may drop rows and shrink
  durations, but never change a kept row's start time, reorder rows, or
  look at rows outside the block.  Those constraints make the edited
  trace invariant to where blocks run and to how their transfers are
  cut into streamed batches — which is what keeps scenario generation
  bit-identical across engines *by construction* rather than by testing
  luck.

Scenarios compose left-to-right (``a + b`` perturbs with ``a`` first,
then ``b``, and concatenates their trace edits in that order).
Composition is **order-sensitive** by design: a scenario that blends the
current model parameters (e.g. a lognormal moment-match) sees whatever
the scenarios to its left already installed.  Both orders are valid,
distinct, deterministic workloads; the canonical spec string
(:meth:`Scenario.spec_string`) records the order, and the streaming
checkpoint fingerprint pins it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np
import numpy.typing as npt

from .._typing import FloatArray, IntArray
from ..core.model import LiveWorkloadModel
from ..errors import ScenarioError

#: Boolean keep-mask type returned by trace edits.
BoolArray = npt.NDArray[np.bool_]


def format_param(value: float | int) -> str:
    """Canonical text form of a scenario parameter value.

    Floats render via ``repr`` (shortest round-tripping form), so
    ``parse(render(s))`` reproduces the exact parameter bits and the
    canonical spec string is stable enough to live in checkpoint
    fingerprints and the golden registry.
    """
    if isinstance(value, bool):  # pragma: no cover - no bool params yet
        raise ScenarioError("scenario parameters must be numbers")
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


class TraceEdit(ABC):
    """A pure, row-local edit of generated transfers.

    Implementations are frozen dataclasses (picklable — they travel to
    worker processes inside shard specs).  The contract, enforced by the
    engine's tests: :meth:`apply` may **drop rows** and **shrink
    durations** only.  Start times of kept rows are immutable and row
    order is preserved, so applying the edit per canonical block is
    exactly equivalent to applying it to the merged trace.
    """

    @abstractmethod
    def apply(self, start: FloatArray, duration: FloatArray,
              client_index: IntArray) -> tuple[BoolArray, FloatArray]:
        """Edit one block's (window-clipped) transfers.

        Parameters
        ----------
        start, duration:
            Per-transfer start times and lengths (global trace time).
        client_index:
            Per-transfer owning-client index.

        Returns
        -------
        tuple
            ``(keep, new_duration)`` — a boolean mask over the input
            rows and the edited duration column (same length as the
            input; masked out afterwards).  ``new_duration`` must be
            elementwise ``<=`` the input durations and non-negative.
        """


class Scenario(ABC):
    """One named, composable workload perturbation.

    Concrete scenarios are frozen dataclasses whose fields are the
    scenario's numeric parameters; :attr:`slug` is the registry name the
    spec grammar resolves (``flash-crowd``, ``zapping``, ...).
    """

    #: Registry name of the scenario family (overridden per subclass).
    slug: ClassVar[str] = ""

    def perturb_model(self, model: LiveWorkloadModel) -> LiveWorkloadModel:
        """Return the perturbed generation model (default: unchanged)."""
        return model

    def trace_edits(self, model: LiveWorkloadModel,
                    duration: float) -> tuple[TraceEdit, ...]:
        """Edits to apply to the generated transfers (default: none).

        Parameters
        ----------
        model:
            The (already perturbed) generation model.
        duration:
            Observation-window length in seconds, so edits can resolve
            day-relative parameters to absolute trace time.
        """
        return ()

    def spec_string(self) -> str:
        """Canonical spec text: ``slug(key=value,...)`` in field order.

        Parsing the result reproduces this scenario exactly
        (see :func:`repro.scenarios.get_scenario`), and re-rendering the
        parse yields the identical string — the property the checkpoint
        fingerprint and golden registry rely on.
        """
        params = ",".join(
            f"{f.name}={format_param(getattr(self, f.name))}"
            for f in fields(self))  # type: ignore[arg-type]
        return f"{self.slug}({params})" if params else self.slug

    def atoms(self) -> tuple["Scenario", ...]:
        """The flat sequence of non-composite scenarios, in order."""
        return (self,)

    def __add__(self, other: "Scenario") -> "Scenario":
        return compose(self, other)

    def __str__(self) -> str:
        return self.spec_string()


@dataclass(frozen=True)
class IdentityScenario(Scenario):
    """The no-op scenario: perturbs nothing, edits nothing.

    It exists as the algebra's unit (useful in property tests) and as
    the *deliberately inert* perturbation the conform sensitivity
    self-check injects: a scenario the characterization pipeline cannot
    distinguish from baseline must fail the sensitivity gate, and
    ``identity`` is the canonical such scenario.  It is parseable by
    name but excluded from the registered (gated) scenario set.
    """

    slug: ClassVar[str] = "identity"


class ComposedScenario(Scenario):
    """Left-to-right composition of two or more scenarios.

    Built via :func:`compose` (or ``a + b``); never nested — composing
    compositions flattens into one part tuple.
    """

    slug: ClassVar[str] = "+"

    def __init__(self, parts: tuple[Scenario, ...]) -> None:
        if len(parts) < 2:
            raise ScenarioError(
                f"a composition needs at least two scenarios, "
                f"got {len(parts)}")
        self._parts = parts

    @property
    def parts(self) -> tuple[Scenario, ...]:
        """The composed scenarios, in application order."""
        return self._parts

    def atoms(self) -> tuple[Scenario, ...]:
        return self._parts

    def perturb_model(self, model: LiveWorkloadModel) -> LiveWorkloadModel:
        for part in self._parts:
            model = part.perturb_model(model)
        return model

    def trace_edits(self, model: LiveWorkloadModel,
                    duration: float) -> tuple[TraceEdit, ...]:
        edits: list[TraceEdit] = []
        for part in self._parts:
            edits.extend(part.trace_edits(model, duration))
        return tuple(edits)

    def spec_string(self) -> str:
        return "+".join(part.spec_string() for part in self._parts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ComposedScenario({self.spec_string()!r})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ComposedScenario)
                and self._parts == other._parts)

    def __hash__(self) -> int:
        # In-process hashability only (dict/set membership); scenario
        # identity on disk is the canonical spec string, never this.
        return hash(("ComposedScenario", self._parts))  # reprolint: disable=RL011, in-process only


def compose(*scenarios: Scenario) -> Scenario:
    """Compose scenarios left to right, flattening nested compositions.

    ``compose(a)`` is ``a`` itself; ``compose()`` raises.  Application
    order matters (see the module docstring) and is preserved exactly.
    """
    flat: list[Scenario] = []
    for scenario in scenarios:
        flat.extend(scenario.atoms())
    if not flat:
        raise ScenarioError("compose() needs at least one scenario")
    if len(flat) == 1:
        return flat[0]
    return ComposedScenario(tuple(flat))
