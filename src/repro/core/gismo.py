"""GISMO-live: synthetic generation of live streaming media workloads.

This module re-implements, from the paper's description (Section 6), the
live-media extensions to GISMO — the Generator of Internet Streaming Media
Objects and workloads [19]:

* **Non-stationary arrivals.** GISMO originally drew session arrivals from
  stationary processes; live workloads require a programmable arrival-rate
  function.  Here the rate is the model's periodic diurnal profile driving
  a piecewise-stationary Poisson process.
* **Clients as first-class entities.** Live content inverts the roles of
  objects and clients: instead of sessions choosing *objects* by a
  popularity law, sessions choose *clients* by the Zipf interest profile.
  Both ends of a session are therefore selected preferentially from
  enumerable sets (clients by interest, feeds by preference).

The output is an ordinary :class:`~repro.trace.store.Trace`, so everything
downstream — sessionization, characterization, replay — applies to
synthetic workloads unchanged, and a generate-then-recharacterize round
trip validates the whole loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from typing import TYPE_CHECKING

from .._typing import FloatArray, IntArray, SeedLike
from ..trace.store import ClientTable
from .model import LiveWorkloadModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..scenarios import Scenario


@dataclass(frozen=True)
class GismoWorkload:
    """A generated workload: the trace plus generation-time ground truth.

    Attributes
    ----------
    trace:
        The synthetic trace (sorted by transfer start).
    session_arrivals:
        True session start times.
    session_client:
        True client index of each session.
    transfer_session:
        Owning-session index of each transfer, in trace order.
    """

    trace: Trace
    session_arrivals: FloatArray = field(repr=False)
    session_client: IntArray = field(repr=False)
    transfer_session: IntArray = field(repr=False)

    @property
    def n_sessions(self) -> int:
        """Number of generated sessions."""
        return int(self.session_arrivals.size)


#: Operating-system string assigned to synthetic clients (the
#: :class:`~repro.trace.store.ClientTable` default).
SYNTHETIC_OS_NAME = "Windows_98"


def synthetic_client_identity(index: int) -> tuple[str, str, str]:
    """The ``(ip, player_id, os_name)`` of synthetic client ``index``.

    The identity is a pure function of the index, so streaming consumers
    (the bounded-memory WMS log writer in :mod:`repro.stream`) can derive
    it on the fly instead of materializing the whole client table.
    :func:`_synthetic_client_table` builds its rows from the same formula,
    which keeps the streamed log byte-identical to one written from a
    materialized :class:`~repro.trace.store.Trace`.
    """
    ip = f"10.{(index >> 16) & 255}.{(index >> 8) & 255}.{index & 255}"
    return ip, f"gismo-{index:07d}", SYNTHETIC_OS_NAME


def _synthetic_client_table(n_clients: int) -> ClientTable:
    """Placeholder client identities for generated workloads.

    GISMO clients are abstract entities; they get sequential player IDs and
    deterministic placeholder IPs (one per client), with no AS/country
    annotation.  Rows follow :func:`synthetic_client_identity`.
    """
    identities = [synthetic_client_identity(i) for i in range(n_clients)]
    return ClientTable(
        player_ids=[player for _, player, _ in identities],
        ips=[ip for ip, _, _ in identities],
        as_numbers=np.zeros(n_clients, dtype=np.int64),
        countries=[""] * n_clients,
    )


class LiveWorkloadGenerator:
    """Generates live streaming workloads from a :class:`LiveWorkloadModel`.

    Parameters
    ----------
    model:
        The generative model (paper defaults, hand-tuned, or calibrated
        from a trace).

    Examples
    --------
    >>> model = LiveWorkloadModel.paper_defaults(mean_session_rate=0.01,
    ...                                          n_clients=500)
    >>> workload = LiveWorkloadGenerator(model).generate(days=1, seed=7)
    >>> workload.trace.n_transfers >= workload.n_sessions
    True
    """

    def __init__(self, model: LiveWorkloadModel) -> None:
        self.model = model

    def generate(self, days: float, seed: SeedLike = None, *,
                 jobs: int = 1,
                 scenario: "str | Scenario | None" = None) -> GismoWorkload:
        """Generate a workload spanning ``days`` days.

        Transfers whose start would fall past the window are discarded and
        in-progress transfers are clipped at the window end, mirroring a
        real collection period.

        Generation runs through :func:`repro.parallel.generate_sharded`,
        one task per canonical block across ``jobs`` processes (``1``
        runs inline); the trace is bit-for-bit identical for every
        ``jobs``.  An optional ``scenario`` (spec string or
        :class:`~repro.scenarios.Scenario`) perturbs the workload; see
        :mod:`repro.scenarios`.

        Raises
        ------
        GenerationError
            If ``days`` is non-positive.
        ScenarioError
            If ``scenario`` is an unknown name or a malformed spec.
        ValueError
            If ``jobs`` is not positive.
        """
        from ..parallel.engine import generate_sharded
        return generate_sharded(self.model, days, seed=seed, jobs=jobs,
                                scenario=scenario)
