"""Workload fingerprints: content hashes + measured Table 2 parameters.

A fingerprint pins a canonical workload down twice over:

* **Content hashes** — SHA-256 over a canonical byte serialization of the
  trace columns, the session columns, and the WMS log text.  Any change
  to the generator's output stream — intended or not — flips these.
* **Statistical measurement** — the calibrated Table 2 parameter vector
  (re-fitted from the generated trace exactly the way
  :func:`repro.core.calibrate.calibrate_model` fits a real log), each
  with a bootstrap confidence half-width, plus KS / Anderson-Darling
  distances of the raw marginals against the *model laws the workload
  was generated from*.  These survive legitimate RNG-stream refactors
  (where the hashes are expected to move and ``make conform-update``
  re-pins them) and are the gates that keep a re-pin honest.

Bootstrap half-widths use resamples capped at :data:`BOOT_CAP` points
with a ``sqrt(m/n)`` correction — all gated statistics are
root-n-consistent, so the subsampled interval rescales exactly, and the
paper-scale workload (~2.4 M transfers) fingerprints in seconds.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass

import numpy as np

from ..core.calibrate import calibrate_model
from ..core.gismo import GismoWorkload, LiveWorkloadGenerator
from ..core.model import LiveWorkloadModel
from ..core.sessionizer import Sessions, sessionize
from ..distributions.fitting import fit_lognormal, fit_zipf_pmf, fit_zipf_rank
from ..distributions.goodness import anderson_darling_distance, ks_distance
from ..rng import make_rng
from ..trace.store import Trace
from ..trace.wms_log import write_wms_log
from ..units import log_display_time
from .matrix import WorkloadSpec

#: Bootstrap replicates used for parameter confidence half-widths.
DEFAULT_N_BOOT = 200

#: Per-replicate resample cap (with sqrt(m/n) width correction).
BOOT_CAP = 50_000

#: The gated parameter names, in registry order.
GATED_PARAMETERS: tuple[str, ...] = (
    "interest_alpha",
    "transfers_alpha",
    "gap_log_mu",
    "gap_log_sigma",
    "length_log_mu",
    "length_log_sigma",
    "session_on_log_mu",
    "session_on_log_sigma",
)

#: The gated distributional distances, in registry order.
GATED_DISTANCES: tuple[str, ...] = (
    "length_ks",
    "length_ad",
    "gap_ks",
)


def hash_arrays(arrays: tuple[np.ndarray, ...]) -> str:
    """SHA-256 over a canonical serialization of ``arrays``.

    Each array contributes its dtype string, its shape, and its
    C-contiguous bytes, so the digest is invariant to memory layout but
    sensitive to every value, every dtype, and the column order.
    """
    digest = hashlib.sha256()
    for arr in arrays:
        a = np.ascontiguousarray(arr)
        digest.update(str(a.dtype).encode("ascii"))
        digest.update(str(a.shape).encode("ascii"))
        digest.update(a.tobytes())
    return digest.hexdigest()


def trace_fingerprint(trace: Trace) -> str:
    """Content hash of a trace's transfer table (+ extent)."""
    return hash_arrays((
        trace.client_index,
        trace.object_id,
        trace.start,
        trace.duration,
        trace.bandwidth_bps,
        np.asarray([trace.extent], dtype=np.float64),
    ))


def sessions_fingerprint(client_index: np.ndarray, start: np.ndarray,
                         end: np.ndarray, n_transfers: np.ndarray) -> str:
    """Content hash of the canonical ``(client, start, end, count)`` columns."""
    return hash_arrays((
        np.asarray(client_index, dtype=np.int64),
        np.asarray(start, dtype=np.float64),
        np.asarray(end, dtype=np.float64),
        np.asarray(n_transfers, dtype=np.int64),
    ))


def log_fingerprint_from_trace(trace: Trace) -> str:
    """Content hash of the WMS log the batch writer produces for ``trace``."""
    buffer = io.StringIO()
    write_wms_log(trace, buffer)
    return hashlib.sha256(buffer.getvalue().encode("ascii")).hexdigest()


@dataclass(frozen=True)
class WorkloadMeasurement:
    """Everything measured about one canonical workload.

    Attributes
    ----------
    spec:
        The canonical request measured.
    trace_sha256, sessions_sha256, log_sha256:
        Content hashes (bit-identity currency).
    n_transfers, n_sessions:
        Artifact sizes (cheap first-line diff when a hash moves).
    parameters:
        Calibrated Table 2 parameter vector (:data:`GATED_PARAMETERS`).
    ci_halfwidth:
        Bootstrap 95% confidence half-width per parameter.
    distances:
        KS / Anderson-Darling distances of the raw marginals against the
        generating model's laws (:data:`GATED_DISTANCES`).
    """

    spec: WorkloadSpec
    trace_sha256: str
    sessions_sha256: str
    log_sha256: str
    n_transfers: int
    n_sessions: int
    parameters: dict[str, float]
    ci_halfwidth: dict[str, float]
    distances: dict[str, float]


def _bootstrap_halfwidth(rng: np.random.Generator, sample: np.ndarray,
                         statistic, n_boot: int) -> tuple[float, ...]:
    """95% percentile-bootstrap half-widths of ``statistic(sample)``.

    ``statistic`` maps a resample to a tuple of floats; the return value
    has one half-width per component.  Resamples are capped at
    :data:`BOOT_CAP` draws and the interval is rescaled by ``sqrt(m/n)``.
    """
    n = sample.size
    m = min(n, BOOT_CAP)
    scale = float(np.sqrt(m / n))
    replicates = np.empty((n_boot, len(statistic(sample))), dtype=np.float64)
    for b in range(n_boot):
        resample = sample[rng.integers(0, n, size=m)]
        replicates[b] = statistic(resample)
    lo = np.percentile(replicates, 2.5, axis=0)
    hi = np.percentile(replicates, 97.5, axis=0)
    return tuple(float(h) * scale for h in (hi - lo) / 2.0)


def _safe_zipf_pmf_alpha(values: np.ndarray) -> float:
    """Zipf PMF exponent of a resample, NaN when the resample degenerates."""
    if np.unique(values).size < 2:
        return float("nan")
    return fit_zipf_pmf(values).alpha


def measure_workload(spec: WorkloadSpec, *,
                     model: LiveWorkloadModel | None = None,
                     n_boot: int = DEFAULT_N_BOOT,
                     workload: GismoWorkload | None = None
                     ) -> WorkloadMeasurement:
    """Generate ``spec``'s workload (batch path) and fingerprint it.

    Parameters
    ----------
    spec:
        The canonical request.  Distances are always computed against
        *this spec's* model laws, so a perturbed generation (see
        ``model``) is measured against the canonical yardstick.
    model:
        Generate from this model instead of ``spec.model()`` — the
        mutation self-check's hook.  Hashes and statistics then describe
        the perturbed workload.
    n_boot:
        Bootstrap replicates (0 disables; half-widths become 0.0).
    workload:
        Reuse an already generated workload (the differential oracle
        shares its reference generation with the fingerprint pass).
    """
    canonical_model = spec.model()
    generation_model = canonical_model if model is None else model
    if workload is None:
        workload = LiveWorkloadGenerator(generation_model).generate(
            spec.days, seed=spec.seed)
    trace = workload.trace
    sessions: Sessions = sessionize(trace)
    calibration = calibrate_model(trace, sessions=sessions,
                                  include_bandwidth=False)

    parameters = {
        "interest_alpha": float(calibration.interest_fit.alpha),
        "transfers_alpha": float(calibration.transfers_fit.alpha),
        "gap_log_mu": float(calibration.gap_fit.mu),
        "gap_log_sigma": float(calibration.gap_fit.sigma),
        "length_log_mu": float(calibration.length_fit.mu),
        "length_log_sigma": float(calibration.length_fit.sigma),
        "session_on_log_mu": float(calibration.session_on_fit.mu),
        "session_on_log_sigma": float(calibration.session_on_fit.sigma),
    }

    lengths = log_display_time(trace.duration)
    gaps = log_display_time(
        np.maximum(sessions.intra_session_interarrivals(), 0.0))
    on_times = log_display_time(sessions.on_times())
    tps = sessions.transfers_per_session
    per_client = sessions.sessions_per_client()
    interest_counts = per_client[per_client > 0]

    ci = {name: 0.0 for name in GATED_PARAMETERS}
    if n_boot:
        # One independent, spec-seeded stream per measurement run keeps
        # the half-widths (and therefore golden.json) reproducible.
        rng = make_rng(np.random.SeedSequence(
            entropy=(0xC04F0041, spec.seed)))

        def lognormal_stat(resample):
            fit = fit_lognormal(resample)
            return (fit.mu, fit.sigma)

        ci["length_log_mu"], ci["length_log_sigma"] = _bootstrap_halfwidth(
            rng, lengths, lognormal_stat, n_boot)
        ci["gap_log_mu"], ci["gap_log_sigma"] = _bootstrap_halfwidth(
            rng, gaps, lognormal_stat, n_boot)
        ci["session_on_log_mu"], ci["session_on_log_sigma"] = (
            _bootstrap_halfwidth(rng, on_times, lognormal_stat, n_boot))
        (alpha_hw,) = _bootstrap_halfwidth(
            rng, tps.astype(np.float64),
            lambda r: (_safe_zipf_pmf_alpha(r),), n_boot)
        ci["transfers_alpha"] = alpha_hw
        (interest_hw,) = _bootstrap_halfwidth(
            rng, interest_counts.astype(np.float64),
            lambda r: (fit_zipf_rank(r).alpha,), n_boot)
        ci["interest_alpha"] = interest_hw

    distances = {
        "length_ks": ks_distance(trace.duration,
                                 canonical_model.length_law()),
        "length_ad": anderson_darling_distance(
            trace.duration, canonical_model.length_law()),
        "gap_ks": ks_distance(
            sessions.intra_session_interarrivals(),
            canonical_model.gap_law()),
    }

    client, start, end, count = sessions.session_columns()
    return WorkloadMeasurement(
        spec=spec,
        trace_sha256=trace_fingerprint(trace),
        sessions_sha256=sessions_fingerprint(client, start, end, count),
        log_sha256=log_fingerprint_from_trace(trace),
        n_transfers=int(trace.n_transfers),
        n_sessions=int(sessions.n_sessions),
        parameters=parameters,
        ci_halfwidth=ci,
        distances={k: float(v) for k, v in distances.items()},
    )
