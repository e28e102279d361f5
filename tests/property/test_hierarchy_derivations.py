"""The hierarchy stage's derived orders and distinct sets, against the
formulations they replaced.

Each ``_reference_*`` function below is the earlier body, kept here as the
oracle: ``ks_distance`` evaluating the model CDF at every sorted value,
``summarize_trace`` finding the active clients with ``np.unique``,
``arrival_times`` gathering through a stable argsort, and ``n_objects``
as ``np.unique(...).size``.  The current code must agree to the bit.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.characterize import TraceSummary, summarize_trace
from repro.core.sessionizer import sessionize
from repro.distributions import (
    ExponentialDistribution,
    LognormalDistribution,
    ParetoDistribution,
)
from repro.distributions.goodness import ks_distance
from repro.errors import FittingError
from repro.trace.store import ClientTable, Trace
from repro.units import DAY, log_display_time


def _reference_ks_distance(values, dist):
    arr = np.asarray(values, dtype=np.float64)
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        raise FittingError("ks_distance requires a non-empty sample")
    srt = np.sort(arr)
    n = srt.size
    model = np.asarray(dist.cdf(srt), dtype=np.float64)
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    return float(max(np.max(np.abs(ecdf_hi - model)),
                     np.max(np.abs(model - ecdf_lo))))


def _reference_summarize_trace(trace, sessions):
    active = np.unique(trace.client_index)
    clients = trace.clients
    active_ases = clients.as_numbers[active]
    active_ips = clients.ips[active]
    return TraceSummary(
        days=trace.extent / DAY,
        n_objects=int(np.unique(trace.object_id).size) if len(trace) else 0,
        n_ases=int(np.unique(active_ases[active_ases > 0]).size),
        n_ips=int(np.unique(active_ips).size),
        n_users=int(active.size),
        n_sessions=sessions.n_sessions,
        n_transfers=len(trace),
        bytes_served=trace.bytes_served(),
    )


def _same_float(a, b):
    return a.hex() == b.hex() or (a != a and b != b)


# -- ks_distance ---------------------------------------------------------
#: A small pool, so samples are mostly ties; zeros of both signs and the
#: values ``ks_distance`` drops are in it.
_POOL = [0.0, -0.0, 1.0, 2.0, 3.0, 17.0, 1e-300, 5e-324, 1e300, -4.0,
         np.inf, -np.inf, np.nan]

pool_samples = st.lists(st.sampled_from(_POOL), min_size=1, max_size=300)
lattice_samples = st.lists(
    st.floats(min_value=0.0, max_value=5_000.0, allow_nan=False),
    min_size=1, max_size=400).map(
        lambda v: log_display_time(np.asarray(v, dtype=np.float64)))
wide_samples = st.lists(st.floats(allow_nan=True, allow_infinity=True),
                        min_size=1, max_size=200)

models = st.one_of(
    st.builds(LognormalDistribution,
              st.floats(min_value=-3.0, max_value=8.0),
              st.floats(min_value=0.05, max_value=3.0)),
    st.builds(ExponentialDistribution,
              st.floats(min_value=1e-3, max_value=1e7)),
    st.builds(ParetoDistribution,
              st.floats(min_value=0.1, max_value=4.0),
              st.floats(min_value=0.5, max_value=50.0)),
)


@given(values=st.one_of(pool_samples, lattice_samples, wide_samples),
       dist=models)
@settings(max_examples=400, deadline=None)
def test_ks_distance_matches_per_element_body(values, dist):
    values = np.asarray(values, dtype=np.float64)
    assume(np.isfinite(values).any())
    assert _same_float(ks_distance(values, dist),
                       _reference_ks_distance(values, dist))


@given(value=st.floats(allow_nan=False, allow_infinity=False),
       n=st.integers(min_value=1, max_value=500), dist=models)
@settings(max_examples=200, deadline=None)
def test_ks_distance_on_an_all_equal_sample(value, n, dist):
    values = np.full(n, value)
    assert _same_float(ks_distance(values, dist),
                       _reference_ks_distance(values, dist))


def test_ks_distance_of_only_non_finite_values_is_refused():
    for values in ([np.nan], [np.inf, -np.inf, np.nan]):
        for ks in (ks_distance, _reference_ks_distance):
            try:
                ks(values, ExponentialDistribution(1.0))
            except FittingError:
                continue
            raise AssertionError(f"{ks.__name__} accepted {values}")


# -- traces --------------------------------------------------------------
#: Starts include both zeros, so a stable order is observable in bytes.
starts = st.sampled_from([0.0, -0.0, 0.5, 3.0, 1_000.0, 2_000.0, 4_500.0])
rows = st.lists(
    st.tuples(st.integers(min_value=0, max_value=7), starts,
              st.sampled_from([0.0, 1.0, 30.0, 2_000.0])),
    min_size=0, max_size=60)
object_ids = st.one_of(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=-(2 ** 62), max_value=2 ** 62))


def _trace(rows, objects, n_clients):
    clients = ClientTable(
        player_ids=[f"p{k}" for k in range(n_clients)],
        ips=[f"10.0.0.{k % 3}" for k in range(n_clients)],
        as_numbers=[k % 4 for k in range(n_clients)],
        countries=["US"] * n_clients)
    return Trace(clients, [r[0] for r in rows], objects,
                 [r[1] for r in rows], [r[2] for r in rows])


@given(rows=rows, n_clients=st.integers(min_value=8, max_value=12),
       data=st.data())
@settings(max_examples=200, deadline=None)
def test_summary_and_arrivals_match_the_sorting_formulations(rows, n_clients,
                                                             data):
    objects = data.draw(st.lists(object_ids, min_size=len(rows),
                                 max_size=len(rows)))
    trace = _trace(rows, objects, n_clients)
    sessions = sessionize(trace)

    assert summarize_trace(trace, sessions) == \
        _reference_summarize_trace(trace, sessions)
    assert np.array_equal(np.flatnonzero(trace.transfers_per_client()),
                          np.unique(trace.client_index))

    arrivals = sessions.arrival_times()
    want = sessions.session_start[np.argsort(sessions.session_start,
                                             kind="stable")]
    assert arrivals.dtype == want.dtype
    assert arrivals.tobytes() == want.tobytes()
    assert sessions.arrival_times() is arrivals


@given(ids=st.lists(object_ids, min_size=0, max_size=80))
@settings(max_examples=300, deadline=None)
def test_n_objects_matches_unique(ids):
    rows = [(0, float(k), 1.0) for k in range(len(ids))]
    trace = _trace(rows, ids, 1)
    want = int(np.unique(trace.object_id).size) if ids else 0
    assert trace.n_objects == want


def test_n_objects_on_sparse_ids_at_the_int64_edge():
    ids = [2 ** 62, -(2 ** 62), 2 ** 62, 0, 2 ** 62 - 1, -(2 ** 62)]
    trace = _trace([(0, float(k), 1.0) for k in range(len(ids))], ids, 1)
    assert trace.n_objects == int(np.unique(ids).size) == 4
