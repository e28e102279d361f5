"""Pinned outputs of trace replay and the denial-rate planner.

Replay is exact, so its outputs are fixed values for a fixed workload:
counts, the admitted peak, the bit pattern of ``bytes_served`` and a
digest of the rejected request times.  The cases are seeded one-day
GISMO-live traces (no bandwidth column) at five admission limits, the
sanitized smoke trace (with bandwidths, so the byte total is a real
float sum) and two :func:`denial_rate_at` calls.
"""

import hashlib

import numpy as np
import pytest

from repro.core.gismo import LiveWorkloadGenerator
from repro.core.model import LiveWorkloadModel
from repro.core.planning import denial_rate_at
from repro.simulation.replay import demand_peak, provisioning_sweep, replay_trace

EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

#: seed -> [(limit, n_served, n_rejected, peak, rejected_times digest)]
#: for ``generate(1, seed)``; limits are None, 1, 3, peak // 2, peak.
SEEDED = {
    11: (1343, [
        (None, 1343, 0, 16, EMPTY),
        (1, 238, 1105, 1, "b5d12ef74efc6d34d0b6afe6ce5cbc34"
                          "c6546645cedec19fa3de16bce79bb25c"),
        (3, 681, 662, 3, "25d6b025663e68ced33c27b4ca00c893"
                         "1381934c901332b1b002687a92e7cf2e"),
        (8, 1197, 146, 8, "4c3a24d0eccd2f7961bc35317585d5b0"
                          "969b13d58aba8256dad6d666f7a0109b"),
        (16, 1343, 0, 16, EMPTY),
    ]),
    12: (1410, [
        (None, 1410, 0, 20, EMPTY),
        (1, 265, 1145, 1, "64661d07cb52d2199019821ddc458aff"
                          "1fa391c51d0c823cd110dae7830b1dcf"),
        (3, 687, 723, 3, "ec1b38b08d45cfc6014d2cb590b1015a"
                         "1e9d4caeacd04a4d5a2d5cff27e12607"),
        (10, 1319, 91, 10, "3fc9413330bff1f8bb07ecce526a8277"
                           "800db813d7e5dfedd255cd2e621a3952"),
        (20, 1410, 0, 20, EMPTY),
    ]),
    13: (1365, [
        (None, 1365, 0, 16, EMPTY),
        (1, 255, 1110, 1, "4d438c86994367aedacfb3551bf70920"
                          "21b48dc5f9cf5c3e9add4a2d6a7cd9c1"),
        (3, 675, 690, 3, "9bc672ff3c6b2347c650ea6f106e30b7"
                         "e217126455dfd25204b25ea21030dee1"),
        (8, 1231, 134, 8, "dad2fb9a0a52b4371baacbeb57d7da23"
                          "ab98aa0d55c8b9788e17f188266fb4e5"),
        (16, 1365, 0, 16, EMPTY),
    ]),
    14: (1235, [
        (None, 1235, 0, 20, EMPTY),
        (1, 258, 977, 1, "05ae0639ab66f633d23007b7b64454f4"
                         "50f9fff4475ec5fdd7e966a2b1e803b8"),
        (3, 690, 545, 3, "7adbf614ebd7a4c9f4c64554a4c988d9"
                         "219e0706943ff67108a2bb27cd30df0d"),
        (10, 1161, 74, 10, "7c567e7189f0dd6f0aaf6328efd0cbd1"
                           "d0b41e88939919cb934329b5db9a753e"),
        (20, 1235, 0, 20, EMPTY),
    ]),
}

#: The sanitized smoke trace (8113 transfers, demand peak 41):
#: (limit, n_served, n_rejected, peak, bytes_served hex, digest).
SMOKE = [
    (None, 8113, 0, 41, "0x1.4e5833b056172p+34", EMPTY),
    (1, 603, 7510, 1, "0x1.9f7a04f57c660p+30",
     "07b1ff684867db7a5789c5d34cdc5a5294acd0ea0892efbc241fea81b10944c6"),
    (10, 4993, 3120, 10, "0x1.bba1c43dd803bp+33",
     "1e134a0993864e1d40d6c7c3f0ba2388dfd6db41c49af5cf82c48657c09e57c7"),
    (20, 7417, 696, 20, "0x1.3badf5cd8cc3fp+34",
     "14eda1900612609af949209b09c6be3a46b10040b0aeae429397fe2631a8d9be"),
    (41, 8113, 0, 41, "0x1.4e5833b056172p+34", EMPTY),
]


def times_digest(times):
    return hashlib.sha256(
        np.asarray(times, dtype=np.float64).tobytes()).hexdigest()


def model():
    return LiveWorkloadModel.paper_defaults(mean_session_rate=0.01,
                                            n_clients=300)


def replay_at(trace, limits):
    """``(limit, result)`` pairs; ``None`` means no admission limit."""
    capped = [limit for limit in limits if limit is not None]
    out = dict(provisioning_sweep(trace, capped))
    out[None] = replay_trace(trace)
    return [(limit, out[limit]) for limit in limits]


def outcome(result):
    return (result.n_served, result.n_rejected, result.peak_concurrency,
            times_digest(result.rejected_times))


@pytest.mark.parametrize("seed", sorted(SEEDED))
def test_seeded_day_replays(seed):
    n_requests, expected = SEEDED[seed]
    trace = LiveWorkloadGenerator(model()).generate(1, seed=seed).trace
    peak = demand_peak(trace)
    limits = [None, 1, 3, peak // 2, peak]
    assert limits == [row[0] for row in expected]
    for (limit, result), row in zip(replay_at(trace, limits), expected,
                                    strict=True):
        assert result.n_requests == n_requests
        assert result.bytes_served.hex() == "0x0.0p+0"
        assert (limit, *outcome(result)) == row


def test_smoke_trace_replays(smoke_trace):
    peak = demand_peak(smoke_trace)
    limits = [None, 1, peak // 4, peak // 2, peak]
    assert limits == [row[0] for row in SMOKE]
    for (limit, result), row in zip(replay_at(smoke_trace, limits), SMOKE,
                                    strict=True):
        assert result.n_requests == smoke_trace.n_transfers == 8113
        served, rejected, peak_seen, digest = outcome(result)
        assert (limit, served, rejected, peak_seen,
                result.bytes_served.hex(), digest) == row


@pytest.mark.parametrize(("capacity", "seed", "expected"), [
    (2, 21, "0x1.46838d930a62cp-1"),
    (5, 22, "0x1.94a5294a5294ap-3"),
])
def test_denial_rate_at(capacity, seed, expected):
    rate = denial_rate_at(model(), capacity, days=1.0, seed=seed)
    assert rate.hex() == expected
