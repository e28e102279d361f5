"""Pinned outputs of the batch sessionizer on seeded traces.

The session columns, the intra-session interarrivals (Section 4.5) and
the Figure 9 timeout sweep are exact functions of the trace, so their
digests pin the silence-gap rule and the client grouping behind them.
The traces span the three widths of the client key the grouping sorts
on (at most 256, at most 65,536 and more clients).
"""

import numpy as np
import pytest

from repro.core.model import LiveWorkloadModel
from repro.core.sessionizer import session_count_for_timeouts, sessionize
from repro.parallel import generate_sharded
from tests.unit.trace.test_pinned_binary_outputs import digest

#: name -> (seed, mean session rate, clients, days).
TRACES = {
    "narrow": (20260808, 0.05, 120, 1.0),
    "medium": (4242, 0.2, 3000, 1.0),
    "wide": (777, 0.2, 70000, 0.5),
}

TIMEOUTS = np.array([1.0, 60.0, 300.0, 1500.0, 3600.0, 86400.0])

#: (name, timeout) -> (session columns digest, interarrivals digest).
SESSIONS = {
    ("medium", 60.0): (
        "2d2f96308e793e4737bc6c6496ed7487631892fa185e9f02aa45187210cb2f4a",
        "5e2c6ff1d3081122e7cf6f7b05448dc9fdb7c0c125538dd32c8dcacdf1c85085"),
    ("medium", 1500.0): (
        "356c2e4558459fe6551c79cfaa0a264374781ed8b2867c48d3e375d955519126",
        "823543ea70f7a692f48f4273b4df296287ed14a03a0ebdecd53d68e80e39ff09"),
    ("narrow", 60.0): (
        "8e7c98f3570d929ec0e945279fd30deff120939ae535009c09a61de72b7c80bb",
        "34d1caf5752beb3da679a2a48a89b7c492c1c0f2a792587dc69371614c6a19e4"),
    ("narrow", 1500.0): (
        "359daed84336b91e9633b4352d4828fe19eb089c3f7ca3f4ce133c722088d0c6",
        "810343c673276ec99b2ebde798a7a923f22e0c8cb7d7c2a23ef080742b7e98d1"),
    ("wide", 60.0): (
        "4d96db722fb3cb3ba83e788038146a39f123b586c128273d3332df191d6a57bc",
        "2f3074c24d84824547d534d26c1fab51e1f5a20bb948b52312f429a1c109f874"),
    ("wide", 1500.0): (
        "db731bed05bcfe54dd92892af6efa5286f01130cf3b2cb9a142f673d14e191ce",
        "f04f5583b8a69e5c197f925f17f6fd8d93f5a326ac83b8b32c77713daaffa31d"),
}

#: name -> session counts at TIMEOUTS.
COUNTS = {
    "medium": [21267, 19819, 17130, 13597, 10975, 2967],
    "narrow": [4307, 3884, 2958, 1492, 717, 120],
    "wide": [5375, 5072, 4530, 4169, 4106, 3936],
}


@pytest.fixture(scope="module")
def traces():
    out = {}
    for name, (seed, rate, clients, days) in TRACES.items():
        model = LiveWorkloadModel.paper_defaults(mean_session_rate=rate,
                                                 n_clients=clients)
        out[name] = generate_sharded(model, days, seed=seed).trace
    return out


@pytest.mark.parametrize(("name", "timeout"), sorted(SESSIONS))
def test_sessionize(traces, name, timeout):
    sessions = sessionize(traces[name], timeout=timeout)
    assert (digest(sessions.session_columns()),
            digest(sessions.intra_session_interarrivals())) == (
        SESSIONS[name, timeout])


@pytest.mark.parametrize("name", sorted(TRACES))
def test_session_count_for_timeouts(traces, name):
    counts = session_count_for_timeouts(traces[name], TIMEOUTS)
    assert counts.tolist() == COUNTS[name]
