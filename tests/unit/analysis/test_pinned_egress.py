"""Pinned outputs of the egress models and of the audience simulator's CPU.

The relay-placement curve and the unicast/multicast comparison reduce
integer interval counts, so every field they report is a fixed float for
a fixed trace.  The digests cover ``float.hex`` of every field, on both
experiment contexts and on the smoke trace, plus the ``server_cpu``
column of two smoke simulations and the rendered text of every
experiment (``repro experiments --out``).  Any drift in a count, a rank,
a mean or a peak changes a digest.
"""

import dataclasses
import hashlib

import pytest

from repro import LiveShowScenario, ScenarioConfig
from repro.analysis.cdn import relay_placement_curve
from repro.analysis.multicast import compare_unicast_multicast
from repro.cli import main
from repro.experiments import get_context
from repro.experiments.ext_cdn import RELAY_COUNTS


def hex_digest(values):
    """sha256 over ``float.hex`` of each value, one per line."""
    text = "\n".join(float(v).hex() for v in values)
    return hashlib.sha256(text.encode()).hexdigest()


def relay_fields(curve):
    for placement in curve:
        yield placement.n_relays
        yield len(placement.relay_ases)
        yield from placement.relay_ases
        yield placement.origin_mean_bps
        yield placement.origin_peak_bps
        yield placement.direct_mean_bps


def multicast_fields(comparison):
    return dataclasses.astuple(comparison)


@pytest.fixture(params=["default", "paper-rate", "smoke"])
def egress_trace(request):
    if request.param == "smoke":
        return request.param, request.getfixturevalue("smoke_trace")
    return request.param, get_context(request.param).trace


RELAY_DIGESTS = {
    "default":
        "f749bc10be60e46d63f36f57af49b48b59d2169feb5a404ce88d8136456a4f19",
    "paper-rate":
        "2b1ef29636e043a4b733dcb50f4bb13a66f2b9719ab767508b85e85909958d75",
    "smoke":
        "8d16a54a86ecc0eef887e98d3f3f3755509dcb3428abda659047049003dc3d15",
}

MULTICAST_DIGESTS = {
    "default":
        "5c189e1838102fff1a5b95de030ac827114cec992079177bfc1cf016fdb8d3ba",
    "paper-rate":
        "fdb085227b96fd043af494c5283926807c42e1d9c192007a4f92a9718bda3327",
    "smoke":
        "c9fea2b3cad6c412b6a751c16be4aa4f8db471e5f2160500a530b93b7d3fce0e",
}


def test_relay_placement_curve(egress_trace):
    name, trace = egress_trace
    curve = relay_placement_curve(trace, RELAY_COUNTS)
    assert hex_digest(relay_fields(curve)) == RELAY_DIGESTS[name]


def test_unicast_multicast_comparison(egress_trace):
    name, trace = egress_trace
    comparison = compare_unicast_multicast(trace)
    assert hex_digest(multicast_fields(comparison)) == MULTICAST_DIGESTS[name]


@pytest.mark.parametrize("seed, expected", [
    (42, "ac026d37ac183e3f0a864ce9273f785fed5e01b25536d031d6c56a83a131bb8d"),
    (7, "a4120d79bdd9fc956b4212c337568963b53d6676c59bbf46a0bfb58a3a3ab8b4"),
])
def test_simulated_server_cpu(seed, expected):
    result = LiveShowScenario(ScenarioConfig.smoke()).run(seed)
    assert hex_digest(result.trace.server_cpu) == expected


def test_rendered_experiments(tmp_path, capsys):
    out = tmp_path / "experiments.txt"
    assert main(["experiments", "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "2a986cc4c9bea0ef6c2177d78ddeb5b91e42c73bbee250fb42908f86eee1f7ca")
