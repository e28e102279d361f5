"""Shared fixtures for the test suite.

The expensive artifacts — a smoke-scale simulation and its derived trace,
sessionization, and characterization — are session-scoped so the whole
suite pays for them once.
"""

from __future__ import annotations

import pytest

from repro.core.characterize import characterize
from repro.core.sessionizer import sessionize
from repro.simulation.live_show import LiveShowScenario, ScenarioConfig
from repro.trace.builder import TraceBuilder
from repro.trace.records import ClientRecord
from repro.trace.sanitize import sanitize_trace

#: Seed used for every deterministic fixture.
FIXTURE_SEED = 42


def pytest_addoption(parser):
    parser.addoption(
        "--conform-scale", action="store", default="smoke",
        choices=("smoke", "paper"),
        help="canonical workload matrix for the conformance suite "
             "(smoke: small+medium, seconds; paper: adds the 28-day "
             "Table 2-scale workload)")


def pytest_collection_modifyitems(config, items):
    """Directory-based marker split.

    Everything under ``tests/property`` carries ``property`` and
    everything under ``tests/conform`` carries ``conform``, so the suite
    can be sliced with ``-m`` without per-file boilerplate (explicit
    ``slow`` marks are per-test).
    """
    for item in items:
        path = str(item.fspath)
        if "/tests/property/" in path:
            item.add_marker(pytest.mark.property)
        if "/tests/conform/" in path:
            item.add_marker(pytest.mark.conform)


@pytest.fixture(scope="session")
def smoke_result():
    """A small (2-day) simulated world with ground truth."""
    return LiveShowScenario(ScenarioConfig.smoke()).run(seed=FIXTURE_SEED)


@pytest.fixture(scope="session")
def smoke_trace(smoke_result):
    """The sanitized smoke trace."""
    trace, _ = sanitize_trace(smoke_result.trace)
    return trace


@pytest.fixture(scope="session")
def smoke_sessions(smoke_trace):
    """Sessionization of the smoke trace at the paper's timeout."""
    return sessionize(smoke_trace)


@pytest.fixture(scope="session")
def smoke_characterization(smoke_trace):
    """Full three-layer characterization of the smoke trace."""
    return characterize(smoke_trace)


def build_trace(transfers, *, n_clients=None, extent=None):
    """Build a small trace from ``(client, object, start, duration)`` rows.

    Optional fifth element: bandwidth in bits/second.
    """
    if n_clients is None:
        n_clients = max(row[0] for row in transfers) + 1
    builder = TraceBuilder()
    for i in range(n_clients):
        builder.add_client(ClientRecord(
            player_id=f"p{i:04d}", ip=f"10.0.{i // 256}.{i % 256}",
            as_number=i % 7 + 1, country="BR" if i % 3 else "US"))
    for row in transfers:
        client, obj, start, duration = row[:4]
        bandwidth = row[4] if len(row) > 4 else 56_000.0
        builder.add_transfer(client, obj, start, duration,
                             bandwidth_bps=bandwidth)
    return builder.build(extent=extent)


@pytest.fixture
def tiny_trace():
    """A hand-written trace with known sessionization structure.

    Client 0: transfers at [0, 100] and [120, 180] overlap into one burst,
    then a far-away burst at [5000, 5050] — two sessions at T_o = 1500.
    Client 1: one transfer [50, 2000] — one session.
    """
    return build_trace([
        (0, 0, 0.0, 100.0),
        (0, 1, 120.0, 60.0),
        (0, 0, 5000.0, 50.0),
        (1, 0, 50.0, 1950.0),
    ], n_clients=2, extent=10_000.0)
