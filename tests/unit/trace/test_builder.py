"""Unit tests for TraceBuilder."""

import pytest

from repro.errors import TraceError
from repro.trace.builder import TraceBuilder
from repro.trace.records import ClientRecord


def client(pid="p1", **overrides):
    fields = dict(player_id=pid, ip="10.0.0.1", as_number=1, country="BR")
    fields.update(overrides)
    return ClientRecord(**fields)


class TestClientInterning:
    def test_same_player_same_index(self):
        builder = TraceBuilder()
        a = builder.add_client(client("x"))
        b = builder.add_client(client("x"))
        assert a == b
        assert builder.n_clients == 1

    def test_different_players_distinct(self):
        builder = TraceBuilder()
        assert builder.add_client(client("x")) != builder.add_client(client("y"))

    def test_conflicting_identity_rejected(self):
        builder = TraceBuilder()
        builder.add_client(client("x", ip="10.0.0.1"))
        with pytest.raises(TraceError):
            builder.add_client(client("x", ip="10.0.0.2"))


class TestTransfers:
    # Transfers are checked once, by the entry rule, when build()
    # constructs the trace.
    def test_unknown_client_rejected(self):
        builder = TraceBuilder()
        builder.add_transfer(0, 0, 0.0, 1.0)
        with pytest.raises(TraceError, match="transfer 0: client_index"):
            builder.build()

    def test_negative_duration_rejected(self):
        builder = TraceBuilder()
        idx = builder.add_client(client())
        builder.add_transfer(idx, 0, 0.0, -1.0)
        with pytest.raises(TraceError, match=r"transfer 0: duration outside"):
            builder.build()

    def test_counts(self):
        builder = TraceBuilder()
        idx = builder.add_client(client())
        builder.add_transfer(idx, 0, 0.0, 1.0)
        builder.add_transfer(idx, 1, 5.0, 2.0)
        assert builder.n_transfers == 2


class TestBuild:
    def test_build_sorts_and_preserves(self):
        builder = TraceBuilder()
        a = builder.add_client(client("a"))
        b = builder.add_client(client("b", ip="10.0.0.2"))
        builder.add_transfer(b, 1, 50.0, 2.0, bandwidth_bps=64_000.0)
        builder.add_transfer(a, 0, 10.0, 5.0)
        trace = builder.build(extent=100.0)
        assert trace.start.tolist() == [10.0, 50.0]
        assert trace.client_index.tolist() == [a, b]
        assert trace.bandwidth_bps.tolist() == [0.0, 64_000.0]
        assert trace.extent == 100.0

    def test_build_twice_rejected(self):
        builder = TraceBuilder()
        builder.add_client(client())
        builder.build()
        with pytest.raises(TraceError):
            builder.build()

    def test_empty_build(self):
        builder = TraceBuilder()
        builder.add_client(client())
        trace = builder.build()
        assert len(trace) == 0
        assert trace.n_clients == 1
