"""Unit tests for the record types."""

import pytest

from repro.errors import TraceError
from repro.trace.records import ClientRecord, TransferRecord


def make_client(**overrides):
    fields = dict(player_id="p1", ip="10.0.0.1", as_number=7, country="BR")
    fields.update(overrides)
    return ClientRecord(**fields)


class TestClientRecord:
    def test_defaults(self):
        client = make_client()
        assert client.os_name == "Windows_98"

    def test_empty_player_id_rejected(self):
        with pytest.raises(ValueError):
            make_client(player_id="")

    def test_negative_as_rejected(self):
        with pytest.raises(ValueError):
            make_client(as_number=-1)

    def test_equality_by_value(self):
        assert make_client() == make_client()


class TestTransferRecord:
    def test_end_and_bytes(self):
        transfer = TransferRecord(client=make_client(), object_id=0,
                                  start=100.0, duration=60.0,
                                  bandwidth_bps=56_000.0)
        assert transfer.end == 160.0
        assert transfer.bytes_transferred == pytest.approx(60 * 56_000 / 8)

    @pytest.mark.parametrize("kwargs", [
        {"duration": -5.0},
        {"duration": float("nan")},
        {"start": float("inf")},
        {"start": 2.0**63},
        {"bandwidth_bps": 2.0**63},
        {"packet_loss": 1e15},
        {"server_cpu": float("-inf")},
    ])
    def test_invalid_rejected(self, kwargs):
        """A record obeys the entry rule of every trace door; the error
        names the refused column."""
        fields = dict(client=make_client(), object_id=0, start=0.0,
                      duration=1.0)
        fields.update(kwargs)
        (name,) = kwargs
        with pytest.raises(TraceError, match=f"transfer 0: {name} "):
            TransferRecord(**fields)

    @pytest.mark.parametrize("kwargs", [
        {"object_id": -1},
        {"start": -10.0},
        {"bandwidth_bps": -1.0},
        {"packet_loss": 1.5},
        {"packet_loss": -0.1},
        {"server_cpu": -0.0},
    ])
    def test_values_both_codecs_keep_are_admitted(self, kwargs):
        fields = dict(client=make_client(), object_id=0, start=0.0,
                      duration=1.0)
        fields.update(kwargs)
        TransferRecord(**fields)

    def test_zero_duration_allowed(self):
        # One-second log resolution produces zero-length measurements.
        transfer = TransferRecord(client=make_client(), object_id=0,
                                  start=5.0, duration=0.0)
        assert transfer.end == 5.0
