"""Unit tests for the columnar trace store."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace.store import TRANSFER_COLUMNS, ClientTable, Trace
from tests.conftest import build_trace


def simple_table(n=3):
    return ClientTable(
        player_ids=[f"p{i}" for i in range(n)],
        ips=[f"10.0.0.{i}" for i in range(n)],
        as_numbers=np.arange(1, n + 1),
        countries=["BR"] * n,
    )


class TestClientTable:
    def test_len(self):
        assert len(simple_table(5)) == 5

    def test_record_roundtrip(self):
        record = simple_table().record(1)
        assert record.player_id == "p1"
        assert record.ip == "10.0.0.1"
        assert record.as_number == 2

    def test_index_of(self):
        table = simple_table()
        assert table.index_of("p2") == 2
        with pytest.raises(KeyError):
            table.index_of("nobody")

    def test_distinct_counts(self):
        table = ClientTable(["a", "b", "c"], ["1.1.1.1", "1.1.1.1", "2.2.2.2"],
                            [1, 1, 0], ["BR", "BR", ""])
        assert table.n_distinct_ips() == 2
        assert table.n_distinct_ases() == 1   # AS 0 = unknown excluded
        assert table.n_distinct_countries() == 1

    def test_column_length_mismatch(self):
        with pytest.raises(TraceError):
            ClientTable(["a"], ["1.1.1.1", "2.2.2.2"], [1], ["BR"])


class TestTraceConstruction:
    def test_sorts_by_start(self):
        trace = build_trace([(0, 0, 50.0, 5.0), (0, 0, 10.0, 5.0)])
        assert trace.start.tolist() == [10.0, 50.0]

    def test_default_extent_is_latest_end(self):
        trace = build_trace([(0, 0, 0.0, 30.0), (0, 0, 10.0, 100.0)])
        assert trace.extent == 110.0

    def test_explicit_extent(self):
        trace = build_trace([(0, 0, 0.0, 5.0)], extent=100.0)
        assert trace.extent == 100.0

    def test_negative_duration_rejected(self):
        table = simple_table(1)
        with pytest.raises(TraceError):
            Trace(table, [0], [0], [0.0], [-1.0])

    @pytest.mark.parametrize(("start", "duration"), [
        ([0.0, 1.0], [np.nan, 2.0]),
        ([np.nan, 1.0], [1.0, 2.0]),
        ([0.0, 1.0], [1.0, np.inf]),
        ([0.0, -np.inf], [1.0, 2.0]),
    ], ids=["nan-duration", "nan-start", "inf-duration", "inf-start"])
    def test_non_finite_start_or_duration_rejected(self, start, duration):
        with pytest.raises(TraceError, match="finite"):
            Trace(simple_table(1), [0, 0], [0, 0], start, duration)

    def test_out_of_range_client_rejected(self):
        table = simple_table(1)
        with pytest.raises(TraceError):
            Trace(table, [5], [0], [0.0], [1.0])

    def test_column_length_mismatch_rejected(self):
        table = simple_table(1)
        with pytest.raises(TraceError):
            Trace(table, [0, 0], [0], [0.0], [1.0])

    def test_empty_trace(self):
        trace = Trace(simple_table(1), [], [], [], [])
        assert len(trace) == 0
        assert trace.n_objects == 0
        assert trace.bytes_served() == 0.0


class TestTraceAccessors:
    def test_record_materialization(self):
        trace = build_trace([(1, 2, 5.0, 10.0, 64_000.0)], n_clients=3)
        record = trace.record(0)
        assert record.client.player_id == "p0001"
        assert record.object_id == 2
        assert record.bytes_transferred == pytest.approx(10 * 64_000 / 8)

    def test_iteration(self):
        trace = build_trace([(0, 0, 0.0, 1.0), (1, 1, 2.0, 1.0)])
        records = list(trace)
        assert len(records) == 2
        assert records[1].object_id == 1

    def test_transfers_per_client(self):
        trace = build_trace([(0, 0, 0.0, 1.0), (0, 0, 5.0, 1.0),
                             (2, 0, 9.0, 1.0)], n_clients=4)
        assert trace.transfers_per_client().tolist() == [2, 0, 1, 0]

    def test_active_client_count(self):
        trace = build_trace([(0, 0, 0.0, 1.0), (2, 0, 5.0, 1.0)],
                            n_clients=10)
        assert trace.active_client_count() == 2

    def test_bytes_served(self):
        trace = build_trace([(0, 0, 0.0, 8.0, 1_000.0),
                             (0, 0, 10.0, 16.0, 2_000.0)])
        assert trace.bytes_served() == 1_000.0 + 4_000.0

    def test_end_property(self):
        trace = build_trace([(0, 0, 3.0, 4.0)])
        assert trace.end.tolist() == [7.0]


class TestBatchExport:
    def test_columns_views_not_copies(self):
        trace = build_trace([(0, 0, 0.0, 1.0), (1, 1, 2.0, 1.0)])
        cols = trace.columns()
        assert tuple(cols) == TRANSFER_COLUMNS
        for name, arr in cols.items():
            assert arr is getattr(trace, name)

    def test_to_rows_matches_record_iteration(self):
        trace = build_trace([(1, 2, 5.0, 10.0, 64_000.0),
                             (0, 0, 1.5, 3.25)], n_clients=3)
        rows = trace.to_rows()
        assert len(rows) == len(trace)
        for row, record in zip(rows, trace, strict=True):
            (client_index, object_id, start, duration, bandwidth,
             loss, cpu, status) = row
            assert trace.clients.record(client_index).player_id == \
                record.client.player_id
            assert object_id == record.object_id
            assert start == record.start
            assert duration == record.duration
            assert bandwidth == record.bandwidth_bps
            assert loss == record.packet_loss
            assert cpu == record.server_cpu
            assert status == record.status

    def test_to_rows_plain_python_scalars(self):
        trace = build_trace([(0, 0, 0.5, 1.0)])
        row = trace.to_rows()[0]
        assert type(row[0]) is int and type(row[2]) is float

    def test_to_rows_empty_trace(self):
        trace = build_trace([(0, 0, 0.0, 1.0)]).filter(
            np.zeros(1, dtype=bool))
        assert trace.to_rows() == []


class TestFilter:
    def test_filter_keeps_selected(self):
        trace = build_trace([(0, 0, 0.0, 1.0), (1, 1, 5.0, 2.0),
                             (0, 0, 9.0, 1.0)])
        subset = trace.filter(np.asarray([True, False, True]))
        assert len(subset) == 2
        assert subset.object_id.tolist() == [0, 0]
        assert subset.extent == trace.extent

    def test_filter_shares_client_table(self):
        trace = build_trace([(0, 0, 0.0, 1.0)])
        subset = trace.filter(np.asarray([True]))
        assert subset.clients is trace.clients

    def test_wrong_mask_length(self):
        trace = build_trace([(0, 0, 0.0, 1.0)])
        with pytest.raises(TraceError):
            trace.filter(np.asarray([True, False]))


class TestPersistence:
    def test_npz_roundtrip(self, tmp_path):
        trace = build_trace([(0, 0, 0.0, 5.0, 33_600.0),
                             (1, 1, 10.0, 3.0, 56_000.0)], extent=100.0)
        path = tmp_path / "trace.npz"
        trace.save_npz(path)
        loaded = Trace.load_npz(path)
        assert len(loaded) == 2
        assert loaded.extent == 100.0
        np.testing.assert_allclose(loaded.start, trace.start)
        np.testing.assert_allclose(loaded.bandwidth_bps, trace.bandwidth_bps)
        assert loaded.clients.player_ids.tolist() == \
            trace.clients.player_ids.tolist()
