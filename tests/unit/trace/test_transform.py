"""Unit tests for trace windowing."""

import pytest

from repro.errors import TraceError
from repro.trace.transform import daily_slices, time_slice
from tests.conftest import build_trace


def sample_trace():
    return build_trace([
        (0, 0, 10.0, 20.0),
        (1, 0, 50.0, 100.0),   # runs past the 100 s slice edge
        (0, 1, 120.0, 10.0),
        (1, 1, 250.0, 5.0),
    ], n_clients=2, extent=300.0)


class TestTimeSlice:
    def test_selects_by_start(self):
        window = time_slice(sample_trace(), 0.0, 100.0)
        assert len(window) == 2

    def test_rebase(self):
        window = time_slice(sample_trace(), 100.0, 300.0)
        assert window.start.tolist() == [20.0, 150.0]
        assert window.extent == 200.0

    def test_no_rebase(self):
        window = time_slice(sample_trace(), 100.0, 300.0, rebase=False)
        assert window.start.tolist() == [120.0, 250.0]
        assert window.extent == 300.0

    def test_clipping_at_edge(self):
        window = time_slice(sample_trace(), 0.0, 100.0)
        # The 100 s transfer starting at 50 is clipped to end at 100.
        assert float(window.duration.max()) == 50.0

    def test_unclipped_spanning(self):
        window = time_slice(sample_trace(), 0.0, 100.0, clip=False)
        assert float(window.duration.max()) == 100.0

    def test_invalid_window(self):
        with pytest.raises(TraceError):
            time_slice(sample_trace(), 50.0, 50.0)
        with pytest.raises(TraceError):
            time_slice(sample_trace(), 0.0, 1_000.0)

    def test_client_table_shared(self):
        trace = sample_trace()
        window = time_slice(trace, 0.0, 100.0)
        assert window.clients is trace.clients


class TestDailySlices:
    def test_slice_count_and_extents(self):
        trace = build_trace([(0, 0, float(i) * 40_000.0, 10.0)
                             for i in range(5)], extent=200_000.0)
        slices = daily_slices(trace)
        assert len(slices) == 3  # 86400 + 86400 + 27200
        assert slices[0].extent == pytest.approx(86_400.0)
        assert slices[2].extent == pytest.approx(200_000.0 - 2 * 86_400.0)

    def test_events_partitioned(self):
        trace = sample_trace()
        slices = daily_slices(trace, day_seconds=100.0)
        assert sum(len(s) for s in slices) == len(trace)

    def test_invalid_day_length(self):
        with pytest.raises(TraceError):
            daily_slices(sample_trace(), day_seconds=0.0)
