"""Property-based tests of trace windowing and CSV round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.csvio import read_csv, write_csv
from repro.trace.transform import daily_slices, time_slice
from tests.conftest import build_trace

finite = dict(allow_nan=False, allow_infinity=False)

transfer_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=1),
        st.floats(min_value=0.0, max_value=999.0, **finite),
        st.floats(min_value=0.0, max_value=400.0, **finite),
        st.floats(min_value=1_000.0, max_value=1e6, **finite),
    ),
    min_size=1, max_size=25)


@given(transfers=transfer_lists,
       day=st.floats(min_value=50.0, max_value=400.0, **finite))
@settings(max_examples=80, deadline=None)
def test_daily_slices_partition_the_trace(transfers, day):
    trace = build_trace(transfers, n_clients=4, extent=1_000.0)
    slices = daily_slices(trace, day_seconds=day)
    offsets = np.cumsum([0.0] + [s.extent for s in slices[:-1]])

    assert sum(s.extent for s in slices) == pytest.approx(trace.extent)
    start = np.concatenate([s.start + o for s, o in zip(slices, offsets)])
    np.testing.assert_allclose(np.sort(start), np.sort(trace.start),
                               rtol=0, atol=1e-9)
    # Per-client activity is preserved: the slices share the client table.
    np.testing.assert_array_equal(
        sum(s.transfers_per_client() for s in slices),
        trace.transfers_per_client())


@given(transfers=transfer_lists,
       lo=st.floats(min_value=0.0, max_value=500.0, **finite),
       width=st.floats(min_value=1.0, max_value=500.0, **finite))
@settings(max_examples=80, deadline=None)
def test_slice_bounds_and_clipping(transfers, lo, width):
    trace = build_trace(transfers, n_clients=4, extent=1_000.0)
    window = time_slice(trace, lo, lo + width)
    assert window.extent == pytest.approx(width)
    if len(window):
        assert window.start.min() >= 0
        assert window.start.max() < width
        assert float(window.end.max()) <= width + 1e-9


@given(transfers=transfer_lists)
@settings(max_examples=60, deadline=None)
def test_csv_round_trip_exact(transfers, tmp_path_factory):
    trace = build_trace(transfers, n_clients=4, extent=2_000.0)
    directory = tmp_path_factory.mktemp("csv")
    t_path = directory / "t.csv"
    c_path = directory / "c.csv"
    write_csv(trace, t_path, c_path)
    loaded = read_csv(t_path, c_path)
    np.testing.assert_array_equal(loaded.start, trace.start)
    np.testing.assert_array_equal(loaded.duration, trace.duration)
    np.testing.assert_array_equal(loaded.client_index, trace.client_index)
    np.testing.assert_array_equal(loaded.bandwidth_bps, trace.bandwidth_bps)
    assert loaded.extent == trace.extent
