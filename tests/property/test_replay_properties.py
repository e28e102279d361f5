"""Property-based tests of trace replay under admission limits.

Starts and durations are drawn from a small integer grid, so exact
arrival/completion ties and zero-duration transfers are common.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.replay import demand_peak, provisioning_sweep, replay_trace
from tests.conftest import build_trace

rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=20),     # start
        st.integers(min_value=0, max_value=8),      # duration (0 allowed)
        st.integers(min_value=0, max_value=4_000),  # bandwidth
    ),
    min_size=1, max_size=40)


def trace_of(drawn):
    return build_trace([(0, 0, float(start), float(duration), float(bw))
                        for start, duration, bw in drawn])


class TestReplayProperties:
    @given(drawn=rows, limit=st.one_of(st.none(),
                                       st.integers(min_value=1, max_value=6)))
    @settings(max_examples=200, deadline=None)
    def test_every_request_accounted(self, drawn, limit):
        result = replay_trace(trace_of(drawn), max_concurrent=limit)
        assert result.n_requests == len(drawn)
        assert result.n_served + result.n_rejected == result.n_requests
        assert len(result.rejected_times) == result.n_rejected
        if limit is not None:
            assert result.peak_concurrency <= limit

    @given(drawn=rows)
    @settings(max_examples=200, deadline=None)
    def test_unlimited_peak_is_demand_peak(self, drawn):
        trace = trace_of(drawn)
        assert replay_trace(trace).peak_concurrency == demand_peak(trace)

    @given(drawn=rows)
    @settings(max_examples=100, deadline=None)
    def test_rejections_never_grow_with_the_limit(self, drawn):
        trace = trace_of(drawn)
        sweep = provisioning_sweep(trace, list(range(1, 8)))
        rejected = [result.n_rejected for _, result in sweep]
        assert rejected == sorted(rejected, reverse=True)
