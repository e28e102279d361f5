"""Unit tests for repro.cdn.report: leg accounting and origin fan-out."""

import numpy as np
import pytest

from repro.analysis.concurrency import merged_group_intervals
from repro.cdn import CdnTopology, LegSet, simulate_cdn
from repro.cdn.report import build_result
from repro.errors import CdnError
from repro.rng import make_rng
from repro.trace.builder import TraceBuilder
from repro.trace.records import ClientRecord


def _legs(**overrides):
    base = {
        "transfer": np.asarray([0, 1], dtype=np.int64),
        "start": np.asarray([0.0, 5.0]),
        "end": np.asarray([10.0, 5.0]),
        "edge": np.asarray([0, 1], dtype=np.int64),
        "rate": np.asarray([100, 100], dtype=np.int64),
        "admitted": np.asarray([True, False]),
        "failover": np.asarray([False, False]),
    }
    base.update(overrides)
    return LegSet(**base)


def _feed_trace(transfers):
    """Build a trace of (client, feed, start, duration) tuples."""
    builder = TraceBuilder()
    clients = {}
    for client, feed, start, duration in transfers:
        if client not in clients:
            clients[client] = builder.add_client(ClientRecord(
                player_id=f"p{client}", ip=f"10.0.0.{client}",
                as_number=0, country="", os_name=""))
        builder.add_transfer(clients[client], feed, start, duration,
                             bandwidth_bps=100.0)
    return builder.build()


class TestLegSet:
    def test_mismatched_columns_rejected(self):
        with pytest.raises(CdnError, match="leg column"):
            _legs(rate=np.asarray([100], dtype=np.int64))

    def test_concatenate_empty_and_parts(self):
        empty = LegSet.concatenate([])
        assert empty.n_legs == 0
        both = LegSet.concatenate([_legs(), _legs()])
        assert both.n_legs == 4

    def test_rejected_legs_have_zero_extent(self):
        legs = _legs()
        rejected = ~legs.admitted
        assert np.all(legs.end[rejected] == legs.start[rejected])


class TestMergedFeedIntervals:
    def test_overlapping_legs_merge(self):
        group = np.asarray([0, 0, 0], dtype=np.int64)
        start = np.asarray([0.0, 5.0, 30.0])
        end = np.asarray([10.0, 20.0, 40.0])
        merged_s, merged_e = merged_group_intervals(group, start, end)
        assert merged_s.tolist() == [0.0, 30.0]
        assert merged_e.tolist() == [20.0, 40.0]

    def test_back_to_back_legs_coalesce(self):
        # One viewer leaves exactly as another joins: the origin stream
        # never stops.
        group = np.asarray([0, 0], dtype=np.int64)
        start = np.asarray([0.0, 10.0])
        end = np.asarray([10.0, 20.0])
        merged_s, merged_e = merged_group_intervals(group, start, end)
        assert merged_s.tolist() == [0.0]
        assert merged_e.tolist() == [20.0]

    def test_groups_do_not_interact(self):
        group = np.asarray([0, 1], dtype=np.int64)
        start = np.asarray([0.0, 5.0])
        end = np.asarray([10.0, 15.0])
        merged_s, _ = merged_group_intervals(group, start, end)
        assert merged_s.size == 2

    def test_zero_length_legs_ignored(self):
        group = np.asarray([0], dtype=np.int64)
        merged_s, merged_e = merged_group_intervals(
            group, np.asarray([5.0]), np.asarray([5.0]))
        assert merged_s.size == 0 and merged_e.size == 0


def brute_force_union(group, start, end):
    """Per-group union of ``[start, end)`` legs; touching legs merge."""
    out = []
    for g in sorted(set(group.tolist())):
        legs = sorted((s, e) for gg, s, e in zip(
            group.tolist(), start.tolist(), end.tolist(), strict=True)
            if gg == g and e > s)
        merged = []
        for s, e in legs:
            if merged and s <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], e)
            else:
                merged.append([s, e])
        out.extend(merged)
    return ([s for s, _ in out], [e for _, e in out])


class TestMergedFeedIntervalsAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_groups(self, seed):
        rng = make_rng(1600 + seed)
        for n in (1, 3, 20, 300):
            group = rng.integers(0, 6, n).astype(np.int64) * 7
            start = rng.integers(0, 50, n).astype(np.float64)
            # Whole-second lengths, some zero: many legs touch exactly.
            end = start + rng.integers(0, 6, n)
            merged_s, merged_e = merged_group_intervals(group, start, end)
            expected_s, expected_e = brute_force_union(group, start, end)
            assert merged_s.tolist() == expected_s
            assert merged_e.tolist() == expected_e

    def test_touching_legs_coalesce_across_a_chain(self):
        group = np.asarray([3, 3, 3, 1, 3], dtype=np.int64)
        start = np.asarray([20.0, 0.0, 10.0, 0.0, 40.0])
        end = np.asarray([30.0, 10.0, 20.0, 5.0, 40.0])
        merged_s, merged_e = merged_group_intervals(group, start, end)
        # Group 1 first, then group 3's chain; the zero-length leg at
        # 40 is dropped.
        assert merged_s.tolist() == [0.0, 0.0]
        assert merged_e.tolist() == [5.0, 30.0]

    def test_contained_leg_does_not_close_the_stream(self):
        group = np.zeros(3, dtype=np.int64)
        start = np.asarray([0.0, 1.0, 5.0])
        end = np.asarray([10.0, 2.0, 12.0])
        merged_s, merged_e = merged_group_intervals(group, start, end)
        assert merged_s.tolist() == [0.0]
        assert merged_e.tolist() == [12.0]


class TestOriginFanOut:
    def test_one_stream_per_edge_feed_pair(self):
        # Four viewers of one feed on one edge at once: one origin
        # stream, not four.
        trace = _feed_trace([(c, 0, 0.0, 100.0) for c in range(4)])
        result = simulate_cdn(trace, CdnTopology.uniform(1))
        assert result.origin.peak_streams == 1
        assert result.origin.peak_egress_bps == \
            result.topology.origin_stream_bps

    def test_streams_scale_with_feeds_not_viewers(self):
        transfers = [(c, f, 0.0, 100.0)
                     for f in range(3) for c in range(5)]
        trace = _feed_trace(transfers)
        result = simulate_cdn(trace, CdnTopology.uniform(1))
        assert result.origin.peak_streams == 3

    def test_fanout_bounded_by_edges_times_feeds(self):
        transfers = [(c, f, 0.0, 100.0)
                     for f in range(2) for c in range(20)]
        trace = _feed_trace(transfers)
        result = simulate_cdn(trace, CdnTopology.uniform(4),
                              policy="sticky")
        assert result.origin.peak_streams <= 4 * 2


class TestBuildResult:
    def test_to_dict_shape(self):
        trace = _feed_trace([(0, 0, 0.0, 50.0), (1, 0, 10.0, 50.0)])
        result = simulate_cdn(trace, CdnTopology.uniform(2))
        doc = result.to_dict()
        assert doc["n_transfers"] == 2
        assert len(doc["edges"]) == 2
        assert "sampled_concurrency" not in doc["edges"][0]
        with_samples = result.to_dict(include_samples=True)
        assert "sampled_concurrency" in with_samples["edges"][0]

    def test_bytes_served_accounts_admitted_legs_only(self):
        legs = _legs()
        trace = _feed_trace([(0, 0, 0.0, 10.0), (1, 0, 5.0, 0.0)])
        result = build_result(trace, CdnTopology.uniform(2), "sticky",
                              legs)
        # Only the admitted 10-second 100 bps leg serves bytes.
        assert sum(e.bytes_served for e in result.edges) == \
            10.0 * 100.0 / 8.0

    def test_rejection_rate_zero_when_idle(self):
        trace = _feed_trace([(0, 0, 0.0, 1.0)])
        result = simulate_cdn(trace, CdnTopology.uniform(2))
        for edge in result.edges:
            if edge.n_requests == 0:
                assert edge.rejection_rate == 0.0
