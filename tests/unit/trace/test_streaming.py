"""Unit tests for the one-pass streaming characterizer.

The acceptance criterion is agreement with the batch pipeline on the same
log: the streaming statistics must equal (or converge to) what
sanitize-then-characterize computes from the materialized trace.
"""

import io

import numpy as np
import pytest

from repro.distributions.fitting import fit_lognormal
from repro.errors import LogParseError
from repro.trace.streaming import StreamingCharacterizer
from repro.trace.wms_log import read_wms_log, write_wms_log
from repro.units import DAY, log_display_time



@pytest.fixture(scope="module")
def log_text(smoke_result):
    buffer = io.StringIO()
    write_wms_log(smoke_result.trace, buffer)
    return buffer.getvalue()


@pytest.fixture(scope="module")
def streamed(log_text):
    characterizer = StreamingCharacterizer()
    characterizer.consume(io.StringIO(log_text))
    return characterizer


class TestAgreementWithBatch:
    def test_entry_and_client_counts(self, streamed, log_text):
        batch = read_wms_log(io.StringIO(log_text))
        summary = streamed.summary()
        assert summary.n_entries == batch.n_transfers
        assert summary.n_clients == batch.active_client_count()
        assert summary.n_skipped == 0

    def test_length_fit_matches_batch(self, streamed, log_text):
        batch = read_wms_log(io.StringIO(log_text))
        fit = fit_lognormal(log_display_time(batch.duration))
        summary = streamed.summary()
        assert summary.length_log_mu == fit.mu
        assert summary.length_log_sigma == fit.sigma

    def test_bytes_served_matches_batch(self, streamed, log_text):
        batch = read_wms_log(io.StringIO(log_text))
        summary = streamed.summary()
        assert summary.bytes_served == batch.bytes_served()

    def test_feed_counts_match(self, streamed, log_text):
        batch = read_wms_log(io.StringIO(log_text))
        expected = {int(k): int(v) for k, v in
                    zip(*np.unique(batch.object_id, return_counts=True),
                        strict=True)}
        assert streamed.summary().feed_counts == expected

    def test_interest_profile_matches(self, streamed, log_text):
        batch = read_wms_log(io.StringIO(log_text))
        counts = batch.transfers_per_client()
        streaming_counts = sorted(streamed.client_counts().values(),
                                  reverse=True)
        batch_counts = sorted(counts[counts > 0].tolist(), reverse=True)
        assert streaming_counts == batch_counts

    def test_diurnal_counts_match_start_histogram(self, streamed, log_text):
        batch = read_wms_log(io.StringIO(log_text))
        phase = np.mod(batch.start, DAY)
        expected, _ = np.histogram(phase, bins=96, range=(0.0, DAY))
        np.testing.assert_array_equal(streamed.summary().diurnal_counts,
                                      expected.astype(float))


class TestIncrementalBehaviour:
    def test_multiple_harvests_accumulate(self, log_text):
        characterizer = StreamingCharacterizer()
        a = characterizer.consume(io.StringIO(log_text))
        b = characterizer.consume(io.StringIO(log_text))
        assert a == b
        assert characterizer.summary().n_entries == 2 * a

    def test_malformed_lines_skipped_and_counted(self, log_text):
        corrupted = log_text + "totally broken line\n1 2 3\n"
        characterizer = StreamingCharacterizer()
        characterizer.consume(io.StringIO(corrupted))
        assert characterizer.summary().n_skipped == 2

    def test_missing_header_raises(self):
        with pytest.raises(LogParseError):
            StreamingCharacterizer().consume(io.StringIO("1 2 3\n"))

    def test_file_path_input(self, tmp_path, log_text):
        path = tmp_path / "harvest.log"
        path.write_text(log_text)
        characterizer = StreamingCharacterizer()
        parsed = characterizer.consume(path)
        assert parsed > 0


class TestMerge:
    def _split_text(self, log_text):
        """Split the log body in two, replicating the header on each half."""
        lines = log_text.splitlines(keepends=True)
        header = [line for line in lines if line.startswith("#")]
        body = [line for line in lines if not line.startswith("#")]
        cut = len(body) // 2
        return ("".join(header + body[:cut]),
                "".join(header + body[cut:]))

    def test_merge_equals_single_pass(self, log_text):
        first_half, second_half = self._split_text(log_text)
        whole = StreamingCharacterizer()
        whole.consume(io.StringIO(log_text))
        expected = whole.summary()

        a = StreamingCharacterizer()
        a.consume(io.StringIO(first_half))
        b = StreamingCharacterizer()
        b.consume(io.StringIO(second_half))
        merged = a.merge(b).summary()

        # Exact, not approximate: the merge contract is bit-identical.
        assert merged.n_entries == expected.n_entries
        assert merged.n_clients == expected.n_clients
        assert merged.length_log_mu == expected.length_log_mu
        assert merged.length_log_sigma == expected.length_log_sigma
        assert merged.bytes_served == expected.bytes_served
        assert merged.feed_counts == expected.feed_counts
        assert merged.congestion_bound_fraction == \
            expected.congestion_bound_fraction
        np.testing.assert_array_equal(merged.diurnal_counts,
                                      expected.diurnal_counts)
        np.testing.assert_array_equal(merged.bandwidth_histogram,
                                      expected.bandwidth_histogram)

    def test_merge_returns_self(self):
        a = StreamingCharacterizer()
        assert a.merge(StreamingCharacterizer()) is a

    def test_merge_empty_into_empty(self):
        merged = StreamingCharacterizer().merge(StreamingCharacterizer())
        assert merged.summary().n_entries == 0

    def test_merge_rejects_mismatched_diurnal_bins(self):
        with pytest.raises(ValueError):
            StreamingCharacterizer(diurnal_bins=96).merge(
                StreamingCharacterizer(diurnal_bins=48))

    def test_merge_rejects_mismatched_bandwidth_edges(self):
        with pytest.raises(ValueError):
            StreamingCharacterizer().merge(
                StreamingCharacterizer(bandwidth_edges=[0.0, 1e6]))


class TestSummaryShape:
    def test_top_clients_ordering(self, streamed):
        top = streamed.summary(top_k=5).top_clients
        counts = [count for _, count in top]
        assert counts == sorted(counts, reverse=True)
        assert len(top) <= 5

    def test_congestion_fraction_in_range(self, streamed):
        fraction = streamed.summary().congestion_bound_fraction
        assert 0.0 <= fraction <= 1.0
        # The scenario plants ~10% congestion-bound transfers.
        assert 0.03 <= fraction <= 0.2

    def test_bandwidth_histogram_covers_entries(self, streamed):
        summary = streamed.summary()
        assert summary.bandwidth_histogram.sum() <= summary.n_entries
        assert summary.bandwidth_histogram.sum() >= 0.95 * summary.n_entries

    def test_empty_characterizer(self):
        summary = StreamingCharacterizer().summary()
        assert summary.n_entries == 0
        assert summary.congestion_bound_fraction == 0.0
        assert summary.length_log_sigma == 0.0

    def test_invalid_bins(self):
        with pytest.raises(ValueError):
            StreamingCharacterizer(diurnal_bins=0)
