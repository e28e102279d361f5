"""Unit tests for repro.cdn.admission.

The hybrid engine's contract is exactness: its vectorized
classification plus sparse sweep must reproduce, decision for decision,
the obvious sequential event-order reference.  The reference is
re-implemented here independently and the two are compared across a
randomized matrix of cap configurations.
"""

import numpy as np
import pytest

from repro.cdn import active_peaks, admit_requests
from repro.cdn.admission import _BLOCK
from repro.rng import make_rng
from repro.errors import CdnError


def sequential_reference(start, duration, rate, max_connections,
                         bandwidth_cap, carry_end=(), carry_rate=()):
    """Obvious event-order admission: completions first, then arrivals."""
    n = len(start)
    end = start + duration
    events = []
    for i, (ce, _) in enumerate(zip(carry_end, carry_rate, strict=True)):
        events.append((ce, 0, -1 - i))
    for i in range(n):
        events.append((start[i], 1, i))
        if duration[i] > 0:
            events.append((end[i], 0, i))
    events.sort(key=lambda event: (event[0], event[1], event[2]))
    admitted = [False] * n
    active = {(-1 - i) for i in range(len(carry_end))}
    load = sum(carry_rate)
    for _, kind, i in events:
        if kind == 0:
            if i in active:
                active.discard(i)
                load -= carry_rate[-1 - i] if i < 0 else rate[i]
        else:
            ok = True
            if max_connections is not None and len(active) >= \
                    max_connections:
                ok = False
            if bandwidth_cap is not None and load + rate[i] > bandwidth_cap:
                ok = False
            admitted[i] = ok
            if ok and duration[i] > 0:
                active.add(i)
                load += rate[i]
    return np.asarray(admitted)


def random_requests(rng, n):
    start = np.sort(rng.integers(0, 60, n)).astype(np.float64)
    duration = rng.integers(0, 25, n).astype(np.float64)
    rate = rng.integers(1, 12, n).astype(np.int64)
    return start, duration, rate


class TestAgainstSequentialReference:
    @pytest.mark.parametrize("max_connections", [None, 1, 3, 8])
    @pytest.mark.parametrize("bandwidth_cap", [None, 10, 40])
    def test_randomized_matrix(self, max_connections, bandwidth_cap):
        rng = make_rng(991)
        for _ in range(40):
            start, duration, rate = random_requests(
                rng, int(rng.integers(1, 80)))
            outcome = admit_requests(
                start, duration, rate,
                max_connections=max_connections,
                bandwidth_cap_bps=bandwidth_cap)
            expected = sequential_reference(
                start, duration, rate, max_connections, bandwidth_cap)
            assert np.array_equal(outcome.admitted, expected)
            assert outcome.n_admitted + outcome.n_rejected == start.size

    def test_carry_occupies_capacity(self):
        rng = make_rng(1212)
        for _ in range(40):
            start, duration, rate = random_requests(
                rng, int(rng.integers(1, 50)))
            n_carry = int(rng.integers(0, 6))
            carry_end = rng.integers(1, 60, n_carry).astype(np.float64)
            carry_rate = rng.integers(1, 12, n_carry).astype(np.int64)
            outcome = admit_requests(
                start, duration, rate, max_connections=4,
                bandwidth_cap_bps=35,
                carry_end=carry_end, carry_rate=carry_rate)
            expected = sequential_reference(
                start, duration, rate, 4, 35,
                carry_end=carry_end.tolist(),
                carry_rate=carry_rate.tolist())
            assert np.array_equal(outcome.admitted, expected)


class TestAdmitRequestsShape:
    def test_uncapped_admits_everything(self):
        start = np.asarray([0.0, 1.0, 1.0])
        outcome = admit_requests(start, np.full(3, 5.0),
                                 np.full(3, 7, dtype=np.int64))
        assert outcome.admitted.all()
        assert outcome.n_swept == 0
        assert outcome.peak_connections == 3
        assert outcome.peak_bandwidth_bps == 21

    def test_zero_duration_transfer_is_admitted_without_occupying(self):
        start = np.asarray([0.0, 0.0])
        duration = np.asarray([0.0, 10.0])
        rate = np.asarray([5, 5], dtype=np.int64)
        outcome = admit_requests(start, duration, rate, max_connections=1)
        assert outcome.admitted.all()

    def test_unsorted_starts_rejected(self):
        with pytest.raises(CdnError, match="non-decreasing"):
            admit_requests(np.asarray([5.0, 1.0]), np.full(2, 1.0),
                           np.full(2, 1, dtype=np.int64))

    def test_mismatched_columns_rejected(self):
        with pytest.raises(CdnError):
            admit_requests(np.zeros(3), np.zeros(2),
                           np.zeros(3, dtype=np.int64))

    def test_back_to_back_reuses_capacity(self):
        # The first transfer ends exactly when the second starts:
        # completions free capacity before same-instant arrivals.
        start = np.asarray([0.0, 10.0])
        duration = np.asarray([10.0, 10.0])
        rate = np.asarray([1, 1], dtype=np.int64)
        outcome = admit_requests(start, duration, rate, max_connections=1)
        assert outcome.admitted.all()

    def test_rates_summing_past_int64_refused(self):
        # Four concurrent 2**62 bps requests need 2**64 bps: an int64
        # prefix sum would wrap and admit all four under a 2**62 cap.
        with pytest.raises(CdnError, match="int64"):
            admit_requests(np.zeros(4), np.ones(4),
                           np.full(4, 2**62, dtype=np.int64),
                           bandwidth_cap_bps=2**62)

    def test_carried_rates_count_toward_the_int64_total(self):
        with pytest.raises(CdnError, match="int64"):
            admit_requests(np.zeros(2), np.ones(2),
                           np.full(2, 2**62, dtype=np.int64),
                           bandwidth_cap_bps=2**62,
                           carry_end=np.full(2, 5.0),
                           carry_rate=np.full(2, 2**62, dtype=np.int64))


class TestActivePeaks:
    def test_empty(self):
        peak_conn, peak_rate = active_peaks(
            np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.int64))
        assert (peak_conn, peak_rate) == (0, 0)

    def test_overlap_counts_and_rates(self):
        start = np.asarray([0.0, 5.0, 20.0])
        end = np.asarray([10.0, 15.0, 30.0])
        rate = np.asarray([3, 4, 5], dtype=np.int64)
        peak_conn, peak_rate = active_peaks(start, end, rate)
        assert peak_conn == 2
        assert peak_rate == 7

    def test_touching_intervals_do_not_stack(self):
        start = np.asarray([0.0, 10.0])
        end = np.asarray([10.0, 20.0])
        rate = np.asarray([2, 2], dtype=np.int64)
        peak_conn, peak_rate = active_peaks(start, end, rate)
        assert peak_conn == 1
        assert peak_rate == 2

    def test_rates_summing_past_int64_refused(self):
        with pytest.raises(CdnError, match="int64"):
            active_peaks(np.zeros(4), np.ones(4),
                         np.full(4, 2**62, dtype=np.int64))
        # max * count passes 2**63 here but the exact total does not.
        rate = np.asarray([2**62, 1, 1, 1], dtype=np.int64)
        assert active_peaks(np.zeros(4), np.ones(4), rate) == (4, 2**62 + 3)


def lexsort_peaks_reference(start, end, rate):
    """Peaks from one event stream: ends before starts at equal times."""
    keep = end > start
    start, end, rate = start[keep], end[keep], rate[keep]
    if start.size == 0:
        return 0, 0
    times = np.concatenate([start, end])
    kinds = np.concatenate([np.ones(start.size, dtype=np.int8),
                            np.zeros(end.size, dtype=np.int8)])
    deltas = np.concatenate([np.ones(start.size, dtype=np.int64),
                             -np.ones(end.size, dtype=np.int64)])
    order = np.lexsort((kinds, times))
    return (int(np.cumsum(deltas[order]).max()),
            int(np.cumsum(np.concatenate([rate, -rate])[order]).max()))


class TestSweepAtScale:
    """Columns long enough that the sweep runs over several blocks.

    Caps sit just under the offered load: nearly every request is
    risky, yet a real share of them is admitted, so a wrong decision
    anywhere in the sweep shows.
    """

    N = 4 * _BLOCK + 517

    def _check(self, start, duration, rate, max_connections, bandwidth_cap,
               carry_end=np.zeros(0), carry_rate=np.zeros(0, np.int64)):
        outcome = admit_requests(
            start, duration, rate, max_connections=max_connections,
            bandwidth_cap_bps=bandwidth_cap, carry_end=carry_end,
            carry_rate=carry_rate)
        expected = sequential_reference(
            start, duration, rate, max_connections, bandwidth_cap,
            carry_end=carry_end.tolist(), carry_rate=carry_rate.tolist())
        assert np.array_equal(outcome.admitted, expected)
        assert outcome.n_swept >= 3 * _BLOCK
        return outcome

    def test_nearly_every_request_risky(self):
        rng = make_rng(1401)
        # Integer times: many ends land exactly on later starts.
        start = np.sort(rng.integers(0, 40_000, self.N)).astype(np.float64)
        duration = rng.integers(1, 200, self.N).astype(np.float64)
        rate = rng.integers(1, 12, self.N).astype(np.int64)
        outcome = self._check(start, duration, rate, 140, 900)
        assert 0.1 < outcome.n_rejected / self.N < 0.9

    def test_carried_transfers(self):
        rng = make_rng(1402)
        start = np.sort(rng.integers(0, 40_000, self.N)).astype(np.float64)
        duration = rng.integers(1, 200, self.N).astype(np.float64)
        rate = rng.integers(1, 12, self.N).astype(np.int64)
        carry_end = rng.integers(1, 20_000, 60).astype(np.float64)
        carry_rate = rng.integers(1, 12, 60).astype(np.int64)
        outcome = self._check(start, duration, rate, 140, 900,
                              carry_end, carry_rate)
        assert 0.1 < outcome.n_rejected / self.N < 0.9

    def test_zero_duration_requests(self):
        rng = make_rng(1403)
        start = np.sort(rng.integers(0, 40_000, self.N)).astype(np.float64)
        duration = rng.integers(0, 150, self.N).astype(np.float64)
        duration[rng.random(self.N) < 0.3] = 0.0
        rate = rng.integers(0, 12, self.N).astype(np.int64)
        outcome = self._check(start, duration, rate, 60, 400)
        assert 0.1 < outcome.n_rejected / self.N < 0.9

    def test_end_equal_to_later_start(self):
        # About eight arrivals per whole second and whole-second
        # durations: nearly every end is exactly some later start.
        rng = make_rng(1404)
        start = np.sort(rng.integers(0, self.N // 8, self.N)).astype(
            np.float64)
        duration = rng.integers(1, 4, self.N).astype(np.float64)
        assert np.isin(start + duration, start).mean() > 0.9
        rate = np.full(self.N, 5, dtype=np.int64)
        outcome = self._check(start, duration, rate, 9, 45)
        assert 0.1 < outcome.n_rejected / self.N < 0.9

    def test_one_arrival_consumes_several_blocks_of_completions(self):
        # The first late arrival retires every early request at once;
        # the seven admitted early ones end last, in the final block.
        early = 2 * _BLOCK + 37
        late = _BLOCK + 11
        start = np.concatenate([np.linspace(0.0, 1.0, early),
                                np.full(late, 500.0)])
        duration = np.concatenate([200.0 - start[:early] * 2.0,
                                   np.full(late, 50.0)])
        rate = np.ones(start.size, dtype=np.int64)
        outcome = self._check(start, duration, rate, 7, None)
        assert outcome.n_swept == early + late - 14
        assert outcome.admitted[early:].sum() == 7


class TestActivePeaksAgainstReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_sets_with_ties(self, seed):
        rng = make_rng(1500 + seed)
        for n in (1, 2, 7, 60, 400):
            start = rng.integers(0, 30, n).astype(np.float64)
            end = start + rng.integers(0, 10, n)
            rate = rng.integers(0, 5, n).astype(np.int64)
            assert active_peaks(start, end, rate) == \
                lexsort_peaks_reference(start, end, rate)

    def test_carry_starts_at_minus_infinity(self):
        rng = make_rng(1510)
        start = np.concatenate([np.full(5, -np.inf),
                                rng.integers(0, 20, 50).astype(np.float64)])
        end = np.concatenate([rng.integers(0, 20, 5).astype(np.float64),
                              start[5:] + rng.integers(0, 8, 50)])
        rate = rng.integers(1, 9, 55).astype(np.int64)
        assert active_peaks(start, end, rate) == \
            lexsort_peaks_reference(start, end, rate)

    def test_zero_rates_and_zero_lengths(self):
        start = np.asarray([0.0, 0.0, 3.0, 3.0, 5.0])
        end = np.asarray([3.0, 0.0, 5.0, 3.0, 9.0])
        rate = np.zeros(5, dtype=np.int64)
        assert active_peaks(start, end, rate) == (1, 0)
        assert lexsort_peaks_reference(start, end, rate) == (1, 0)

    def test_only_zero_length_intervals(self):
        start = np.asarray([1.0, 2.0])
        assert active_peaks(start, start.copy(),
                            np.ones(2, dtype=np.int64)) == (0, 0)
