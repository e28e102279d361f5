"""Property-based tests of the segmented array operations and the
reorder buffer.

Each vectorized primitive is compared against an obvious per-segment
reference implementation on arbitrary segmentations.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrayops import (
    ReorderBuffer,
    alternate_on_switch,
    expand_by_segment,
    segment_starts,
    segmented_cumsum,
    segmented_running_max,
)

segmentations = st.lists(st.integers(min_value=0, max_value=8),
                         min_size=0, max_size=12)
finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


def _values_for(lengths, draw_values):
    total = sum(lengths)
    return draw_values(total)


@given(lengths=segmentations, data=st.data())
@settings(max_examples=100, deadline=None)
def test_segmented_cumsum_matches_reference(lengths, data):
    total = sum(lengths)
    values = data.draw(st.lists(finite_floats, min_size=total,
                                max_size=total))
    result = segmented_cumsum(values, lengths)
    # Reference: per-segment numpy cumsum.
    expected = []
    pos = 0
    for length in lengths:
        segment = np.asarray(values[pos:pos + length])
        expected.extend(np.cumsum(segment).tolist())
        pos += length
    np.testing.assert_allclose(result, expected, rtol=1e-9, atol=1e-6)


@given(lengths=segmentations, data=st.data())
@settings(max_examples=100, deadline=None)
def test_exclusive_shifts_by_one(lengths, data):
    total = sum(lengths)
    values = data.draw(st.lists(finite_floats, min_size=total,
                                max_size=total))
    inclusive = segmented_cumsum(values, lengths)
    exclusive = segmented_cumsum(values, lengths, exclusive=True)
    np.testing.assert_allclose(inclusive - exclusive, values,
                               rtol=1e-9, atol=1e-6)


@given(lengths=segmentations, data=st.data())
@settings(max_examples=150, deadline=None)
def test_segmented_running_max_matches_reference(lengths, data):
    total = sum(lengths)
    values = data.draw(st.lists(finite_floats, min_size=total,
                                max_size=total))
    result = segmented_running_max(values, lengths)
    # Reference: per-segment explicit walk — must match bit for bit
    # (the running max is always one of the input floats).
    expected = []
    pos = 0
    for length in lengths:
        run = None
        for v in values[pos:pos + length]:
            run = v if run is None or v > run else run
            expected.append(run)
        pos += length
    np.testing.assert_array_equal(result, np.asarray(expected,
                                                     dtype=np.float64))


@given(lengths=segmentations, data=st.data())
@settings(max_examples=100, deadline=None)
def test_segmented_running_max_is_monotone_within_segment(lengths, data):
    total = sum(lengths)
    values = data.draw(st.lists(finite_floats, min_size=total,
                                max_size=total))
    result = segmented_running_max(values, lengths)
    pos = 0
    for length in lengths:
        segment = result[pos:pos + length]
        assert np.all(np.diff(segment) >= 0)
        # Running max dominates the raw values and ends at the segment max.
        raw = np.asarray(values[pos:pos + length])
        assert np.all(segment >= raw)
        if length:
            assert segment[-1] == raw.max()
        pos += length


@given(lengths=segmentations)
@settings(max_examples=100, deadline=None)
def test_segment_starts_consistent_with_expand(lengths):
    starts = segment_starts(lengths)
    assert starts.size == len(lengths)
    # The start of segment i equals the number of elements before it.
    expected = np.concatenate([[0], np.cumsum(lengths)[:-1]]) \
        if lengths else np.asarray([])
    np.testing.assert_array_equal(starts, expected)


@given(lengths=segmentations, data=st.data())
@settings(max_examples=100, deadline=None)
def test_expand_by_segment_matches_repeat(lengths, data):
    per_segment = data.draw(st.lists(finite_floats, min_size=len(lengths),
                                     max_size=len(lengths)))
    result = expand_by_segment(per_segment, lengths)
    np.testing.assert_array_equal(result, np.repeat(per_segment, lengths))


@given(lengths=st.lists(st.integers(min_value=1, max_value=6),
                        min_size=1, max_size=8),
       n_choices=st.integers(min_value=1, max_value=4),
       data=st.data())
@settings(max_examples=100, deadline=None)
def test_alternate_on_switch_matches_loop(lengths, n_choices, data):
    total = sum(lengths)
    switch = data.draw(st.lists(st.booleans(), min_size=total,
                                max_size=total))
    first = data.draw(st.lists(
        st.integers(min_value=0, max_value=n_choices - 1),
        min_size=len(lengths), max_size=len(lengths)))
    result = alternate_on_switch(switch, lengths, first_value=first,
                                 n_choices=n_choices)
    # Reference: explicit walk.
    expected = []
    pos = 0
    for seg, start_state in zip(lengths, first, strict=True):
        state = start_state
        for i in range(seg):
            if i > 0 and switch[pos + i]:
                state = (state + 1) % n_choices
            expected.append(state)
        pos += seg
    np.testing.assert_array_equal(result, expected)


#: One reorder-buffer step: push keys (small integers, so ties are
#: common), release below a bound, or restore a copy from ``table``.
buffer_steps = st.lists(st.one_of(
    st.tuples(st.just("push"),
              st.lists(st.integers(min_value=0, max_value=6), max_size=6)),
    st.tuples(st.just("release"),
              st.one_of(st.integers(min_value=-1, max_value=8),
                        st.just(float("inf")))),
    st.tuples(st.just("restore"), st.none())), max_size=25)


@given(steps=buffer_steps)
@settings(max_examples=200, deadline=None)
def test_reorder_buffer_releases_held_rows_in_key_then_arrival_order(steps):
    columns = (("key", np.float64), ("arrival", np.int64))
    buffer = ReorderBuffer(columns, "key")
    held = []  # (key, arrival) in arrival order
    released = []
    for op, arg in steps:
        if op == "push":
            rows = [(float(k), len(released) + len(held) + i)
                    for i, k in enumerate(arg)]
            buffer.push({"key": [k for k, _ in rows],
                         "arrival": [a for _, a in rows]})
            held += rows
        elif op == "release":
            out = buffer.release(arg)
            assert out["key"].dtype == np.float64
            assert out["arrival"].dtype == np.int64
            want = sorted(row for row in held if row[0] < arg)
            assert list(zip(out["key"].tolist(), out["arrival"].tolist(),
                            strict=True)) == want
            held = [row for row in held if not row[0] < arg]
            released += want
        else:
            restored = ReorderBuffer(columns, "key")
            restored.table = buffer.table
            buffer = restored
        table = buffer.table
        assert list(zip(table["key"].tolist(), table["arrival"].tolist(),
                        strict=True)) == held
        assert buffer.n_rows == len(held)
        assert buffer.min_key == min((k for k, _ in held), default=np.inf)
    # Each pushed row was released exactly once or is still held.
    arrivals = sorted(a for _, a in released + held)
    assert arrivals == list(range(len(arrivals)))
