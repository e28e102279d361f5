"""Property: the streaming characterizer's result does not depend on how
a log is split.

One trace, with fractional durations and a ``bytes_served`` past 2**53
bits (where a float running total starts to depend on the order of its
additions), is written as a text log and as a multi-segment ``.rtb``
file.  Serial passes over both files, chunked passes at a random
``chunk_bytes`` merged in a random grouping, ``characterize_logs`` and
live feeds fed in random batches must all report the same
:class:`~repro.trace.streaming.StreamingSummary`, and every
characterizer that holds the whole log must save a byte-identical
``state_dict`` document.
"""

import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.characterize import (
    characterize_chunk,
    characterize_logs,
    consume_chunk,
    plan_log_chunks,
)
from repro.serve.feed import FeedWorker
from repro.trace.codecs import BinaryTraceReader, BinaryTraceWriter
from repro.trace.streaming import StreamingCharacterizer
from repro.trace.wms_log import _table_identity, write_wms_log
from tests.conftest import build_trace

finite = dict(allow_nan=False, allow_infinity=False)

bandwidths = st.one_of(
    st.floats(min_value=0.0, max_value=5e6, **finite),
    st.integers(min_value=0, max_value=2 ** 62).map(float),
    st.sampled_from([0.0, 100.0, 2.0 ** 60, 2.0 ** 62 - 2 ** 10]))

transfers = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),                    # client
        st.integers(min_value=0, max_value=2),                    # object
        st.floats(min_value=0.0, max_value=200_000.0, **finite),  # start
        st.floats(min_value=0.0, max_value=5_000.0, **finite),    # duration
        bandwidths),
    min_size=1, max_size=40)

#: A transfer whose product alone passes 2**53 bits.
huge = st.tuples(
    st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=2),
    st.floats(min_value=0.0, max_value=200_000.0, **finite),
    st.floats(min_value=1.0, max_value=5_000.0, **finite),
    st.floats(min_value=2.0 ** 54, max_value=2.0 ** 62, **finite))


def _write_rtb(trace, path, cuts):
    """``trace`` as an ``.rtb`` file, pushed in start-sorted slices."""
    order = np.argsort(trace.start, kind="stable")
    n = order.size
    with open(path, "wb") as stream:
        writer = BinaryTraceWriter(stream, _table_identity(trace))
        for lo, hi in zip(cuts, cuts[1:], strict=False):
            rows = order[lo:hi]
            writer.push(
                client_index=trace.client_index[rows],
                object_id=trace.object_id[rows], start=trace.start[rows],
                duration=trace.duration[rows],
                bandwidth_bps=trace.bandwidth_bps[rows], global_offset=lo,
                horizon=float(trace.start[order[hi]]) if hi < n else np.inf)
        writer.finish()


def _merged(parts, data):
    """Merge ``parts`` in a drawn order and two-level grouping."""
    parts = data.draw(st.permutations(parts), label="merge order")
    cut = data.draw(st.integers(min_value=0, max_value=len(parts)),
                    label="merge split")
    halves = [StreamingCharacterizer(), StreamingCharacterizer()]
    for k, part in enumerate(parts):
        halves[k >= cut].merge(part)
    return halves[0].merge(halves[1])


def _same_summary(got, want, label):
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        same = (np.array_equal(a, b) if isinstance(b, np.ndarray)
                else a == b)
        assert same, f"{label}: {field.name} {a!r} != {b!r}"


@given(rows=transfers, big=huge, data=st.data())
@settings(max_examples=60, deadline=None)
def test_every_split_of_a_log_characterizes_identically(rows, big, data):
    trace = build_trace([big, *rows], n_clients=5)
    n = trace.n_transfers
    cuts = sorted(data.draw(st.lists(st.integers(min_value=0, max_value=n),
                                     max_size=5), label="segment cuts"))
    chunk_bytes = data.draw(st.integers(min_value=1, max_value=4096),
                            label="chunk_bytes")
    batch = data.draw(st.integers(min_value=1, max_value=50),
                      label="feed batch lines")
    with tempfile.TemporaryDirectory() as root:
        text, binary = Path(root, "t.log"), Path(root, "t.rtb")
        write_wms_log(trace, text)
        _write_rtb(trace, binary, [0, *cuts, n])

        characterizers = {}
        serial = characterizers["text serial"] = StreamingCharacterizer()
        serial.consume(text)
        whole = characterizers["binary serial"] = StreamingCharacterizer()
        for chunk in plan_log_chunks([binary], chunk_bytes=1):
            consume_chunk(whole, chunk)
        for path in (text, binary):
            chunks = plan_log_chunks([path], chunk_bytes=chunk_bytes)
            characterizers[f"{path.suffix} merged"] = _merged(
                [characterize_chunk(chunk) for chunk in chunks], data)

        lines = text.read_text(encoding="ascii").splitlines()
        text_feed = FeedWorker("text")
        for lo in range(0, len(lines), batch):
            text_feed.ingest_lines(lines[lo:lo + batch])
        binary_feed = FeedWorker("binary")
        with BinaryTraceReader(binary) as reader:
            binary_feed.ingest_clients(
                [(index, *identity) for index, identity
                 in sorted(reader.client_identity_map().items())])
            for segment in range(reader.n_segments):
                binary_feed.ingest_entries(reader.segment_quantized(segment))
        characterizers["text feed"] = text_feed.characterizer
        characterizers["binary feed"] = binary_feed.characterizer

        want = serial.summary()
        assert want.n_entries == n
        assert want.bytes_served * 8 > 2 ** 53
        for label, characterizer in characterizers.items():
            _same_summary(characterizer.summary(), want, label)
        for path in (text, binary):
            _same_summary(characterize_logs(path, chunk_bytes=chunk_bytes),
                          want, f"characterize_logs {path.suffix}")
        documents = {label: json.dumps(characterizer.state_dict())
                     for label, characterizer in characterizers.items()}
        assert len(set(documents.values())) == 1, sorted(documents)
