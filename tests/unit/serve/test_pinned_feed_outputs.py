"""Pinned ``FeedWorker`` state digests for binary ingest and resume.

The text-mode feed state is pinned in
``tests/unit/trace/test_pinned_text_outputs.py``.  This module pins the
two remaining ways a feed's state is built:

* **binary mode:** CLIENTS then ENTRIES frames of seeded ``.rtb`` traces,
  mid-stream (half the segments) and after ``finish``;
* **checkpoint and resume:** a text feed checkpointed mid-stream through
  :func:`~repro.stream.checkpoint.save_checkpoint`, restored into a fresh
  worker and fed the rest of the log.  The checkpoint arrays are pinned
  too, and the resumed state must equal the uninterrupted one.

The feeds run with a one-hour reorder bound, so sessions are released,
evicted and finalized well before the one-day logs end (the default
bound of a day would hold every entry until ``finish``).

Every digest covers the full ``state_meta``/``state_arrays`` pair, so any
drift in the session table, the gap accumulator, the reorder buffer or
the concurrency ring changes it.
"""

import pytest

from repro.core.model import LiveWorkloadModel
from repro.serve.feed import FeedWorker
from repro.stream import run_streaming_generation
from repro.stream.checkpoint import load_checkpoint, save_checkpoint
from repro.trace.codecs import BinaryTraceReader
from tests.unit.trace.test_pinned_binary_outputs import digest

#: name -> (seed, mean session rate, clients).
WORKLOADS = {
    "small": (11, 0.05, 120),
    "wide": (12, 0.08, 700),
}

#: Reorder-buffer bound of every feed, seconds.
LATENESS = 3600.0

#: (name, stage) -> binary-mode FeedWorker state digest.
BINARY = {
    ("small", "half"): (
        "94686e5c61a311400f77dfa34f2e578ac41b51506562e3011a2527238eec4b87"),
    ("small", "finish"): (
        "2c25f0b7476c5305180c76a96f016fd724dc4c8ab1d7b0e8bbf00f14cafbf0df"),
    ("wide", "half"): (
        "8d99081d075761153a25dd083bff58ae69e065ab9ec5047f94b09d4dccffa0bd"),
    ("wide", "finish"): (
        "723222150d41c4e07c1ddb1ea08afc5ed4ced00bbc675e8d4adaaef5bc9f5db6"),
}

#: (name, batch lines) -> (mid-stream checkpoint digest, final digest).
RESUME = {
    ("small", 7): (
        "4d9766157f016e9e17d8c2dc51b458b308705cb80c262a56792ca587cff2c679",
        "6229388f445d0dc7dc5ac07d157ba8a38134475305f816369fcc251593345704"),
    ("small", 2048): (
        "e16dc14d861b100adae758b5b2bbbf390a91bfb257e5800a75360782ddb1b033",
        "16caa8dbb3777d48c9f01a4463a9ab48031fe7344369308065aed7646db1d9c8"),
    ("wide", 7): (
        "1abd243ac4cf919145c83f46caaf4acfc7389f5bf393233a3dca66c48b6790f2",
        "0681c51209881482742df0cdcc6099c217144344db7746a7c7453d13666ccd1c"),
    ("wide", 2048): (
        "4cfaa5f341da0e46ffc0255817e397d1b634c2f8256ba8814f63a413dcfb24a9",
        "a1910798774ab55443208a7fd2dfd21141efa6c464b25759f201a1d333ed8033"),
}


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned_feed")
    paths = {}
    for name, (seed, rate, clients) in WORKLOADS.items():
        model = LiveWorkloadModel.paper_defaults(mean_session_rate=rate,
                                                n_clients=clients)
        text, binary = root / f"{name}.log", root / f"{name}.rtb"
        run_streaming_generation(model, 1.0, seed=seed, log_path=text,
                                 collect_sessions=False)
        run_streaming_generation(model, 1.0, seed=seed, log_path=binary,
                                 codec="binary", collect_sessions=False)
        paths[name] = (text, binary)
    return paths


def state(worker):
    return {"meta": worker.state_meta(), "arrays": worker.state_arrays()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_binary_feed_state(traces, name):
    worker = FeedWorker("feed0", lateness=LATENESS)
    with BinaryTraceReader(traces[name][1]) as reader:
        worker.ingest_clients(
            [(index, ip, player, os_name) for index, (ip, player, os_name)
             in sorted(reader.client_identity_map().items())])
        half = reader.n_segments // 2
        for segment in range(reader.n_segments):
            if segment == half:
                assert digest(state(worker)) == BINARY[name, "half"]
            worker.ingest_entries(reader.segment_quantized(segment))
    assert worker.feed_errors == 0
    worker.finish()
    assert digest(state(worker)) == BINARY[name, "finish"]


@pytest.mark.parametrize(("name", "batch"), sorted(RESUME))
def test_text_feed_resume(traces, tmp_path, name, batch):
    with open(traces[name][0], encoding="ascii") as stream:
        lines = [line.rstrip("\n") for line in stream]
    cut = len(lines) // 2
    head = [lines[lo:min(lo + batch, cut)] for lo in range(0, cut, batch)]
    tail = [lines[lo:lo + batch] for lo in range(cut, len(lines), batch)]

    straight = FeedWorker("feed0", lateness=LATENESS)
    for chunk in head:
        straight.ingest_lines(chunk)
    path = tmp_path / "feed.npz"
    save_checkpoint(path, straight.state_meta(), straight.state_arrays())
    checkpoint_digest = digest(state(straight))
    assert straight.sessionizer.n_finalized > 0
    assert straight.gap_moments_count() > 0
    for chunk in tail:
        straight.ingest_lines(chunk)

    meta, arrays = load_checkpoint(path)
    del meta["format_version"]
    resumed = FeedWorker("feed0", lateness=LATENESS)
    resumed.restore(meta, arrays)
    assert digest(state(resumed)) == checkpoint_digest
    for chunk in tail:
        resumed.ingest_lines(chunk)
    assert resumed.feed_errors == 0
    assert digest(state(resumed)) == digest(state(straight))
    assert (checkpoint_digest, digest(state(resumed))) == RESUME[name, batch]
