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
        "d9d117bc804acf3f0936c4d9298796793e60e63a7639c62fd7d4d5068eb0d737"),
    ("small", "finish"): (
        "c915179a5eb21525a8e9fc50230a8c0915867df32cc7e9acdf956e95c8ea2c52"),
    ("wide", "half"): (
        "c93a78bc9fe146bdf405f8c9a68abf02e77fdd1e04b0b36080c70a8aa33b3014"),
    ("wide", "finish"): (
        "30854a97df8776796668e7bbd57c454db7143e462cc411fc1c04942beccde5e2"),
}

#: (name, batch lines) -> (mid-stream checkpoint digest, final digest).
RESUME = {
    ("small", 7): (
        "7aab0c007a0161ea12bb0399fd92f3fcd5e5455b770c3e926b8cbfe2c9c602de",
        "f5a9890cc24fd6ade2b4ef87694c95c6226b04f9bb323d6504bc92ee1f627a7f"),
    ("small", 2048): (
        "765ee6380e976181bb83b513a7c038659339a93171b267dd4078f4658dc59ad8",
        "e89a2976e7f9d882d10eadf32df869b362e41ed8f6f8191481424443d4d19c97"),
    ("wide", 7): (
        "861c98a18d7f00197ee2d163d46a9c7960dfdeb2b648323e016d2dfc87c12b18",
        "91ceaf230f2fbe4a7f181d0f1707f05b62f66d430e98342febee4a846d872e33"),
    ("wide", 2048): (
        "6cc246d112b1d1824a3a83a19b18cbb9aded24101f2242552739e10dcc6b8a2d",
        "4305b140cf67d1c43e0b25303280856d9c19a2e62d10d511e3b75ec56f7330e6"),
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
