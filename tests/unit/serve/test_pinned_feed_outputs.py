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
        "73f535a9874869f0a00b11cd31d49182309108b09ea7644ea6d336135071ac77"),
    ("small", "finish"): (
        "110254d82eb3f5e3d00b485441ce8e73808f0a1256bd904421664cf6625112d5"),
    ("wide", "half"): (
        "0026f9c18f87dd3fdd29ab60371144c0f5dc60224985f07b144b122c5eae2179"),
    ("wide", "finish"): (
        "405abaf9d7aa8ce203751ad2f0d5f27988a03b0e485a47f6f7d73431b2ec4726"),
}

#: (name, batch lines) -> (mid-stream checkpoint digest, final digest).
RESUME = {
    ("small", 7): (
        "54f105ba87180403054c55f3bfca8226e953888deeb1ea6fe1ec7c7022b288cf",
        "22576ad08dd794622ffec7a0cb9833a4dcce381f2f12376dcb8e9caac5c589ae"),
    ("small", 2048): (
        "a6c3bc8d97ff9f4b9d003841441177cf4e3c5503bc8adb13c8fcf595194d2dc9",
        "3f9c8564ad29aa8b5e913f00d7f4598195e0c315459900ed2022073a3f352aa5"),
    ("wide", 7): (
        "31aae8af0de08de12722a2ed4788d626afd3670268015e0b7f85457eaf68108b",
        "f1bfc35fc6066d058cdb72b9efcae32447638265c3668eb1dc525da49cbd117b"),
    ("wide", 2048): (
        "4cd98ee49aa9ff04cb22b983aac34fb9ff86ea19c6d45ad743c63e0a3319bec6",
        "864b8d9735ee754e2a39a21b2687e55deffb26d121d16995dc6c6e52e561e006"),
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
