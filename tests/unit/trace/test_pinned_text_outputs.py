"""Pinned output digests of the WMS text-log readers.

Two seeded text logs are generated through the streaming pipeline; the
second one then gets a handful of harvest-damage lines spliced in
(truncated, non-ASCII, a foreign URI stem, a fractional timestamp, a
non-numeric bandwidth, blanks and a remark), each of which every text
reader skips.  A third log holds the sanitized smoke scenario with its
durations and bandwidths written at full float precision rather than
rounded: ``bytes_served`` then sums inexact products, and must still be
their exact sum rounded once, at any chunk size.  The logs are
then read four ways, and each result is exact, so any drift in what
counts as an entry, in the parsed values, in the byte total or in key
order changes a digest:

* the map-reduce summary of ``characterize_logs`` at two chunk sizes
  (one digest per log);
* the checkpoint document of a serial ``StreamingCharacterizer.consume``
  (ascending key order included);
* the ``read_wms_log`` trace columns and client table, plus the
  skip-mode error messages;
* the ``FeedWorker`` state document after ingesting the log in batches
  of 1, 7 and 2048 lines.
"""

import hashlib
import json
import math

import pytest

from repro.core.model import LiveWorkloadModel
from repro.errors import LogParseError
from repro.parallel.characterize import characterize_logs
from repro.serve.feed import FeedWorker
from repro.stream import run_streaming_generation
from repro.trace.streaming import StreamingCharacterizer
from repro.trace.wms_log import LOG_FIELDS, read_wms_log
from tests.unit.trace.test_pinned_binary_outputs import digest

#: name -> (seed, mean session rate, clients, damaged).
LOGS = {
    "clean": (101, 0.03, 300, False),
    "damaged": (202, 0.04, 150, True),
}

#: Lines every text reader skips, spliced into the damaged log.
DAMAGE = [
    "",
    "#Remark: harvest boundary",
]


def _damage(line):
    """Variants of a good data line that are skipped by every reader."""
    parts = line.split()
    truncated = " ".join(parts[:-3])
    foreign = " ".join([*parts[:4], "/vod/feed3", *parts[5:]])
    fractional = " ".join([parts[0] + ".5", *parts[1:]])
    no_number = " ".join([*parts[:6], "abc", *parts[7:]])
    return [truncated, foreign, fractional, no_number]


def write_full_precision(trace, path):
    """A WMS log of ``trace`` with unrounded durations and bandwidths."""
    clients = trace.clients
    lines = ["#Software: Windows Media Services 4.1", "#Version: 1.0",
             "#Fields: " + " ".join(LOG_FIELDS)]
    for k in range(trace.n_transfers):
        c = int(trace.client_index[k])
        duration = float(trace.duration[k])
        lines.append(" ".join((
            str(int(trace.start[k] + duration)), str(clients.ips[c]),
            str(clients.player_ids[c]), str(clients.os_names[c]) or "-",
            f"/live/feed{int(trace.object_id[k])}", repr(duration),
            repr(float(trace.bandwidth_bps[k])),
            f"{trace.packet_loss[k]:.4f}", f"{trace.server_cpu[k]:.4f}",
            str(int(trace.status[k])), "-")))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


@pytest.fixture(scope="module")
def logs(tmp_path_factory, smoke_trace):
    root = tmp_path_factory.mktemp("pinned_text")
    paths = {"scenario": root / "scenario.log"}
    write_full_precision(smoke_trace, paths["scenario"])
    for name, (seed, rate, clients, damaged) in LOGS.items():
        model = LiveWorkloadModel.paper_defaults(mean_session_rate=rate,
                                                n_clients=clients)
        path = root / f"{name}.log"
        run_streaming_generation(model, 1.0, seed=seed, log_path=path,
                                 collect_sessions=False)
        if damaged:
            raw = path.read_bytes().splitlines()
            out = []
            for k, line in enumerate(raw):
                out.append(line)
                if k > 3 and k % 397 == 0:
                    text = line.decode("ascii")
                    out.extend(d.encode("ascii")
                               for d in [*DAMAGE, *_damage(text)])
                    corrupt = bytearray(line)
                    corrupt[3] = 0xFF
                    out.append(bytes(corrupt))
            path.write_bytes(b"\n".join(out) + b"\n")
        paths[name] = path
    return paths


#: name -> (n_entries, n_skipped)
COUNTS = {
    "clean": (3906, 0),
    "damaged": (5596, 70),
    "scenario": (8113, 0),
}

#: (name, chunk_bytes) -> characterize_logs summary digest.
SUMMARY_CLEAN = (
    "8aa8a2a9b73a930be5757f68946f0c3b7b45314803bde3188476a4d892da272d")
SUMMARY_DAMAGED = (
    "30ef203e478806b33cc4932ec51a6ce35ace7ef4092c42f1e59ab0a7d6473ef5")
SUMMARY_SCENARIO = (
    "23e7735c07135487492e27cb7ec1c88b46ccf30ef1aa115af795e2fcdaed7995")
SUMMARIES = {
    ("clean", 4096): SUMMARY_CLEAN,
    ("clean", 1 << 20): SUMMARY_CLEAN,
    ("damaged", 4096): SUMMARY_DAMAGED,
    ("damaged", 1 << 20): SUMMARY_DAMAGED,
    ("scenario", 4096): SUMMARY_SCENARIO,
    ("scenario", 1 << 20): SUMMARY_SCENARIO,
}

#: name -> sha256 of the serial checkpoint document.
STATE_DICTS = {
    "clean": "9a3e89329ca9250302ba43b9b8a3125c"
             "0d70edd42462383afe6c7553b26d2294",
    "damaged": "07cabe0091d0282c8ca6b5264b991406"
               "05d418e3b25cfe3a6baf5141a1c0bdb3",
    "scenario": "2d6d90d6a545300fa182e7093368e95a"
                "cb003492490fe7afba575007cf37aea6",
}

#: name -> (trace digest, error-message digest).
TRACES = {
    "clean": (
        "dba31ea4c6c5b4781c3cd2f42c9ea8221540d01c6fda2af0a7d8af3030b385dc",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "damaged": (
        "a6c9711aa75fd9cd3c56eb8b6d8e2e3a6084e564188d7b01df327910bb03c04b",
        "a732befb8a3442f99aafdfdea7a96ef80485802038d5a14823c72aacc4208fc1"),
    "scenario": (
        "f28caef7ffa6152173666e3d42711f3340f4ea029796a32907c9a096e58f33a9",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
}

#: (name, batch lines) -> FeedWorker state digest.  For the seeded logs
#: the document does not depend on how the lines were batched; for the
#: scenario log the reorder buffer's releases do.
FEED_CLEAN = (
    "123ee44d69b859161b09e9037a1a5c2a87420b9e3ca06cce2bc389b55b7817f6")
FEED_DAMAGED = (
    "5477f276d0aeb563e2a39df50bc69b2cef935832a93dd18e7b093ebdb056fc4a")
FEED_SCENARIO = (
    "f0ce2ec1d8fb9004e052dfb219c4b83451bf785d881b1d09a491ccd575460f39")
FEEDS = {
    **{("clean", batch): FEED_CLEAN for batch in (1, 7, 2048)},
    **{("damaged", batch): FEED_DAMAGED for batch in (1, 7, 2048)},
    ("scenario", 1): FEED_SCENARIO,
    ("scenario", 7): FEED_SCENARIO,
    ("scenario", 2048): (
        "cb11f160bf4b4ea89e6038fc81240b0b18ea063fc47d254de3a1eee25dda4532"),
}


@pytest.mark.parametrize(("name", "chunk_bytes"), sorted(SUMMARIES))
def test_characterize_logs_summary(logs, name, chunk_bytes):
    summary = characterize_logs(logs[name], chunk_bytes=chunk_bytes)
    assert (summary.n_entries, summary.n_skipped) == COUNTS[name]
    assert digest(summary) == SUMMARIES[name, chunk_bytes]
    if name == "scenario":
        # The exact sum of the products, rounded once (fsum), then / 8.
        trace = read_wms_log(logs[name])
        assert summary.bytes_served == math.fsum(
            trace.duration * trace.bandwidth_bps) / 8
        assert summary.bytes_served.hex() == "0x1.4e5833b05617ap+34"


@pytest.mark.parametrize("name", sorted(STATE_DICTS))
def test_serial_state_dict(logs, name):
    """The checkpoint document of a serial consume, key order included."""
    characterizer = StreamingCharacterizer()
    characterizer.consume(logs[name])
    document = json.dumps(characterizer.state_dict()).encode()
    assert hashlib.sha256(document).hexdigest() == STATE_DICTS[name]


@pytest.mark.parametrize("name", sorted(TRACES))
def test_read_wms_log_trace(logs, name):
    errors: list[LogParseError] = []
    trace = read_wms_log(logs[name], on_error="skip", error_sink=errors)
    assert trace.n_transfers == COUNTS[name][0]
    assert len(errors) == COUNTS[name][1]
    clients = trace.clients
    columns = {
        "client_index": trace.client_index, "object_id": trace.object_id,
        "start": trace.start, "duration": trace.duration,
        "bandwidth_bps": trace.bandwidth_bps,
        "packet_loss": trace.packet_loss, "server_cpu": trace.server_cpu,
        "status": trace.status, "extent": trace.extent,
        "player_ids": list(clients.player_ids), "ips": list(clients.ips),
        "os_names": list(clients.os_names),
        "as_numbers": clients.as_numbers,
        "countries": list(clients.countries),
    }
    messages = [(e.line_number, str(e)) for e in errors]
    assert (digest(columns), digest(messages)) == TRACES[name]


@pytest.mark.parametrize(("name", "batch"), sorted(FEEDS))
def test_feed_state(logs, name, batch):
    with open(logs[name], encoding="ascii", errors="replace") as stream:
        lines = [line.rstrip("\n") for line in stream]
    worker = FeedWorker("feed0")
    for lo in range(0, len(lines), batch):
        worker.ingest_lines(lines[lo:lo + batch])
    assert worker.entries_ingested == COUNTS[name][0]
    assert worker.feed_errors == 0
    state = {"meta": worker.state_meta(), "arrays": worker.state_arrays()}
    assert digest(state) == FEEDS[name, batch]
