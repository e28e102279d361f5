"""Unit tests for the per-feed ingest worker.

The worker's synchronous ``ingest_*`` methods are driven directly (no
event loop) and compared against the batch pipeline on the same log:
the characterizer state must be bit-identical and the finalized
sessions must reproduce the batch sessionizer's canonical columns.
"""

import asyncio
import json
import os
import resource
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.core.model import LiveWorkloadModel
from repro.core.sessionizer import sessionize
from repro.errors import CheckpointError, LogParseError, ProtocolError
from repro.serve.feed import FeedWorker
from repro.stream import run_streaming_generation
from repro.trace.codecs import BinaryTraceReader
from repro.trace.streaming import StreamingCharacterizer
from repro.trace.wms_log import LOG_FIELDS, read_wms_log

SEED = 31415
TIMEOUT = 1500.0


@pytest.fixture(scope="module")
def logs(tmp_path_factory):
    """One small workload written through both codecs."""
    root = tmp_path_factory.mktemp("serve_feed")
    model = LiveWorkloadModel.paper_defaults(mean_session_rate=0.05,
                                            n_clients=120)
    text_path = root / "run.log"
    bin_path = root / "run.rtb"
    run_streaming_generation(model, 1.0, seed=SEED, log_path=text_path)
    run_streaming_generation(model, 1.0, seed=SEED, log_path=bin_path,
                             codec="binary")
    return text_path, bin_path


def text_worker(path, **kwargs):
    """A worker fed the whole text log in uneven line batches."""
    worker = FeedWorker("feed0", timeout=TIMEOUT, **kwargs)
    with open(path, "r", encoding="utf-8") as stream:
        lines = [line.rstrip("\n") for line in stream]
    step = 173
    for lo in range(0, len(lines), step):
        worker.ingest_lines(lines[lo:lo + step])
    return worker, lines


def binary_worker(path, **kwargs):
    """A worker fed the binary trace frame-per-segment."""
    worker = FeedWorker("feed0", timeout=TIMEOUT, **kwargs)
    with BinaryTraceReader(path) as reader:
        identity = reader.client_identity_map()
        worker.ingest_clients(
            [(index, ip, player, os_name)
             for index, (ip, player, os_name) in sorted(identity.items())])
        for segment in range(reader.n_segments):
            worker.ingest_entries(reader.segment_quantized(segment))
    return worker


def canonical_state(worker):
    return json.dumps(worker.characterizer.state_dict(), sort_keys=True,
                      default=str)


def session_rows(client_names, finalized):
    """Hashable (player, start, end, count) rows for comparison."""
    return sorted(zip(
        (client_names[k] for k in finalized.client_index.tolist()),
        finalized.start.tolist(), finalized.end.tolist(),
        finalized.n_transfers.tolist(), strict=True))


# ----------------------------------------------------------------------
# Differential vs the batch pipeline
# ----------------------------------------------------------------------
def test_text_ingest_matches_batch_characterizer(logs):
    text_path, _ = logs
    worker, lines = text_worker(text_path)
    reference = StreamingCharacterizer()
    reference.consume_lines(lines, list(LOG_FIELDS))
    assert canonical_state(worker) == json.dumps(
        reference.state_dict(), sort_keys=True, default=str)
    assert worker.lines_ingested == len(lines)
    assert worker.entries_ingested == reference.summary(top_k=1).n_entries
    assert worker.feed_errors == 0


def test_binary_ingest_matches_text_ingest(logs):
    text_path, bin_path = logs
    text, _ = text_worker(text_path, keep_sessions=True)
    binary = binary_worker(bin_path, keep_sessions=True)
    assert canonical_state(text) == canonical_state(binary)
    text_sessions = text.finish()
    binary_sessions = binary.finish()
    text_names = text.intern_table()
    binary_names = [player for _, player, _ in
                    (binary._identities[k]
                     for k in range(len(binary._identities)))]
    assert session_rows(text_names, text_sessions) == session_rows(
        binary_names, binary_sessions)


def test_finish_matches_batch_sessionizer(logs):
    text_path, _ = logs
    worker, _ = text_worker(text_path, keep_sessions=True)
    finalized = worker.finish()
    trace = read_wms_log(text_path)
    sessions = sessionize(trace, timeout=TIMEOUT)
    client, start, end, count = sessions.session_columns()
    batch_rows = sorted(zip(
        (trace.clients.player_ids[k] for k in client.tolist()),
        start.tolist(), end.tolist(), count.tolist(), strict=True))
    assert session_rows(worker.intern_table(), finalized) == batch_rows
    assert worker.late_drops == 0


def test_gap_and_on_time_moments_populated(logs):
    text_path, _ = logs
    worker, _ = text_worker(text_path)
    worker.finish()
    assert worker.gap_moments_count() > 0
    mu, sigma = worker.gap_moments()
    assert np.isfinite(mu) and np.isfinite(sigma)
    on_mu, on_sigma = worker.on_time_moments()
    assert np.isfinite(on_mu) and np.isfinite(on_sigma)
    counts = worker.sessions_per_client()
    assert int(counts.sum()) == int(worker.sessionizer.n_finalized)


# ----------------------------------------------------------------------
# Protocol and mode guards
# ----------------------------------------------------------------------
def test_entries_before_clients_is_protocol_error():
    worker = FeedWorker("feed0")
    quantized = {name: np.zeros(1, dtype=np.int64)
                 for name in ("timestamp", "client_index", "object_id",
                              "duration", "bandwidth_bps", "packet_loss_q",
                              "server_cpu_q", "status")}
    with pytest.raises(ProtocolError):
        worker.ingest_entries(quantized)


def test_entries_referencing_undeclared_client_is_protocol_error():
    worker = FeedWorker("feed0")
    worker.ingest_clients([(0, "10.0.0.1", "player-a", "WinNT")])
    quantized = {name: np.zeros(1, dtype=np.int64)
                 for name in ("timestamp", "client_index", "object_id",
                              "duration", "bandwidth_bps", "packet_loss_q",
                              "server_cpu_q", "status")}
    quantized["client_index"] = np.asarray([7], dtype=np.int64)
    with pytest.raises(ProtocolError):
        worker.ingest_entries(quantized)
    quantized["client_index"] = np.asarray([-1], dtype=np.int64)
    with pytest.raises(ProtocolError):
        worker.ingest_entries(quantized)


def quantized_entries(client_index):
    quantized = {name: np.zeros(len(client_index), dtype=np.int64)
                 for name in ("timestamp", "client_index", "object_id",
                              "duration", "bandwidth_bps", "packet_loss_q",
                              "server_cpu_q", "status")}
    quantized["client_index"] = np.asarray(client_index, dtype=np.int64)
    quantized["timestamp"] = np.arange(len(client_index), dtype=np.int64)
    return quantized


SPARSE_INDEX_SCRIPT = textwrap.dedent("""
    from repro.serve.feed import FeedWorker
    from tests.unit.serve.test_feed import quantized_entries

    worker = FeedWorker("feed0")
    worker.ingest_clients([(1 << 40, "10.0.0.1", "player-a", "WinNT"),
                           (3, "10.0.0.2", "player-b", "WinNT")])
    worker.ingest_entries(quantized_entries([1 << 40, 3, 1 << 40]))
    print(worker.entries_ingested, worker.sessions_per_client().size,
          sorted(worker.characterizer.client_counts().items()))
""")


def _cap_address_space():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_sparse_client_index_does_not_size_state():
    """A CLIENTS frame declaring index 2**40 costs one slot, not 2**40.

    Run in a child process capped at 1 GiB of address space and 60 s, so
    that state sized by the index value fails fast instead of exhausting
    the host.
    """
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [os.path.join(root, "src"), root]))
    result = subprocess.run(
        [sys.executable, "-c", SPARSE_INDEX_SCRIPT], capture_output=True,
        text=True, timeout=60, env=env, cwd=root,
        preexec_fn=_cap_address_space)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.split(maxsplit=2) == [
        "3", "2", "[('player-a', 2), ('player-b', 1)]\n"]


def test_client_slots_follow_declaration_order():
    """Slots are ranks in declaration order, and survive a checkpoint."""
    original = FeedWorker("feed0", timeout=TIMEOUT)
    original.ingest_clients([(9, "10.0.0.9", "player-9", "WinNT"),
                             (2, "10.0.0.2", "player-2", "WinNT")])
    original.ingest_entries(quantized_entries([2, 9, 2]))
    assert original.sessions_per_client().size == 2
    restored = FeedWorker("feed0", timeout=TIMEOUT)
    restored.restore(original.state_meta(), original.state_arrays())
    for worker in (original, restored):
        worker.ingest_clients([(4, "10.0.0.4", "player-4", "WinNT")])
        worker.ingest_entries(quantized_entries([4, 9]))
    assert canonical_state(original) == canonical_state(restored)
    finals = [worker.finish() for worker in (original, restored)]
    np.testing.assert_array_equal(finals[0].client_index,
                                  finals[1].client_index)
    assert sorted(finals[0].client_index.tolist()) == [0, 1, 2]
    assert original.characterizer.client_counts() == {
        "player-2": 2, "player-9": 2, "player-4": 1}


def test_bad_directive_keeps_the_entries_before_it(logs):
    """An incomplete ``#Fields`` line raises, and the entries before it
    in the same batch reach both the characterizer and the sessions."""
    text_path, _ = logs
    with open(text_path, "r", encoding="utf-8") as stream:
        lines = [line.rstrip("\n") for line in stream][:60]
    worker = FeedWorker("feed0", timeout=TIMEOUT, keep_sessions=True)
    with pytest.raises(LogParseError):
        worker.ingest_lines([*lines, "#Fields: x-timestamp"])
    n_entries = worker.characterizer.summary().n_entries
    assert n_entries == 57
    assert int(worker.finish().n_transfers.sum()) == n_entries


def test_mode_conflicts_are_counted_not_fatal(logs):
    text_path, _ = logs
    worker, _ = text_worker(text_path)
    before = worker.entries_ingested
    worker.ingest_clients([(0, "ip", "player", "os")])
    assert worker.mode_conflicts == 1
    assert worker.entries_ingested == before  # the frame was ignored


def test_clients_frames_do_not_advance_the_resume_cursor(logs):
    _, bin_path = logs
    worker = binary_worker(bin_path)
    with BinaryTraceReader(bin_path) as reader:
        assert worker.frames_ingested == reader.n_segments
    assert worker.clients_frames == 1
    # Idempotent re-send (a reconnecting client always re-declares).
    worker.ingest_clients([(0, "ip", "player", "os")])
    assert worker.clients_frames == 2
    with BinaryTraceReader(bin_path) as reader:
        assert worker.frames_ingested == reader.n_segments


# ----------------------------------------------------------------------
# Backpressure
# ----------------------------------------------------------------------
def test_full_queue_sheds_offers():
    async def scenario():
        worker = FeedWorker("feed0", queue_batches=2)
        assert worker.offer_lines(["a", "b"])
        assert worker.offer_lines(["c"])
        assert not worker.offer_lines(["d", "e", "f"])
        assert worker.shed_lines == 3
        assert worker.shed_events == 1
        assert not worker.offer_entries({})
        assert not worker.offer_clients([])
        assert worker.shed_frames == 2
        assert worker.shed_events == 3
        assert worker.queue_depth == 2

    asyncio.run(scenario())


def test_consumer_loop_processes_and_drains(logs):
    text_path, _ = logs

    async def scenario():
        worker = FeedWorker("feed0", timeout=TIMEOUT)
        task = asyncio.ensure_future(worker.run())
        with open(text_path, "r", encoding="utf-8") as stream:
            lines = [line.rstrip("\n") for line in stream]
        assert worker.offer_lines(lines)
        await worker.drain()
        assert worker.lines_ingested == len(lines)
        assert worker.latency.count == 1
        await worker.shutdown()
        await task
        return worker

    worker = asyncio.run(scenario())
    reference, _ = text_worker(text_path)
    assert canonical_state(worker) == canonical_state(reference)


def test_bad_batch_is_counted_not_fatal():
    async def scenario():
        worker = FeedWorker("feed0")
        task = asyncio.ensure_future(worker.run())
        quantized = {name: np.zeros(1, dtype=np.int64)
                     for name in ("timestamp", "client_index", "object_id",
                                  "duration", "bandwidth_bps",
                                  "packet_loss_q", "server_cpu_q",
                                  "status")}
        assert worker.offer_entries(quantized)  # ENTRIES before CLIENTS
        await worker.drain()
        assert worker.feed_errors == 1
        assert worker.last_error is not None
        assert "CLIENTS" in worker.last_error
        # The worker keeps serving afterwards.
        assert worker.offer_clients([(0, "ip", "player", "os")])
        assert worker.offer_entries(quantized)
        await worker.drain()
        assert worker.feed_errors == 1
        assert worker.entries_ingested == 1
        await worker.shutdown()
        await task

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# Lateness
# ----------------------------------------------------------------------
def test_late_entries_are_dropped_and_counted():
    worker = FeedWorker("feed0", lateness=1.0)
    worker.ingest_clients([(k, f"10.0.0.{k}", f"player-{k}", "WinNT")
                           for k in range(3)])
    base = {name: np.zeros(3, dtype=np.int64)
            for name in ("object_id", "bandwidth_bps", "packet_loss_q",
                         "server_cpu_q", "status")}
    first = dict(base,
                 timestamp=np.asarray([100, 101, 102], dtype=np.int64),
                 client_index=np.asarray([0, 1, 2], dtype=np.int64),
                 duration=np.asarray([1, 1, 1], dtype=np.int64))
    worker.ingest_entries(first)
    assert worker.late_drops == 0
    # Far below the released floor: session tracking must drop it.
    late = dict(base,
                timestamp=np.asarray([10], dtype=np.int64),
                client_index=np.asarray([0], dtype=np.int64),
                duration=np.asarray([1], dtype=np.int64))
    late = {key: value[:1] for key, value in late.items()}
    worker.ingest_entries(late)
    worker.finish()
    assert worker.late_drops == 1
    # The characterizer is order-blind: it still counted the entry.
    assert worker.entries_ingested == 4


# ----------------------------------------------------------------------
# Checkpoint round trip
# ----------------------------------------------------------------------
def test_checkpoint_round_trip_mid_stream(logs):
    text_path, _ = logs
    with open(text_path, "r", encoding="utf-8") as stream:
        lines = [line.rstrip("\n") for line in stream]
    half = len(lines) // 2

    original = FeedWorker("feed0", timeout=TIMEOUT)
    original.ingest_lines(lines[:half])
    restored = FeedWorker("feed0", timeout=TIMEOUT)
    restored.restore(original.state_meta(), original.state_arrays())
    assert restored.counters() == original.counters()

    for worker in (original, restored):
        worker.ingest_lines(lines[half:])
    assert canonical_state(original) == canonical_state(restored)
    assert json.dumps(original.state_meta(), sort_keys=True) == json.dumps(
        restored.state_meta(), sort_keys=True)
    for key, value in original.state_arrays().items():
        np.testing.assert_array_equal(value, restored.state_arrays()[key],
                                      err_msg=key)


def test_checkpoint_round_trip_binary(logs):
    _, bin_path = logs
    original = FeedWorker("feed0", timeout=TIMEOUT)
    with BinaryTraceReader(bin_path) as reader:
        identity = reader.client_identity_map()
        rows = [(index, ip, player, os_name)
                for index, (ip, player, os_name) in sorted(identity.items())]
        half = reader.n_segments // 2
        original.ingest_clients(rows)
        for segment in range(half):
            original.ingest_entries(reader.segment_quantized(segment))

        restored = FeedWorker("feed0", timeout=TIMEOUT)
        restored.restore(original.state_meta(), original.state_arrays())
        for segment in range(half, reader.n_segments):
            quantized = reader.segment_quantized(segment)
            original.ingest_entries(quantized)
            restored.ingest_entries(quantized)
    assert canonical_state(original) == canonical_state(restored)
    assert json.dumps(original.state_meta(), sort_keys=True) == json.dumps(
        restored.state_meta(), sort_keys=True)


def _truncate(key):
    def mutate(meta, arrays):
        arrays[key] = arrays[key][:3]
    return mutate


def _drop_meta(key):
    def mutate(meta, arrays):
        del meta[key]
    return mutate


def _drop_array(key):
    def mutate(meta, arrays):
        del arrays[key]
    return mutate


def _halve_players(meta, arrays):
    arrays["players"] = arrays["players"][:arrays["players"].size // 2]


def _repeat_player(meta, arrays):
    arrays["players"] = arrays["players"][[0, 0, *range(
        2, arrays["players"].size)]]


def _players_in_binary_mode(meta, arrays):
    meta["mode"] = "binary"


#: Checkpoint corruptions that must be refused at restore time.
CORRUPTIONS = {
    **{f"short {key}": _truncate(key) for key in (
        "sess_run_max", "sess_count", "sess_start", "sess_last_start",
        "conc_deltas", "spc", "pend_client", "players")},
    "halved players": _halve_players,
    "repeated player": _repeat_player,
    "players in binary mode": _players_in_binary_mode,
    "no sess_last_start": _drop_array("sess_last_start"),
    "no reorder meta": _drop_meta("reorder"),
}


@pytest.fixture(scope="module")
def mid_stream_state(logs):
    """A text feed half-way through the log, sessions evicted and rows
    pending in the reorder buffer."""
    text_path, _ = logs
    with open(text_path, "r", encoding="utf-8") as stream:
        lines = [line.rstrip("\n") for line in stream]
    worker = FeedWorker("feed0", timeout=TIMEOUT, lateness=3600.0)
    worker.ingest_lines(lines[:len(lines) // 2])
    assert worker.sessionizer.n_finalized > 0
    assert worker.state_meta()["reorder"]["pend_rows"] > 3
    return worker.state_meta(), worker.state_arrays()


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_restore_rejects_inconsistent_checkpoint(mid_stream_state,
                                                 corruption):
    meta, arrays = json.loads(json.dumps(mid_stream_state[0])), dict(
        mid_stream_state[1])
    FeedWorker("feed0", timeout=TIMEOUT, lateness=3600.0).restore(
        meta, dict(arrays))
    CORRUPTIONS[corruption](meta, arrays)
    with pytest.raises(CheckpointError):
        FeedWorker("feed0", timeout=TIMEOUT, lateness=3600.0).restore(
            meta, arrays)
