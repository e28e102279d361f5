"""Integration tests: the live characterization service end to end.

Every test boots a real service on ephemeral ports inside one asyncio
scenario, drives it over real sockets (raw, or through the replay load
harness), and compares the resulting live state against the batch
pipeline on the same log.
"""

import asyncio
import dataclasses
import errno
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.model import LiveWorkloadModel
from repro.parallel import characterize_logs
from repro.serve import CharacterizationService, ServeConfig, run_load_async
from repro.serve.protocol import format_handshake, pack_end, pack_meta
from repro.serve.service import MAX_PARTIAL_LINE
from repro.stream import checkpoint, run_streaming_generation
from repro.trace.streaming import StreamingCharacterizer
from repro.trace.wms_log import LOG_FIELDS

SEED = 16180


@pytest.fixture(scope="module")
def logs(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve_service")
    model = LiveWorkloadModel.paper_defaults(mean_session_rate=0.05,
                                            n_clients=120)
    text_path = root / "run.log"
    bin_path = root / "run.rtb"
    run_streaming_generation(model, 1.0, seed=SEED, log_path=text_path)
    run_streaming_generation(model, 1.0, seed=SEED, log_path=bin_path,
                             codec="binary")
    return text_path, bin_path


@pytest.fixture(scope="module")
def batch_state(logs):
    """The batch characterizer state for the text log (the oracle)."""
    text_path, _ = logs
    characterizer = StreamingCharacterizer()
    with open(text_path, "r", encoding="utf-8") as stream:
        characterizer.consume_lines([line.rstrip("\n") for line in stream],
                                    list(LOG_FIELDS))
    return json.dumps(characterizer.state_dict(), sort_keys=True,
                      default=str)


def serve_scenario(coroutine_factory, **config_kwargs):
    """Boot a service on ephemeral ports, run the scenario, stop cleanly."""
    async def runner():
        config = ServeConfig(tcp_port=0, http_port=0, **config_kwargs)
        service = CharacterizationService(config)
        await service.start()
        try:
            return await coroutine_factory(service)
        finally:
            await service.stop()

    return asyncio.run(runner())


async def http_get(port, path):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: x\r\n"
                 "Connection: close\r\n\r\n".encode("ascii"))
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split()[1])
    return status, json.loads(body) if body else None


def live_state(service, feed="feed0"):
    worker = service.workers[feed]
    return json.dumps(worker.characterizer.state_dict(), sort_keys=True,
                      default=str)


# ----------------------------------------------------------------------
# End-to-end, both codecs
# ----------------------------------------------------------------------
def test_text_tcp_load_matches_batch(logs, batch_state):
    text_path, _ = logs

    async def scenario(service):
        report = await run_load_async(text_path, tcp_port=service.tcp_port,
                                      http_port=service.http_port)
        worker = service.workers["feed0"]
        await worker.drain()
        assert report.codec == "text"
        assert report.retries == 0
        assert worker.feed_errors == 0
        assert worker.shed_events == 0
        assert report.lines_sent == worker.lines_ingested
        return live_state(service)

    assert serve_scenario(scenario) == batch_state


def test_binary_tcp_load_matches_batch(logs, batch_state):
    _, bin_path = logs

    async def scenario(service):
        report = await run_load_async(bin_path, tcp_port=service.tcp_port,
                                      http_port=service.http_port)
        worker = service.workers["feed0"]
        await worker.drain()
        assert report.codec == "binary"
        assert worker.feed_errors == 0
        assert report.frames_sent == worker.frames_ingested
        return live_state(service)

    assert serve_scenario(scenario) == batch_state


def test_multi_feed_partition_covers_the_log(logs):
    text_path, _ = logs

    async def scenario(service):
        report = await run_load_async(text_path, tcp_port=service.tcp_port,
                                      http_port=service.http_port, feeds=3)
        total_entries = 0
        for name in ("feed0", "feed1", "feed2"):
            worker = service.workers[name]
            await worker.drain()
            assert worker.feed_errors == 0
            total_entries += worker.entries_ingested
        assert report.feeds.keys() == {"feed0", "feed1", "feed2"}
        return total_entries

    single = StreamingCharacterizer()
    with open(text_path, "r", encoding="utf-8") as stream:
        single.consume_lines([line.rstrip("\n") for line in stream],
                             list(LOG_FIELDS))
    assert serve_scenario(scenario) == single.summary(top_k=1).n_entries


# ----------------------------------------------------------------------
# Failure paths
# ----------------------------------------------------------------------
def test_disconnect_mid_line_is_counted(logs):
    text_path, _ = logs

    async def scenario(service):
        with open(text_path, "r", encoding="utf-8") as stream:
            lines = [line.rstrip("\n") for line in stream]
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", service.tcp_port)
        writer.write(format_handshake("text", "feed0"))
        # Two whole lines, then vanish mid-way through the third.
        writer.write(("\n".join(lines[:2]) + "\n"
                      + lines[2][:10]).encode("ascii"))
        await writer.drain()
        writer.close()
        await writer.wait_closed()
        worker = service.worker("feed0")
        for _ in range(200):
            if worker.truncated_lines:
                break
            await asyncio.sleep(0.01)
        await worker.drain()
        assert worker.truncated_lines == 1
        assert worker.lines_ingested == 2
        # The feed still accepts a follow-up connection.
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", service.tcp_port)
        writer.write(format_handshake("text", "feed0"))
        writer.write((lines[2] + "\n").encode("ascii"))
        writer.write_eof()
        response = await reader.readline()
        assert response.startswith(b"OK ")
        writer.close()
        await worker.drain()
        assert worker.lines_ingested == 3

    serve_scenario(scenario)


def test_endless_text_line_is_refused(logs):
    """A partial line past MAX_PARTIAL_LINE gets ERR instead of a buffer
    that grows with every read; whole lines before it are ingested."""
    text_path, _ = logs

    async def scenario(service):
        with open(text_path, "r", encoding="utf-8") as stream:
            lines = [line.rstrip("\n") for line in stream]
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", service.tcp_port)
        writer.write(format_handshake("text", "feed0"))
        writer.write(("\n".join(lines[:2]) + "\n").encode("ascii"))
        writer.write(b"7" * (MAX_PARTIAL_LINE + 1))
        writer.write_eof()
        response = await reader.readline()
        writer.close()
        assert response.startswith(b"ERR ")
        assert b"longer than" in response
        worker = service.worker("feed0")
        await worker.drain()
        assert worker.lines_ingested == 2
        assert worker.truncated_lines == 0

    serve_scenario(scenario)


@pytest.mark.parametrize("newline", ["cr", "first-five-cr"])
def test_text_door_splits_lines_like_the_file_reader(logs, tmp_path,
                                                     newline):
    """A line ends at ``\\n``, ``\\r`` or ``\\r\\n`` on the wire as in
    a file: the feed counts what ``characterize_logs`` reads there."""
    data = logs[0].read_bytes()
    data = (data.replace(b"\n", b"\r") if newline == "cr"
            else data.replace(b"\n", b"\r", 5))
    path = tmp_path / "cr.log"
    path.write_bytes(data)
    want = characterize_logs(path)

    async def scenario(service):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", service.tcp_port)
        writer.write(format_handshake("text", "feed0"))
        # Odd-sized writes, so a ``\r`` may end one read.
        for lo in range(0, len(data), 4099):
            writer.write(data[lo:lo + 4099])
            await writer.drain()
        writer.write_eof()
        response = await reader.readline()
        writer.close()
        worker = service.worker("feed0")
        await worker.drain()
        assert json.loads(response.split(b" ", 1)[1])["truncated"] == 0
        assert worker.feed_errors == 0
        return worker.characterizer.summary()

    got = serve_scenario(scenario)
    assert want is not None and want.n_entries > 1000
    np.testing.assert_equal(dataclasses.asdict(got),
                            dataclasses.asdict(want))


def test_replayed_cr_log_sends_the_lines_the_feed_counts(logs, tmp_path):
    """``serve-load`` splits a replayed file where the service does, so
    its line count is the feed's resume cursor."""
    path = tmp_path / "cr.log"
    path.write_bytes(logs[0].read_bytes().replace(b"\n", b"\r"))

    async def scenario(service):
        report = await run_load_async(path, tcp_port=service.tcp_port,
                                      http_port=service.http_port)
        worker = service.workers["feed0"]
        await worker.drain()
        assert report.lines_sent == worker.lines_ingested
        return worker.characterizer.summary()

    got = serve_scenario(scenario)
    np.testing.assert_equal(dataclasses.asdict(got),
                            dataclasses.asdict(characterize_logs(path)))


def test_malformed_frame_gets_err_and_close():
    async def scenario(service):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", service.tcp_port)
        writer.write(format_handshake("binary", "feed0"))
        writer.write(pack_meta({"k": 1}))
        writer.write(b"\x63\x00\x00\x00\x00")  # unknown frame type 99
        await writer.drain()
        response = await reader.readline()
        assert response.startswith(b"ERR ")
        assert b"unknown frame type" in response
        writer.close()
        # The service survives: a well-formed connection still works.
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", service.tcp_port)
        writer.write(format_handshake("binary", "feed0"))
        writer.write(pack_end())
        response = await reader.readline()
        assert response.startswith(b"OK ")
        writer.close()

    serve_scenario(scenario)


def test_bad_handshake_gets_err():
    async def scenario(service):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", service.tcp_port)
        writer.write(b"HELLO text feed0\n")
        await writer.drain()
        response = await reader.readline()
        assert response.startswith(b"ERR ")
        writer.close()

    serve_scenario(scenario)


def test_backpressure_sheds_and_reports(logs):
    text_path, _ = logs

    async def scenario(service):
        worker = service.worker("feed0")
        worker.pause()
        with open(text_path, "r", encoding="utf-8") as stream:
            data = stream.read().encode("ascii")
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", service.tcp_port)
        writer.write(format_handshake("text", "feed0"))

        async def pump():
            # The server stops reading once it sheds and then closes, so
            # the write side must tolerate a reset mid-stream.
            try:
                for lo in range(0, len(data), 65536):
                    writer.write(data[lo:lo + 65536])
                    await writer.drain()
                writer.write_eof()
            except (ConnectionError, OSError):
                pass

        pump_task = asyncio.create_task(pump())
        try:
            response = await asyncio.wait_for(reader.read(), timeout=30.0)
        except ConnectionError:
            # The ERR line races the RST triggered by the server closing
            # with unread data; the shed counters below are authoritative.
            response = b""
        await asyncio.wait_for(pump_task, timeout=30.0)
        writer.close()
        assert response == b"" or response.startswith(b"ERR backpressure")
        assert worker.shed_events >= 1
        assert worker.shed_lines > 0
        status, metrics = await http_get(service.http_port, "/metrics")
        assert status == 200
        counters = metrics["feeds"]["feed0"]["counters"]
        assert counters["shed_lines"] == worker.shed_lines
        worker.resume_processing()
        await worker.drain()

    serve_scenario(scenario, queue_batches=2)


# ----------------------------------------------------------------------
# HTTP surface
# ----------------------------------------------------------------------
def test_http_endpoints(logs):
    text_path, _ = logs

    async def scenario(service):
        status, body = await http_get(service.http_port, "/healthz")
        assert (status, body) == (200, {"status": "ok"})
        status, _ = await http_get(service.http_port, "/nope")
        assert status == 404

        await run_load_async(text_path, tcp_port=service.tcp_port,
                             http_port=service.http_port)
        await service.workers["feed0"].drain()

        status, metrics = await http_get(service.http_port, "/metrics")
        assert status == 200
        assert metrics["service"]["n_feeds"] == 1
        feed = metrics["feeds"]["feed0"]
        assert feed["counters"]["feed_errors"] == 0
        assert feed["parameters"]["length_log_mu"] is not None
        assert feed["sessions"]["active"] >= 0

        status, state = await http_get(service.http_port, "/state")
        assert status == 200
        assert state["format"] == "repro-serve-v2"
        assert "feed0" in state["feeds"]

    serve_scenario(scenario)


def test_http_checkpoint_without_path_is_conflict():
    async def scenario(service):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", service.http_port)
        writer.write(b"POST /checkpoint HTTP/1.1\r\nHost: x\r\n"
                     b"Content-Length: 0\r\n\r\n")
        await writer.drain()
        raw = await reader.read()
        writer.close()
        assert b"409" in raw.split(b"\r\n", 1)[0]

    serve_scenario(scenario)


def test_post_ingest_is_not_a_route():
    """Data comes in over the TCP handshake only; the HTTP port serves
    reads and control."""
    async def scenario(service):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", service.http_port)
        body = b"x\n"
        writer.write(b"POST /ingest/feed0 HTTP/1.1\r\nHost: x\r\n"
                     + f"Content-Length: {len(body)}\r\n\r\n".encode("ascii")
                     + body)
        await writer.drain()
        raw = await reader.read()
        writer.close()
        assert b"404" in raw.split(b"\r\n", 1)[0]
        assert service.workers == {}

    serve_scenario(scenario)


def test_large_http_body_is_refused_unread():
    """No route reads a body, so a large one gets 413 before any of it
    is read."""
    async def scenario(service):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", service.http_port)
        writer.write(b"POST /checkpoint HTTP/1.1\r\nHost: x\r\n"
                     b"Content-Length: 1048576\r\n\r\n")
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout=30)
        writer.close()
        assert b"413" in raw.split(b"\r\n", 1)[0]

    serve_scenario(scenario)


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------
def test_resumed_service_state_is_identical(logs, tmp_path):
    text_path, _ = logs
    checkpoint = tmp_path / "serve.npz"
    with open(text_path, "r", encoding="utf-8") as stream:
        lines = [line.rstrip("\n") for line in stream]
    half = len(lines) // 2

    async def first_half(service):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", service.tcp_port)
        writer.write(format_handshake("text", "feed0"))
        writer.write(("\n".join(lines[:half]) + "\n").encode("ascii"))
        writer.write_eof()
        await reader.readline()
        writer.close()
        await service.workers["feed0"].drain()
        service.checkpoint_now()
        cursor = service.workers["feed0"].lines_ingested
        return cursor

    cursor = serve_scenario(first_half, checkpoint_path=str(checkpoint))
    assert checkpoint.exists()
    assert cursor == half

    async def resumed(service):
        worker = service.workers["feed0"]
        assert worker.lines_ingested == cursor
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", service.tcp_port)
        writer.write(format_handshake("text", "feed0"))
        writer.write(("\n".join(lines[cursor:]) + "\n").encode("ascii"))
        writer.write_eof()
        await reader.readline()
        writer.close()
        await worker.drain()
        return json.dumps(service.state_document(), sort_keys=True)

    async def uninterrupted(service):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", service.tcp_port)
        writer.write(format_handshake("text", "feed0"))
        writer.write(("\n".join(lines) + "\n").encode("ascii"))
        writer.write_eof()
        await reader.readline()
        writer.close()
        await service.workers["feed0"].drain()
        return json.dumps(service.state_document(), sort_keys=True)

    resumed_state = serve_scenario(resumed, checkpoint_path=str(checkpoint),
                                   resume=True)
    baseline_state = serve_scenario(uninterrupted)
    assert resumed_state == baseline_state


def test_resume_rejects_mismatched_config(logs, tmp_path):
    checkpoint = tmp_path / "serve.npz"

    async def write_checkpoint(service):
        service.worker("feed0")
        service.checkpoint_now()

    serve_scenario(write_checkpoint, checkpoint_path=str(checkpoint))

    from repro.errors import CheckpointError

    async def bad_resume():
        config = ServeConfig(tcp_port=0, http_port=0,
                             checkpoint_path=str(checkpoint), resume=True,
                             lateness=123.0)
        service = CharacterizationService(config)
        with pytest.raises(CheckpointError):
            await service.start()

    asyncio.run(bad_resume())


def _send_text(port, lines):
    """One text connection carrying ``lines``; returns the reply line."""
    async def send():
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(format_handshake("text", "feed0"))
        if lines:
            writer.write(("\n".join(lines) + "\n").encode("ascii"))
        writer.write_eof()
        response = await reader.readline()
        writer.close()
        return response

    return send()


def test_failed_checkpoint_save_keeps_checkpointing(logs, tmp_path,
                                                     monkeypatch):
    """The second periodic save fails with ENOSPC at the rename: the
    first checkpoint stays intact, a later save succeeds, ``stop()``
    leaves no worker running, and resuming from the checkpoint that
    survived the failure, then feeding the rest of the log, renders the
    uninterrupted ``/state``."""
    text_path, _ = logs
    checkpoint_path = tmp_path / "serve.npz"
    with open(text_path, "r", encoding="utf-8") as stream:
        lines = [line.rstrip("\n") for line in stream]
    half = len(lines) // 2
    replace = checkpoint.os.replace
    saved, before_third = [], []

    def flaky_replace(staged, dst):
        saved.append(dst)
        if len(saved) == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        if len(saved) == 3:
            # What the failed save left behind, before this one replaces
            # it: the first checkpoint and no stray temp file.
            before_third.append((Path(dst).read_bytes(), [
                p.name for p in sorted(Path(dst).parent.iterdir())
                if p != Path(staged)]))
        replace(staged, dst)
        if len(saved) == 1:
            before_third.append(Path(dst).read_bytes())

    monkeypatch.setattr(checkpoint.os, "replace", flaky_replace)

    async def leg():
        service = CharacterizationService(ServeConfig(
            tcp_port=0, http_port=0, checkpoint_path=str(checkpoint_path),
            checkpoint_interval=0.05))
        await service.start()
        try:
            assert (await _send_text(service.tcp_port,
                                     lines[:half])).startswith(b"OK ")
            await service.workers["feed0"].drain()
            for _ in range(1000):
                if service.checkpoints_written >= 2:
                    break
                await asyncio.sleep(0.01)
            status, metrics = await http_get(service.http_port, "/metrics")
            assert status == 200
            assert metrics["service"]["checkpoint_errors"] == 1
            assert "No space left" in (
                metrics["service"]["last_checkpoint_error"])
            _, state = await http_get(service.http_port, "/state")
            assert "checkpoint_errors" not in json.dumps(state)
        finally:
            await service.stop()
        others = [task for task in asyncio.all_tasks()
                  if task is not asyncio.current_task()]
        assert others == []
        return service

    service = asyncio.run(leg())
    monkeypatch.undo()
    assert service.checkpoint_errors == 1
    assert service.checkpoints_written >= 3  # the first, a later, the final
    first = before_third[0]
    intact, names = before_third[1]
    assert intact == first
    assert names == ["serve.npz"]

    survivor = tmp_path / "survivor.npz"
    survivor.write_bytes(first)

    async def resumed(service):
        worker = service.workers.get("feed0")
        cursor = 0 if worker is None else worker.lines_ingested
        await _send_text(service.tcp_port, lines[cursor:])
        await service.workers["feed0"].drain()
        return json.dumps(service.state_document(), sort_keys=True)

    async def uninterrupted(service):
        await _send_text(service.tcp_port, lines)
        await service.workers["feed0"].drain()
        return json.dumps(service.state_document(), sort_keys=True)

    assert (serve_scenario(resumed, checkpoint_path=str(survivor),
                           resume=True)
            == serve_scenario(uninterrupted))


def test_http_checkpoint_failure_is_a_json_error(tmp_path, monkeypatch):
    """``POST /checkpoint`` answers a failed save with HTTP 500 and a
    JSON error; the service keeps serving."""
    def disk_full(staged, dst):
        raise OSError(errno.ENOSPC, "No space left on device")

    async def scenario(service):
        service.worker("feed0")
        monkeypatch.setattr(checkpoint.os, "replace", disk_full)
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.http_port)
            writer.write(b"POST /checkpoint HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: 0\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
        finally:
            monkeypatch.undo()
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.split()[1] == b"500"
        assert "No space left" in json.loads(body)["error"]
        status, metrics = await http_get(service.http_port, "/metrics")
        assert status == 200
        assert metrics["service"]["checkpoint_errors"] == 1

    serve_scenario(scenario, checkpoint_path=str(tmp_path / "serve.npz"),
                   checkpoint_interval=3600.0)
