"""Differential gate: live service ingest vs batch characterization.

The serve subsystem's core claim: the characterizer state a running
service reaches by ingesting a log over real sockets is bit-identical
to the batch pipeline consuming the same log — for both the text and
the binary wire codec, at every conformance scale.  The Table 2
parameters a feed reports once its log is finished equal the batch
``calibrate_model`` fit of the same file, bit for bit.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.conform import workload_spec
from repro.core.calibrate import calibrate_model
from repro.serve import CharacterizationService, ServeConfig, run_load_async
from repro.serve.feed import FeedWorker
from repro.serve.metrics import live_parameters
from repro.stream import run_streaming_generation
from repro.trace.codecs import BinaryTraceReader, read_binary_trace
from repro.trace.streaming import StreamingCharacterizer
from repro.trace.wms_log import LOG_FIELDS, read_wms_log


@pytest.fixture(scope="module")
def logs(tmp_path_factory):
    """Per workload name, its ``(text, binary)`` log paths (made once)."""
    root = tmp_path_factory.mktemp("serve_differential")
    cache = {}

    def _logs(name):
        if name not in cache:
            spec = workload_spec(name)
            text_path = root / f"{name}.log"
            bin_path = root / f"{name}.rtb"
            run_streaming_generation(spec.model(), spec.days,
                                     seed=spec.seed, log_path=text_path)
            run_streaming_generation(spec.model(), spec.days,
                                     seed=spec.seed, log_path=bin_path,
                                     codec="binary")
            cache[name] = text_path, bin_path
        return cache[name]

    return _logs


def _batch_state(text_path):
    characterizer = StreamingCharacterizer()
    with open(text_path, "r", encoding="utf-8") as stream:
        characterizer.consume_lines([line.rstrip("\n") for line in stream],
                                    list(LOG_FIELDS))
    return json.dumps(characterizer.state_dict(), sort_keys=True,
                      default=str)


def _live_state(log_path):
    """Boot a service, replay the log over TCP, render its state."""
    async def runner():
        service = CharacterizationService(
            ServeConfig(tcp_port=0, http_port=0))
        await service.start()
        try:
            report = await run_load_async(log_path,
                                          tcp_port=service.tcp_port,
                                          http_port=service.http_port)
            worker = service.workers["feed0"]
            await worker.drain()
            assert report.retries == 0
            assert worker.feed_errors == 0
            assert worker.shed_events == 0
            return json.dumps(worker.characterizer.state_dict(),
                              sort_keys=True, default=str)
        finally:
            await service.stop()

    return asyncio.run(runner())


def test_live_ingest_bit_identical_to_batch(logs, conform_workload):
    text_path, bin_path = logs(conform_workload)
    batch = _batch_state(text_path)
    assert _live_state(text_path) == batch, "text codec diverged from batch"
    assert _live_state(bin_path) == batch, "binary codec diverged from batch"


def _finished_text_feed(path):
    worker = FeedWorker("feed0")
    with open(path, "r", encoding="utf-8") as stream:
        lines = [line.rstrip("\n") for line in stream]
    for lo in range(0, len(lines), 2048):
        worker.ingest_lines(lines[lo:lo + 2048])
    worker.finish()
    return worker


def _finished_binary_feed(path):
    worker = FeedWorker("feed0")
    with BinaryTraceReader(path) as reader:
        worker.ingest_clients(
            [(index, ip, player, os_name) for index, (ip, player, os_name)
             in sorted(reader.client_identity_map().items())])
        for segment in range(reader.n_segments):
            worker.ingest_entries(reader.segment_quantized(segment))
    worker.finish()
    return worker


def _calibrated_parameters(trace):
    """``calibrate_model``'s values of the fields ``live_parameters``
    reports."""
    fit = calibrate_model(trace)
    return {
        "gap_log_mu": fit.gap_fit.mu,
        "gap_log_sigma": fit.gap_fit.sigma,
        "interest_alpha": fit.interest_fit.alpha,
        "length_log_mu": fit.length_fit.mu,
        "length_log_sigma": fit.length_fit.sigma,
        "session_on_log_mu": fit.session_on_fit.mu,
    }


def test_finished_feed_parameters_equal_calibrate_model(logs,
                                                        conform_workload):
    text_path, bin_path = logs(conform_workload)
    text = _finished_text_feed(text_path)
    binary = _finished_binary_feed(bin_path)
    assert text.feed_errors == binary.feed_errors == 0
    assert text.late_drops == binary.late_drops == 0
    assert live_parameters(text) == _calibrated_parameters(
        read_wms_log(text_path)), "text feed differs from calibrate_model"
    assert live_parameters(binary) == _calibrated_parameters(
        read_binary_trace(bin_path)), "binary feed differs from calibrate_model"
