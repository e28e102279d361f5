"""``bytes_served`` is one exact sum, rounded once, on every path.

A log of a 2**60 bps transfer followed by two 100 bps ones (1 s each)
sums to ``2**60 + 200`` bits, which a float running total cannot hold:
adding the small products one at a time to 2**60 drops both.  Every
reader must report the correctly rounded ``(2**60 + 200) / 8``, whatever
its codec, chunking or batching, and so must the batch trace, its replay
and a CDN edge that serves the same three transfers.  A characterizer
checkpoint that holds ``bits`` as a float (the format before the sum was
exact) is refused by every resume path rather than resumed.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

from repro.arrayops import exact_sum
from repro.cdn import CdnTopology, LegSet
from repro.cdn.report import build_result
from repro.cli import main
from repro.errors import CheckpointError
from repro.parallel.characterize import characterize_logs, plan_log_chunks
from repro.serve.config import ServeConfig
from repro.serve.feed import FeedWorker
from repro.serve.service import CharacterizationService
from repro.simulation.replay import replay_trace
from repro.stream.checkpoint import load_checkpoint, save_checkpoint
from repro.trace.codecs import read_binary_trace, write_binary_trace
from repro.trace.streaming import StreamingCharacterizer
from repro.trace.wms_log import read_wms_log, write_wms_log
from tests.conftest import build_trace

#: ``(2**60 + 200) / 8`` rounded once; a float running total reads
#: ``0x1.0000000000000p+57``.
EXPECTED = "0x1.0000000000001p+57"


@pytest.fixture(scope="module")
def logs(tmp_path_factory):
    trace = build_trace([(0, 0, 1000.0, 1.0, 2.0 ** 60),
                         (1, 0, 1001.0, 1.0, 100.0),
                         (2, 0, 1002.0, 1.0, 100.0)])
    root = tmp_path_factory.mktemp("exact_bits")
    text, binary = root / "probe.log", root / "probe.rtb"
    write_wms_log(trace, text)
    write_binary_trace(trace, binary)
    assert len(plan_log_chunks([text], chunk_bytes=180)) > 1  # merged
    return text, binary


def test_serial_consume(logs):
    characterizer = StreamingCharacterizer()
    characterizer.consume(logs[0])
    assert characterizer.summary().bytes_served.hex() == EXPECTED


@pytest.mark.parametrize("chunk_bytes", [180, 1 << 20])
@pytest.mark.parametrize("codec", ["text", "binary"])
def test_characterize_logs(logs, codec, chunk_bytes):
    path = logs[codec == "binary"]
    summary = characterize_logs(path, chunk_bytes=chunk_bytes)
    assert summary.n_entries == 3
    assert summary.bytes_served.hex() == EXPECTED


@pytest.mark.parametrize("codec", ["text", "binary"])
def test_batch_trace_and_replay(logs, codec):
    read = read_binary_trace if codec == "binary" else read_wms_log
    trace = read(logs[codec == "binary"])
    assert trace.bytes_served().hex() == EXPECTED
    assert replay_trace(trace).bytes_served.hex() == EXPECTED


def test_edge_report():
    # The large leg first: a dot product in leg order drops both small
    # ones, as the float running total does.
    start = np.asarray([1000.0, 1001.0, 1002.0])
    legs = LegSet(transfer=np.arange(3), start=start, end=start + 1.0,
                  edge=np.zeros(3, dtype=np.int64),
                  rate=np.asarray([2 ** 60, 100, 100], dtype=np.int64),
                  admitted=np.ones(3, dtype=bool),
                  failover=np.zeros(3, dtype=bool))
    trace = build_trace([(i, 0, s, 1.0) for i, s in enumerate(start)])
    result = build_result(trace, CdnTopology.uniform(1), "sticky", legs)
    assert result.edges[0].bytes_served.hex() == EXPECTED


def test_feed_fed_one_line_per_batch(logs):
    worker = FeedWorker("feed0")
    for line in logs[0].read_text(encoding="ascii").splitlines():
        worker.ingest_lines([line])
    assert worker.entries_ingested == 3
    assert worker.characterizer.summary().bytes_served.hex() == EXPECTED


@pytest.mark.parametrize("values", [
    [5e-324, 2.0 ** -1022, np.nextafter(2.0 ** -1022, 0.0), 0.5, 1.0],
    [np.finfo(np.float64).max, 1.0, 3.0 * 2.0 ** -1074],
    [2.0 ** 60, 100.0, 100.0, 0.0, -0.0, -5.0, np.nan],
], ids=["subnormal", "extremes", "skipped"])
def test_exact_sum_is_the_sum_of_the_positive_values(values):
    values = np.asarray(values, dtype=np.float64)
    want = sum(Fraction(float(v)) for v in values if v > 0) * 2 ** 1074
    assert want.denominator == 1
    assert exact_sum(values) == want.numerator
    assert exact_sum(values[::-1]) == want.numerator


def _float_bits(document):
    """Rewrite a characterizer document's ``bits`` (an integer count of
    2**-1074 bits) in the old form, a float count of bits."""
    assert type(document["bits"]) is int
    document["bits"] = document["bits"] / (1 << 1074)


@pytest.fixture
def old_checkpoint(logs, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "probe.log").write_bytes(logs[0].read_bytes())
    assert characterize_logs(
        "probe.log", checkpoint_path="chk.npz", chunk_bytes=180,
        max_chunks=1) is None
    meta, arrays = load_checkpoint("chk.npz")
    _float_bits(meta["characterizer"])
    save_checkpoint("chk.npz", meta, arrays)
    return "chk.npz"


def test_resumable_refuses_float_bits(old_checkpoint):
    with pytest.raises(CheckpointError, match="'bits' has the wrong type"):
        characterize_logs(
            "probe.log", checkpoint_path=old_checkpoint, chunk_bytes=180,
            resume=True)


def test_cli_resume_refuses_float_bits(old_checkpoint, capsys):
    # The CLI's default chunk size makes a different fingerprint, so
    # only the characterizer state is at fault in this checkpoint.
    meta, arrays = load_checkpoint(old_checkpoint)
    meta["fingerprint"]["chunk_bytes"] = 8 * 1024 * 1024
    meta["next_chunk"] = 0
    save_checkpoint(old_checkpoint, meta, arrays)
    code = main(["characterize", "--log", "probe.log",
                 "--checkpoint", old_checkpoint, "--resume"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("checkpoint error:")
    assert "'bits'" in captured.err
    assert captured.out == ""


def test_negative_bits_refused():
    document = json.loads(json.dumps(StreamingCharacterizer().state_dict()))
    document["bits"] = -1
    with pytest.raises(CheckpointError, match="negative bits"):
        StreamingCharacterizer().restore(document, {})


def test_service_restore_refuses_float_bits(logs, tmp_path):
    path = str(tmp_path / "serve.npz")
    service = CharacterizationService(ServeConfig(
        tcp_port=0, http_port=0, checkpoint_path=path))
    worker = service.workers["text"] = service._new_worker("text")
    worker.ingest_lines(logs[0].read_text(encoding="ascii").splitlines())
    service.checkpoint_now()
    meta, arrays = load_checkpoint(path)
    _float_bits(meta["feeds"]["text"]["characterizer"])
    save_checkpoint(path, meta, arrays)
    restored = CharacterizationService(ServeConfig(
        tcp_port=0, http_port=0, checkpoint_path=path))
    with pytest.raises(CheckpointError, match="'bits' has the wrong type"):
        restored.restore_from(path)
