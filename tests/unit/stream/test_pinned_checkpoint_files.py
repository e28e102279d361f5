"""Pinned sha256 digests of whole checkpoint files.

Three writers put state on disk: the streaming generation pipeline (both
codecs, sessions collected), checkpointed log characterization and the live
service.  Each test below writes one checkpoint mid-run and pins the
bytes of the ``.npz`` archive itself — member order, dtypes, shapes and
the JSON scalar document — so a change to how any stage declares or
serializes its state shows up here even when a resume would still work.
"""

import hashlib
import shutil

import pytest

from repro.core.model import LiveWorkloadModel
from repro.serve.config import ServeConfig
from repro.serve.service import CharacterizationService
from repro.parallel import characterize_logs
from repro.stream import run_streaming_generation
from repro.stream.checkpoint import load_checkpoint
from repro.trace.codecs import BinaryTraceReader

SEED = 7

#: codec -> sha256 of the generation checkpoint after three blocks.
GENERATION = {
    "text": (
        "1a29b94d766507d236903191c4c9949ebaff0a7a4d77f4184eb12c500aaff407"),
    "binary": (
        "12d80df8f16a68d7f51e9a831dc5546bea01a7957c8295a536df561a2be37680"),
}

#: sha256 of the characterization checkpoint stopped mid-plan.
CHARACTERIZE = (
    "010547a571a030413922f148e9d2e8a14227019b99b7b3c683e7f1b3e6eb46a8")

#: sha256 of the service checkpoint holding one text and one binary feed.
SERVICE = (
    "96a22565069962d285623c59ecb9c380fff45bd206c32fba745b22c4c7d183f3")


@pytest.fixture(scope="module")
def model():
    return LiveWorkloadModel.paper_defaults(mean_session_rate=0.05,
                                            n_clients=200)


@pytest.fixture(scope="module")
def logs(model, tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned_checkpoint_logs")
    text, binary = root / "full.log", root / "full.rtb"
    run_streaming_generation(model, 1.0, seed=SEED, log_path=text,
                             collect_sessions=False)
    run_streaming_generation(model, 1.0, seed=SEED, log_path=binary,
                             codec="binary", collect_sessions=False)
    return text, binary


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("codec", sorted(GENERATION))
def test_generation_checkpoint_file(model, tmp_path, codec):
    checkpoint = tmp_path / "gen.npz"
    result = run_streaming_generation(
        model, 1.0, seed=SEED, chunk_size=17, log_path=tmp_path / "out",
        codec=codec, checkpoint_path=checkpoint, max_blocks=3)
    assert not result.completed
    _, arrays = load_checkpoint(checkpoint)
    # Every variable-length part of the cursor is non-empty.
    for key in ("gen_pending_start", "log_end", "fin_start"):
        assert arrays[key].size > 0, key
    assert _sha256(checkpoint) == GENERATION[codec]


def test_characterize_checkpoint_file(logs, tmp_path, monkeypatch):
    # The fingerprint records the log path: use a fixed relative one.
    monkeypatch.chdir(tmp_path)
    shutil.copyfile(logs[0], "full.log")
    summary = characterize_logs(
        "full.log", checkpoint_path="chk.npz", chunk_bytes=8_192,
        max_chunks=5)
    checkpoint = tmp_path / "chk.npz"
    assert summary is None
    assert _sha256(checkpoint) == CHARACTERIZE


def test_service_checkpoint_file(logs, tmp_path):
    checkpoint = tmp_path / "serve.npz"
    service = CharacterizationService(ServeConfig(
        tcp_port=0, http_port=0, checkpoint_path=str(checkpoint),
        lateness=3600.0))
    text = service.workers["text"] = service._new_worker("text")
    with open(logs[0], encoding="ascii") as stream:
        lines = [line.rstrip("\n") for line in stream]
    for lo in range(0, len(lines) // 2, 500):
        text.ingest_lines(lines[lo:min(lo + 500, len(lines) // 2)])
    binary = service.workers["binary"] = service._new_worker("binary")
    with BinaryTraceReader(logs[1]) as reader:
        binary.ingest_clients(
            [(index, ip, player, os_name) for index, (ip, player, os_name)
             in sorted(reader.client_identity_map().items())])
        for segment in range(reader.n_segments):
            binary.ingest_entries(reader.segment_quantized(segment))
    assert text.sessionizer.n_finalized > 0
    assert binary.sessionizer.n_finalized > 0
    service.checkpoint_now()
    _, arrays = load_checkpoint(checkpoint)
    assert arrays["f1_pend_start"].size > 0  # the text feed is f1
    assert _sha256(checkpoint) == SERVICE
