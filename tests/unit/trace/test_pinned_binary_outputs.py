"""Pinned output digests of the binary-codec characterization path.

A small resolver-backed workload is generated through the streaming
pipeline with the binary codec, then read back three ways: the ``.rtb``
bytes themselves, the map-reduce summary of ``characterize_logs`` at one
and two workers, and the full three-layer fit of the decoded, sanitized
trace.  Every one of them is exact, so any drift in client interning,
the client fold or the topology profile changes a digest.
"""

import dataclasses
import hashlib
import json
import zlib

import numpy as np
import pytest

from repro.core.characterize import characterize
from repro.core.model import LiveWorkloadModel
from repro.parallel.characterize import (
    characterize_logs,
    consume_chunk,
    plan_log_chunks,
)
from repro.stream import run_streaming_generation
from repro.trace.codecs import read_binary_trace
from repro.trace.sanitize import sanitize_trace
from repro.trace.streaming import StreamingCharacterizer

COUNTRIES = ("US", "BR", "", "JP", "BR")


def resolver(ip):
    """Deterministic ``ip -> (as, country)`` with unknown ASes/countries."""
    key = zlib.crc32(ip.encode())
    return key % 7, COUNTRIES[(key >> 8) % len(COUNTRIES)]


def _feed(h, obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        h.update(repr(obj).encode())
    elif isinstance(obj, float):
        h.update(obj.hex().encode())
    elif isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, np.generic):
        _feed(h, obj.item())
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    else:
        h.update(type(obj).__name__.encode())
        _feed(h, vars(obj))


def digest(obj):
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


@pytest.fixture(scope="module")
def rtb_path(tmp_path_factory):
    model = LiveWorkloadModel.paper_defaults(mean_session_rate=0.1,
                                             n_clients=1500)
    path = tmp_path_factory.mktemp("pinned") / "trace.rtb"
    result = run_streaming_generation(model, 1.0, seed=15, log_path=path,
                                      chunk_size=257, codec="binary")
    assert result.n_transfers == 14006
    return path


def test_rtb_bytes(rtb_path):
    assert hashlib.sha256(rtb_path.read_bytes()).hexdigest() == (
        "fc1269c3baa8484a83c65b29beb92ac6fab79312a58696f03280f5a46f4b3679")


@pytest.mark.parametrize("jobs", [1, 2])
def test_characterize_logs_summary(rtb_path, jobs):
    summary = characterize_logs(rtb_path, jobs=jobs, chunk_bytes=4096)
    assert summary.n_entries == 14006
    assert digest(summary) == (
        "72f028431288990c0aef72e27121cdb19f03a3ccbbd550b665aa7a5966dd1b16")


def test_decoded_characterization(rtb_path):
    trace = read_binary_trace(rtb_path, resolver=resolver)
    clean, _ = sanitize_trace(trace)
    fit = characterize(clean)
    assert len(fit.client.topology.country_shares) == 4
    assert digest(fit) == (
        "de183a077aefea18e00e66b85416ef900f309b6848be3cee13c678009151d59e")


def test_serial_state_dict(rtb_path):
    """The checkpoint document of a serial fold, key order included."""
    characterizer = StreamingCharacterizer()
    for chunk in plan_log_chunks([rtb_path], chunk_bytes=4096):
        consume_chunk(characterizer, chunk)
    document = json.dumps(characterizer.state_dict()).encode()
    assert hashlib.sha256(document).hexdigest() == (
        "afe42e3e5e9a386a18f772d351bdffeb82f917810b82b2b8404cb3ca0e227ec3")
