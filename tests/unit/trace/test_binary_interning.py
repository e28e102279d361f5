"""Client interning on the binary path, against today's reference.

``read_binary_trace`` maps every entry's ``client_index`` to a slot among
the declared clients and re-interns clients in first-appearance order
with one scatter.  ``_reference_read_binary_trace`` is the ``np.unique``
interning it replaced, kept here as the oracle.  The same slot mapping
guards ``characterize_logs``: crafted files with negative, dangling or
huge client indices must raise :class:`TraceError` quickly instead of
returning a summary, raising ``IndexError`` or allocating by index value.
"""

import dataclasses
import io
import json
import signal
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.errors import TraceError
from repro.parallel.characterize import characterize_logs, plan_log_chunks
from repro.rng import make_rng
from repro.trace.codecs import (
    FOOTER_MAGIC,
    BinaryTraceReader,
    BinaryTraceWriter,
    decode_entry_columns,
    read_binary_trace,
)
from repro.trace.store import ClientTable, Trace


def _reference_read_binary_trace(path, resolver=None):
    with BinaryTraceReader(path) as reader:
        quantized = reader.all_quantized()
        identities = reader.client_identity_map()

    original = quantized["client_index"]
    unique, first_pos, inverse = np.unique(
        original, return_index=True, return_inverse=True)
    appearance = np.argsort(first_pos, kind="stable")
    rank = np.empty(appearance.size, dtype=np.int64)
    rank[appearance] = np.arange(appearance.size, dtype=np.int64)
    dense = rank[inverse] if original.size else np.empty(0, dtype=np.int64)

    rows = []
    for index in unique[appearance].tolist():
        try:
            ip, player_id, os_name = identities[int(index)]
        except KeyError:
            raise TraceError(
                f"{path}: entry references client {index} absent from "
                "every client block") from None
        as_number, country = (resolver(ip) if resolver is not None
                              else (0, ""))
        rows.append((ip, player_id, os_name, as_number, country))

    decoded = decode_entry_columns(quantized)
    clients = ClientTable(player_ids=[r[1] for r in rows],
                          ips=[r[0] for r in rows],
                          as_numbers=[r[3] for r in rows],
                          countries=[r[4] for r in rows],
                          os_names=[r[2] for r in rows])
    return Trace(clients=clients, client_index=dense,
                 object_id=decoded["object_id"], start=decoded["start"],
                 duration=decoded["duration"],
                 bandwidth_bps=decoded["bandwidth_bps"],
                 packet_loss=decoded["packet_loss"],
                 server_cpu=decoded["server_cpu"], status=decoded["status"])


def identity(index):
    return f"10.{index % 251}.{(index // 251) % 256}.7", f"pl{index}", "Linux"


def resolver(ip):
    octet = int(ip.split(".")[1])
    return octet % 5, ("BR", "US", "", "JP")[octet % 4]


def _write_rtb(stream, batches, *, writer=None, offset=0, clock=0.0):
    """Push each batch of client indices as one flushed entry segment."""
    writer = writer or BinaryTraceWriter(stream, identity)
    for client in batches:
        n = len(client)
        start = clock + np.arange(n, dtype=np.float64)
        writer.push(client_index=np.asarray(client, dtype=np.int64),
                    object_id=np.arange(n) % 2, start=start,
                    duration=np.full(n, 2.0),
                    bandwidth_bps=np.linspace(10_000.0, 90_000.0, n),
                    global_offset=offset, horizon=start[-1] + 10.0)
        clock = float(start[-1]) + 10.0
        offset += n
    return writer, offset, clock


def _batches(seed, declared, n_batches=8):
    rng = make_rng(seed)
    return [declared[rng.zipf(1.5, int(rng.integers(1, 300)))
                     % declared.size] for _ in range(n_batches)]


def _rtb(path, batches):
    with open(path, "wb") as stream:
        writer, _, _ = _write_rtb(stream, batches)
        writer.finish()
    return path


DECLARED = {
    "dense": np.arange(200, dtype=np.int64),
    "holes": np.arange(0, 600, 3, dtype=np.int64),       # slot table
    "sparse": np.arange(0, 1400, 7, dtype=np.int64),     # binary search
    "huge": np.asarray([-(2 ** 40), -3, 0, 5, 2 ** 40, 2 ** 62],
                       dtype=np.int64),
    "unsorted": np.asarray([90, 4, 61, 17, 2, 33], dtype=np.int64),
}


@pytest.mark.parametrize("kind", sorted(DECLARED))
@pytest.mark.parametrize("seed", range(2))
def test_decode_matches_reference_interning(tmp_path, kind, seed):
    path = _rtb(tmp_path / "t.rtb", _batches(seed, DECLARED[kind]))
    got = read_binary_trace(path, resolver=resolver)
    want = _reference_read_binary_trace(path, resolver=resolver)
    for column in ("client_index", "object_id", "start", "duration",
                   "bandwidth_bps", "packet_loss", "server_cpu", "status"):
        assert np.array_equal(getattr(got, column),
                              getattr(want, column)), column
    for column in ("player_ids", "ips", "os_names", "as_numbers",
                   "countries"):
        assert np.array_equal(getattr(got.clients, column),
                              getattr(want.clients, column)), column


@pytest.fixture
def small_rtb(tmp_path):
    return _rtb(tmp_path / "small.rtb",
                _batches(3, np.arange(40, dtype=np.int64), 5))


def _craft(src, dst, *, footer_edit=None, byte_edit=None):
    """Copy ``src`` with its footer and/or payload bytes edited."""
    data = bytearray(src.read_bytes())
    offset = int.from_bytes(data[-16:-8], "little")
    footer = json.loads(data[offset:-16].decode("utf-8"))
    if footer_edit is not None:
        footer_edit(footer)
    if byte_edit is not None:
        byte_edit(data, footer)
    body = json.dumps(footer, sort_keys=True).encode("utf-8")
    dst.write_bytes(bytes(data[:offset]) + body
                    + offset.to_bytes(8, "little") + FOOTER_MAGIC)
    return dst


def _shift_client_base(shift):
    def edit(footer):
        for segment in footer["segments"]:
            segment["columns"]["client_index"]["base"] += shift
    return edit


def _declare_huge_index(data, footer):
    # Re-declare the first client of the first block as index 2**40.
    at = footer["clients"][0]["index_offset"]
    data[at:at + 8] = (2 ** 40).to_bytes(8, "little", signed=True)


def _block_indices(data, block):
    at = block["index_offset"]
    return np.frombuffer(bytes(data[at:at + 8 * block["n"]]), dtype="<i8")


def _punch_hole(data, footer):
    # Re-declare a client strictly inside the declared span as its block
    # neighbour: its entries then dangle inside the slot table's span.
    declared = np.concatenate([_block_indices(data, block)
                               for block in footer["clients"]])
    block = footer["clients"][0]
    first = _block_indices(data, block)
    k = int(np.flatnonzero((first > declared.min())
                           & (first < declared.max()))[0])
    target = block["index_offset"] + 8 * k
    donor = target + (8 if k + 1 < first.size else -8)
    data[target:target + 8] = data[donor:donor + 8]


@contextmanager
def _fails_fast(limit=1.0):
    """Fail (not hang) if the body runs past ``limit`` seconds."""
    def expire(signum, frame):
        raise AssertionError(f"still running after {5 * limit} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5 * limit)
    began = time.perf_counter()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - began < limit


HOSTILE = {
    "base-5": {"footer_edit": _shift_client_base(-5)},
    "base-1e6": {"footer_edit": _shift_client_base(-10 ** 6)},
    "declares-2**40": {"byte_edit": _declare_huge_index},
    "hole": {"byte_edit": _punch_hole},
}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_files_raise_trace_error_fast(tmp_path, small_rtb, case):
    path = _craft(small_rtb, tmp_path / "hostile.rtb", **HOSTILE[case])
    with _fails_fast(), pytest.raises(
            TraceError, match="absent from every client block"):
        read_binary_trace(path)
    with _fails_fast(), pytest.raises(
            TraceError, match="absent from every client block"):
        characterize_logs(path, jobs=1)


def test_dangling_error_names_the_reference_index(tmp_path, small_rtb):
    path = _craft(small_rtb, tmp_path / "hostile.rtb",
                  footer_edit=_shift_client_base(-5))
    with pytest.raises(TraceError) as want:
        _reference_read_binary_trace(path)
    with pytest.raises(TraceError) as got:
        read_binary_trace(path)
    assert str(got.value) == str(want.value)


def test_summary_same_at_one_and_two_workers(tmp_path):
    path = _rtb(tmp_path / "t.rtb",
                _batches(4, DECLARED["huge"], 6) + _batches(5, DECLARED["dense"]))
    assert len(plan_log_chunks([path], chunk_bytes=512)) > 2
    serial = characterize_logs(path, jobs=1, chunk_bytes=512)
    pooled = characterize_logs(path, jobs=2, chunk_bytes=512)
    for field in dataclasses.fields(serial):
        a, b = getattr(serial, field.name), getattr(pooled, field.name)
        assert (np.array_equal(a, b) if isinstance(a, np.ndarray)
                else a == b), field.name


def test_writer_kill_and_resume_byte_identical():
    batches = _batches(6, DECLARED["huge"], 10)
    whole = io.BytesIO()
    writer, _, _ = _write_rtb(whole, batches)
    writer.finish()

    stream = io.BytesIO()
    first, offset, clock = _write_rtb(stream, batches[:5])
    meta = json.loads(json.dumps(first.state_meta()))
    arrays = {name: np.array(value, copy=True)
              for name, value in first.state_arrays().items()}
    seen = arrays["seen_clients"]
    assert seen.dtype == np.int64 and np.all(np.diff(seen) > 0)
    assert set(seen.tolist()) == {int(c) for b in batches[:5] for c in b}

    stream.truncate(first.byte_offset)
    stream.seek(first.byte_offset)
    resumed = BinaryTraceWriter(stream, identity, write_header=False)
    resumed.restore(meta, arrays)
    _write_rtb(stream, batches[5:], writer=resumed, offset=offset,
               clock=clock)
    resumed.finish()
    assert stream.getvalue() == whole.getvalue()
