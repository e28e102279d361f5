"""The one entry rule and the doors that apply it.

:func:`repro.trace.entries.entry_rule` is checked row by row against
:func:`_reference_first_failure`, a plain statement of its checks; then
the doors: a ``.rtb`` file holding an entry the rule refuses is refused
alike by ``read_binary_trace``, ``characterize_logs`` and a serve feed's
ENTRIES frame, and a trace with a bandwidth no ``.rtb`` can hold is
refused by both writers.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError, TraceError
from repro.parallel.characterize import characterize_logs
from repro.serve.feed import FeedWorker
from repro.trace.codecs import (
    BinaryTraceReader,
    read_binary_trace,
    write_binary_trace,
)
from repro.trace.entries import ENTRY_CHECKS, entry_rule, require_entries
from repro.trace.store import Trace
from repro.trace.wms_log import write_wms_log
from tests.conftest import build_trace
from tests.unit.trace.test_binary_interning import _craft
from tests.unit.trace.test_pinned_text_log_bytes import edge_trace


def _reference_first_failure(row, n_clients):
    """Index into ENTRY_CHECKS of the first check ``row`` fails, or
    ``None``; exact comparisons of Python numbers.  The client is only
    checked against a client count."""
    start, duration, bandwidth, loss, cpu, client = row
    checks = (
        math.isfinite(duration),
        0 <= duration < 2**53,
        math.isfinite(start),
        -(2**63) <= start + duration < 2**63,
        abs(bandwidth) < 2**63,
        abs(loss) < 2**53 / 10**4,
        abs(cpu) < 2**53 / 10**4,
        n_clients is None or 0 <= client < n_clients,
    )
    return next((k for k, ok in enumerate(checks) if not ok), None)


EDGES = [0.0, -0.0, -4.0, 1.5, 2.0**53 - 1, 2.0**53, 2.0**62, 2.0**63,
         2.0**63 - 1024, -(2.0**63), 900719925474.0991, 2.0**53 / 1e4,
         math.inf, -math.inf, math.nan]

value = st.one_of(st.sampled_from(EDGES), st.floats(-1e6, 1e6),
                  st.floats())


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(value, value, value, value, value,
                          st.integers(-2, 6)), max_size=12),
       st.sampled_from([None, 5]))
def test_rule_matches_reference_row_by_row(rows, n_clients):
    names = ("start", "duration", "bandwidth_bps", "packet_loss",
             "server_cpu", "client_index")
    columns = {name: np.asarray([row[k] for row in rows],
                                dtype=np.int64 if k == 5 else np.float64)
               for k, name in enumerate(names)}
    admitted, checks = entry_rule(columns, n_clients)
    want = [_reference_first_failure(row, n_clients) for row in rows]
    assert admitted.tolist() == [k is None for k in want]
    assert checks.tolist() == [k for k in want if k is not None]


def test_optional_columns_and_message():
    require_entries({"start": [1.0], "duration": [2.0]})
    admitted, checks = entry_rule({"start": [], "duration": []})
    assert admitted.size == checks.size == 0
    with pytest.raises(TraceError) as excinfo:
        require_entries({"start": [0.0, 2.0**63], "duration": [1.0, 0.0]},
                        offset=10)
    assert str(excinfo.value) == (
        "transfer 11: start + duration does not floor to an int64 "
        "(9.223372036854776e+18 + 0.0)")
    assert ENTRY_CHECKS[3][0] == "start + duration"


def test_edge_trace_rows_materialize():
    trace = edge_trace()
    records = list(trace)
    assert len(records) == trace.n_transfers
    assert min(record.bandwidth_bps for record in records) < 0


def test_writers_refuse_a_bandwidth_no_rtb_holds(tmp_path):
    """1e20 bps is past int64: ``Trace`` refuses it, and so do both
    writers when the column is poisoned after construction."""
    trace = edge_trace()
    row = int(np.flatnonzero(trace.bandwidth_bps == 2.0**62)[0])
    columns = trace.columns()
    columns["bandwidth_bps"] = columns["bandwidth_bps"].copy()
    columns["bandwidth_bps"][row] = 1e20
    with pytest.raises(TraceError, match="bandwidth_bps outside"):
        Trace(trace.clients, **columns)
    trace.bandwidth_bps[row] = 1e20
    message = f"transfer {row}: bandwidth_bps outside"
    with pytest.raises(TraceError, match=message):
        write_wms_log(trace, tmp_path / "t.log")
    with pytest.raises(TraceError, match=message):
        write_binary_trace(trace, tmp_path / "t.rtb")


@pytest.fixture
def negative_duration_rtb(tmp_path):
    """A one-segment ``.rtb`` whose constant duration column reads -4 s
    (no writer produces one: the footer is edited)."""
    path = tmp_path / "good.rtb"
    write_binary_trace(build_trace([(0, 0, 10.0, 6.0), (1, 1, 20.0, 6.0)]),
                       path)

    def edit(footer):
        column = footer["segments"][0]["columns"]["duration"]
        assert column["dtype"] is None  # a constant column
        column["base"] = -4
    return _craft(path, tmp_path / "negative.rtb", footer_edit=edit)


def test_every_binary_door_refuses_a_negative_duration(
        negative_duration_rtb):
    path = negative_duration_rtb
    message = r"transfer 0: duration outside \[0, 2\*\*53\) \(-4\.0\)"
    with pytest.raises(TraceError, match=message):
        read_binary_trace(path)
    with pytest.raises(TraceError, match=message):
        characterize_logs(path, jobs=1)

    worker = FeedWorker("feed0")
    with BinaryTraceReader(path) as reader:
        declared, identity = reader.declared_columns(
            "ips", "player_ids", "os_names")
        quantized = reader.segment_quantized(0)
    worker.ingest_clients(list(zip(
        declared.tolist(), identity["ips"].tolist(),
        identity["player_ids"].tolist(), identity["os_names"].tolist(),
        strict=True)))
    before = (worker.frames_ingested, worker.entries_ingested,
              worker.characterizer.state_dict())
    with pytest.raises(ProtocolError, match=message):
        worker.ingest_entries(quantized)
    assert (worker.frames_ingested, worker.entries_ingested,
            worker.characterizer.state_dict()) == before


def test_decode_then_sanitize_proves_each_row_once(tmp_path, monkeypatch):
    """``read_binary_trace`` applies the rule once, in
    ``decode_entry_columns``; neither the decoded ``Trace`` nor
    ``sanitize_trace``'s ``filter`` proves those rows again."""
    from repro.trace import codecs, records, store, wms_log
    from repro.trace.sanitize import sanitize_trace

    # Out of start order in the file, and a row sanitize drops.
    trace = build_trace([(0, 0, 50.0, 6.0), (1, 1, 20.0, 60.0),
                         (2, 0, 5.0, 1.0), (0, 1, 70.0, 0.0)], extent=80.0)
    path = tmp_path / "t.rtb"
    write_binary_trace(trace, path)

    checked: list[int] = []

    def counting(columns, n_clients=None, *, offset=0):
        checked.append(len(columns["start"]))
        require_entries(columns, n_clients, offset=offset)

    for module in (codecs, records, store, wms_log):
        monkeypatch.setattr(module, "require_entries", counting)
    decoded = read_binary_trace(path)
    clean, report = sanitize_trace(decoded)
    assert report.n_removed == 1 and len(clean) == 3
    assert checked == [len(decoded)] == [4]
    assert np.all(np.diff(decoded.start) >= 0)
