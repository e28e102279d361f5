"""Every declared checkpoint refuses damage, whatever the class.

The sites to damage are derived from the declarations themselves
(:mod:`repro.state`): each scalar, nested object and child key can be
removed or retyped, and each column removed, truncated, extended or
retyped.  Restoring any such state into a fresh object must raise
:class:`~repro.errors.CheckpointError` -- never resume, never fail with
a bare ``IndexError``/``ValueError``/``KeyError``.  The states are taken
mid-stream, so the variable-length columns are non-empty.
"""

import copy
import io
import json
import operator

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.gismo import synthetic_client_identity
from repro.core.model import LiveWorkloadModel
from repro.errors import CheckpointError
from repro.serve.feed import FeedWorker
from repro.serve.tracking import ConcurrencyTracker
from repro.state import Column, Part, Scalar, Stateful, restore_state, save_state
from repro.stream import GenerationStream, OnlineSessionizer, run_streaming_generation
from repro.stream.checkpoint import load_checkpoint
from repro.stream.pipeline import _RunState
from repro.trace.codecs import BinaryTraceReader, BinaryTraceWriter
from repro.trace.streaming import StreamingCharacterizer
from repro.trace.wms_log import StreamingWmsLogWriter

SEED = 7

#: Columns alone in a group no other state sizes: their length is free.
FREE_LENGTH = {"players"}


def _model():
    return LiveWorkloadModel.paper_defaults(mean_session_rate=0.05,
                                            n_clients=200)


def _snapshot(obj):
    meta, arrays = save_state(obj)
    return json.loads(json.dumps(meta)), arrays


def _push(writer, batch):
    writer.push(client_index=batch.client_index, object_id=batch.object_id,
                start=batch.start, duration=batch.duration,
                bandwidth_bps=batch.bandwidth_bps,
                global_offset=batch.global_offset, horizon=batch.horizon)


@pytest.fixture(scope="module")
def states(tmp_path_factory):
    """name -> (document, arrays, fresh-target factory)."""
    root = tmp_path_factory.mktemp("schema_states")
    model = _model()
    stream = GenerationStream(model, 1.0, seed=SEED)
    text = StreamingWmsLogWriter(io.StringIO(), synthetic_client_identity)
    binary = BinaryTraceWriter(io.BytesIO(), synthetic_client_identity)
    sessionizer = OnlineSessionizer(model.n_clients)
    steps = stream.block_steps()
    for _ in range(3):
        for batch in next(steps):
            _push(text, batch)
            _push(binary, batch)
            sessionizer.push_batch(batch)
    found = {
        "generation": (_snapshot(stream),
                       lambda: GenerationStream(_model(), 1.0, seed=SEED)),
        "text writer": (_snapshot(text), lambda: StreamingWmsLogWriter(
            io.StringIO(), synthetic_client_identity, write_header=False)),
        "binary writer": (_snapshot(binary), lambda: BinaryTraceWriter(
            io.BytesIO(), synthetic_client_identity, write_header=False)),
        "sessionizer": (_snapshot(sessionizer),
                        lambda: OnlineSessionizer(_model().n_clients)),
    }

    log, rtb, ck = root / "t.log", root / "t.rtb", root / "ck.npz"
    run_streaming_generation(model, 1.0, seed=SEED, log_path=log,
                             collect_sessions=False)
    run_streaming_generation(model, 1.0, seed=SEED, log_path=rtb,
                             codec="binary", collect_sessions=False)
    with open(log, encoding="ascii") as lines:
        text_feed = FeedWorker("feed0", lateness=3600.0)
        text_feed.ingest_lines([line.rstrip("\n") for line in lines][:3000])
    binary_feed = FeedWorker("feed0", lateness=3600.0)
    with BinaryTraceReader(rtb) as reader:
        binary_feed.ingest_clients(
            [(index, ip, player, os_name) for index, (ip, player, os_name)
             in sorted(reader.client_identity_map().items())])
        for segment in range(reader.n_segments // 2):
            binary_feed.ingest_entries(reader.segment_quantized(segment))
    found.update({
        "text feed": (_snapshot(text_feed),
                      lambda: FeedWorker("feed0", lateness=3600.0)),
        "binary feed": (_snapshot(binary_feed),
                        lambda: FeedWorker("feed0", lateness=3600.0)),
        "characterizer": (_snapshot(text_feed.characterizer),
                          StreamingCharacterizer),
        "tracker": (_snapshot(text_feed.concurrency()), ConcurrencyTracker),
    })

    run_streaming_generation(model, 1.0, seed=SEED, log_path=root / "r.rtb",
                             codec="binary", checkpoint_path=ck,
                             max_blocks=3)
    meta, arrays = load_checkpoint(ck)
    del meta["format_version"]  # added by the file format, not the run

    def fresh_run():
        run = _RunState(meta["fingerprint"],
                        GenerationStream(_model(), 1.0, seed=SEED),
                        OnlineSessionizer(_model().n_clients), [])
        run.writer = BinaryTraceWriter(io.BytesIO(),
                                       synthetic_client_identity,
                                       write_header=False)
        return run

    found["streaming run"] = ((meta, arrays), fresh_run)
    return {name: (document, arrays, make)
            for name, ((document, arrays), make) in found.items()}


def _stateful_classes(cls=Stateful):
    for sub in cls.__subclasses__():
        yield sub
        yield from _stateful_classes(sub)


def test_every_declared_class_is_covered(states):
    covered = {id(type(make()).CHECKPOINT) for _, _, make in states.values()}
    assert {id(cls.CHECKPOINT) for cls in _stateful_classes()} <= covered


def _sites(obj, path=(), prefix=""):
    """``(kind, where, dtype)`` of every declared key of ``obj``: where is
    a document path (a tuple) or an archive key (a string)."""
    schema = type(obj).CHECKPOINT
    for entry in schema.entries:
        if isinstance(entry, Scalar):
            keys = tuple(entry.key.split("."))
            if len(keys) > 1:
                yield "key", path + keys[:-1], None
            yield "scalar", path + keys, None
        elif isinstance(entry, Part):
            yield "key", path + (entry.key,), None
            yield from _sites(operator.attrgetter(entry.attr)(obj),
                              path + (entry.key,), prefix + entry.prefix)
        else:
            columns = ([(entry.key, entry.dtype)]
                       if isinstance(entry, Column) else
                       [(entry.prefix + name, dtype)
                        for name, dtype in entry.columns])
            for key, dtype in columns:
                yield "column", (path + (key,) if schema.document
                                 else prefix + key), np.dtype(dtype)


MUTATIONS = {"key": ("remove", "retype"), "scalar": ("remove", "retype"),
             "column": ("remove", "truncate", "extend", "retype")}


def _locate(meta, arrays, where):
    if isinstance(where, str):
        return arrays, where
    for key in where[:-1]:
        meta = meta[key]
    return meta, where[-1]


@pytest.mark.parametrize("name", ["binary feed", "binary writer",
                                  "characterizer", "generation",
                                  "sessionizer", "streaming run",
                                  "text feed", "text writer", "tracker"])
def test_declared_state_round_trips(states, name):
    meta, arrays, make = states[name]
    target = make()
    restore_state(target, copy.deepcopy(meta), dict(arrays))
    again_meta, again_arrays = save_state(target)
    assert json.loads(json.dumps(again_meta)) == meta
    assert again_arrays.keys() == arrays.keys()
    for key, value in arrays.items():
        assert again_arrays[key].dtype == value.dtype
        np.testing.assert_array_equal(again_arrays[key], value)


@pytest.mark.parametrize("name", ["binary feed", "binary writer",
                                  "characterizer", "generation",
                                  "sessionizer", "streaming run",
                                  "text feed", "text writer", "tracker"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_damage_is_refused(states, name, data):
    meta, arrays, make = states[name]
    meta, arrays = copy.deepcopy(meta), dict(arrays)
    target = make()
    kind, where, dtype = data.draw(st.sampled_from(list(_sites(target))),
                                   label="site")
    mutation = data.draw(st.sampled_from(MUTATIONS[kind]), label="mutation")
    holder, key = _locate(meta, arrays, where)
    value = holder[key]
    if mutation == "remove":
        del holder[key]
    elif mutation == "retype":
        if kind != "column":
            holder[key] = 1.5 if isinstance(value, str) else "x"
        elif isinstance(value, list):
            holder[key] = ["x"] * len(value)
        else:
            other = np.float64 if dtype.kind in "iu" else np.int64
            holder[key] = np.zeros(len(value), dtype=other)
    else:
        assume(key not in FREE_LENGTH)
        if mutation == "truncate":
            assume(len(value) > 0)
            holder[key] = value[:data.draw(
                st.integers(0, len(value) - 1), label="keep")]
        else:
            extra = data.draw(st.integers(1, 3), label="extra")
            pad = ((value[:1] or [0.0]) * extra if isinstance(value, list)
                   else np.zeros(extra, dtype=value.dtype))
            holder[key] = (value + pad if isinstance(value, list)
                           else np.concatenate([value, pad]))
    with pytest.raises(CheckpointError):
        restore_state(target, meta, arrays)
