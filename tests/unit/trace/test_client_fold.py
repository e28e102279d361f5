"""The column path's client fold against the string-keyed fold.

``StreamingCharacterizer.consume_columns`` counts clients by integer
``client_index`` and maps the counts to player IDs only when they are
read.  ``_reference_client_fold`` is the per-segment fold it replaced —
``np.unique`` over the player strings, then one dict update per player —
kept here as the oracle: the counts must agree, and so must the key
order of the folded dict, which the ``state_dict`` document exposes.
"""

import dataclasses
import io
import json
import pickle

import numpy as np
import pytest

from repro.errors import TraceError
from repro.rng import make_rng
from repro.trace.streaming import StreamingCharacterizer
from repro.trace.wms_log import LOG_FIELDS, write_wms_log
from tests.conftest import build_trace


def _reference_client_fold(counts, players):
    """Fold one segment's per-entry player IDs into ``counts``."""
    for player, count in zip(*(arr.tolist() for arr in
                               np.unique(np.asarray(players, dtype=np.str_),
                                         return_counts=True)),
                             strict=True):
        counts[player] = counts.get(player, 0) + count


def _segment(rng, client):
    """Decoded segment columns around a given ``client_index`` column."""
    n = client.size
    duration = rng.integers(0, 500, n).astype(np.float64)
    return {
        "timestamp": rng.integers(1_000, 90_000, n).astype(np.int64),
        "client_index": np.asarray(client, dtype=np.int64),
        "object_id": rng.integers(0, 2, n).astype(np.int64),
        "duration": duration,
        "bandwidth_bps": rng.integers(1_000, 300_000, n).astype(np.float64),
    }


def _segments(seed, declared, names, n_segments=12):
    """Random segments over ``declared`` indices, with their names."""
    rng = make_rng(seed)
    out = []
    for _ in range(n_segments):
        n = int(rng.integers(1, 400))
        slots = rng.zipf(1.4, n) % declared.size
        out.append((_segment(rng, declared[slots]), names[slots]))
    return out


def _fold(segments, characterizer=None):
    characterizer = characterizer or StreamingCharacterizer()
    for columns, players in segments:
        characterizer.consume_columns(columns, players)
    return characterizer


def _assert_same_counts(got, want):
    assert got == want
    assert list(got) == list(want)  # key order, as in state_dict


SPARSE = np.asarray([-(2 ** 40), -7, 0, 3, 4, 1000, 10 ** 6, 2 ** 40,
                     2 ** 62], dtype=np.int64)


@pytest.mark.parametrize("declared", [
    np.arange(300, dtype=np.int64),
    SPARSE,
    np.asarray([17, 2, 9, 400, 5], dtype=np.int64),  # unsorted
], ids=["dense", "sparse", "unsorted"])
@pytest.mark.parametrize("seed", range(3))
def test_counts_and_key_order_match_reference(declared, seed):
    rng = make_rng(100 + seed)
    # Names in no relation to index order; two indices share a name.
    names = np.asarray([f"player-{k:05d}" for k in
                        rng.permutation(declared.size)], dtype=np.str_)
    names[-1] = names[0]
    segments = _segments(seed, declared, names)
    reference: dict[str, int] = {}
    for _, players in segments:
        _reference_client_fold(reference, players)
    characterizer = _fold(segments)
    summary = characterizer.summary(top_k=5)
    _assert_same_counts(characterizer.client_counts(), reference)
    assert summary.n_clients == len(reference)
    assert summary.top_clients == tuple(sorted(
        reference.items(), key=lambda item: (-item[1], item[0]))[:5])


def test_colliding_index_spaces_count_exactly():
    """Two files whose indices collide but name different clients."""
    declared = np.arange(50, dtype=np.int64)
    first = np.asarray([f"a-{k}" for k in range(50)], dtype=np.str_)
    second = np.asarray([f"b-{k}" for k in range(50)], dtype=np.str_)
    segments = (_segments(1, declared, first, 4)
                + _segments(2, declared, second, 4)
                + _segments(3, declared, first, 3))
    reference: dict[str, int] = {}
    for _, players in segments:
        _reference_client_fold(reference, players)
    _assert_same_counts(_fold(segments).client_counts(), reference)


def test_one_index_with_two_names_in_one_call_raises():
    characterizer = _fold(_segments(4, np.arange(10, dtype=np.int64),
                                    np.asarray(list("abcdefghij"))))
    before = json.dumps(characterizer.state_dict())
    rng = make_rng(5)
    columns = _segment(rng, np.asarray([3, 4, 3], dtype=np.int64))
    with pytest.raises(TraceError, match="client index 3"):
        characterizer.consume_columns(columns, ["x", "y", "z"])
    assert json.dumps(characterizer.state_dict()) == before


def test_players_must_match_entries():
    columns = _segment(make_rng(6),
                       np.asarray([1, 2], dtype=np.int64))
    with pytest.raises(TraceError):
        StreamingCharacterizer().consume_columns(columns, ["only-one"])


def test_mid_stream_state_dict_round_trip():
    declared = np.arange(120, dtype=np.int64)
    names = np.asarray([f"c{k:03d}" for k in range(120)], dtype=np.str_)
    segments = _segments(7, declared, names)
    whole = _fold(segments)
    head = _fold(segments[:5])
    resumed = StreamingCharacterizer.from_state_dict(
        json.loads(json.dumps(head.state_dict())))
    _fold(segments[5:], resumed)
    assert json.dumps(resumed.state_dict()) == json.dumps(whole.state_dict())
    got, want = resumed.summary(), whole.summary()
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert (np.array_equal(a, b) if isinstance(b, np.ndarray)
                else a == b), field.name


def test_pickled_partial_merges_exactly():
    """Worker accumulators cross a pickle with their counts unfolded."""
    declared = np.arange(80, dtype=np.int64)
    names = np.asarray([f"c{k:03d}" for k in range(80)], dtype=np.str_)
    segments = _segments(8, declared, names)
    parts = [pickle.loads(pickle.dumps(_fold(segments[:6]))),
             pickle.loads(pickle.dumps(_fold(segments[6:])))]
    # state_dict() folds the counts, so read it off copies.
    before = [json.dumps(pickle.loads(pickle.dumps(part)).state_dict())
              for part in parts]
    total = StreamingCharacterizer()
    for part in parts:
        total.merge(part)
    assert [json.dumps(part.state_dict()) for part in parts] == before
    assert (json.dumps(total.state_dict())
            == json.dumps(_fold(segments).state_dict()))


def test_lines_after_columns_keep_reference_order():
    buffer = io.StringIO()
    write_wms_log(build_trace([(k % 6, 0, 10.0 * k, 5.0) for k in range(30)]),
                  buffer)
    lines = [line for line in buffer.getvalue().splitlines()
             if not line.startswith("#")]
    player_field = LOG_FIELDS.index("c-playerid")
    declared = np.arange(40, dtype=np.int64)
    names = np.asarray([f"p{k:04d}" for k in range(40)], dtype=np.str_)
    segments = _segments(9, declared, names, 3)

    characterizer = _fold(segments[:2])
    characterizer.consume_lines(lines, list(LOG_FIELDS))
    _fold(segments[2:], characterizer)

    reference: dict[str, int] = {}
    for _, players in segments[:2]:
        _reference_client_fold(reference, players)
    for line in lines:
        player = line.split()[player_field]
        reference[player] = reference.get(player, 0) + 1
    _reference_client_fold(reference, segments[2][1])
    _assert_same_counts(characterizer.client_counts(), reference)
