"""Declared checkpoint state: each stateful class lists what it saves.

A class's ``CHECKPOINT`` schema maps checkpoint keys (a dotted key nests
in the document) to live attributes (a dotted path reaches into a
child), in the order that fixes the JSON document and the ``.npz``
members; :func:`save_state` and :func:`restore_state` derive from it.
Restore raises :class:`~repro.errors.CheckpointError` unless every key
is present, each scalar and column has its type or dtype (strings match
by kind), and each column group has one length: that of the checked
scalar the group is named after, or the one ``_checkpoint_sizes``
returns, if any.  A ``derived`` entry (configuration, or a copy the
layout keeps) is not restored but must equal what the restored target
writes, and ``_after_restore`` checks what the restored parts must agree
on.
"""

from __future__ import annotations

import copy
import operator
from collections import Counter
from typing import Any, Callable, ClassVar, Mapping, NamedTuple, get_args, get_origin

import numpy as np
from numpy.typing import DTypeLike, NDArray

from .errors import CheckpointError, ReproError

STATE, DERIVED = "state", "derived"


class Scalar(NamedTuple):
    key: str
    kind: Any
    attr: str
    role: str = STATE


class Column(NamedTuple):
    key: str
    dtype: DTypeLike
    group: str
    attr: str
    role: str = STATE


class Table(NamedTuple):
    """The columns ``prefix + name`` of a dict held in ``attr`` -- or, for
    a ``Counter``, its ascending keys and their counts."""

    prefix: str
    attr: str
    columns: tuple[tuple[str, DTypeLike], ...]
    group: str


class Part(NamedTuple):
    """A child's document under ``key``, its arrays under ``prefix``.
    ``make`` builds it from the owner's checked values; else ``None`` is
    a stage the owner runs without."""

    key: str
    attr: str
    prefix: str = ""
    make: Callable[[Any, Mapping[str, Any]], Any] | None = None


class Schema(NamedTuple):
    """``document`` keeps the columns in the JSON document as lists."""

    name: str
    entries: tuple[Scalar | Column | Table | Part, ...]
    document: bool = False


class Stateful:
    """``state_meta``/``state_arrays``/``restore`` from ``CHECKPOINT``."""

    CHECKPOINT: ClassVar[Schema]

    def state_meta(self) -> dict[str, Any]:
        """The JSON-serializable scalar state."""
        return save_state(self)[0]

    def state_arrays(self) -> dict[str, NDArray[Any]]:
        """The array state, as copies."""
        return save_state(self)[1]

    def restore(self, meta: Mapping[str, Any],
                arrays: Mapping[str, NDArray[Any]]) -> None:
        """Restore saved state, or raise :class:`CheckpointError`."""
        restore_state(self, meta, arrays)

    def _before_save(self) -> None:
        """Settle state kept in another form into the declared one."""

    def _checkpoint_sizes(self, values: Mapping[str, Any]
                          ) -> Mapping[str, int]:
        """Cross-check the checked ``values``; return group lengths."""
        return {}

    def _after_restore(self) -> None:
        """Cross-check restored state that spans parts; raise
        :class:`~repro.errors.CheckpointError` if it disagrees."""


def _get(obj: Any, attr: str) -> Any:
    return operator.attrgetter(attr)(obj)


def _dump(kind: Any, value: Any) -> Any:
    if get_origin(kind) is Counter:  # string keys, in ascending order
        return {str(key): value[key] for key in sorted(value)}
    return copy.copy(value) if isinstance(value, (list, dict)) else value


def _load(kind: Any, value: Any, what: str) -> Any:
    try:
        if get_origin(kind) is Counter:
            if all(type(count) is int for count in value.values()):
                return Counter({get_args(kind)[0](key): count
                                for key, count in value.items()})
        elif isinstance(value, kind) and not isinstance(value, bool):
            return _dump(kind, value)
    except (AttributeError, ValueError):
        pass
    raise CheckpointError(f"{what} has the wrong type "
                          f"({type(value).__name__})")


def _array(value: Any, dtype: DTypeLike, what: str) -> NDArray[Any]:
    want = np.dtype(dtype)
    try:
        array = np.array(value if isinstance(value, (list, np.ndarray))
                         else 0)
    except ValueError:
        array = np.array(0)
    if array.ndim != 1 or not (array.dtype == want
                               or array.dtype.kind == want.kind == "U"):
        raise CheckpointError(f"{what} is not a 1-D {want} column")
    return array


def _columns(entry: Column | Table) -> list[tuple[str, DTypeLike, str]]:
    if isinstance(entry, Column):
        return [(entry.key, entry.dtype, entry.attr)]
    return [(entry.prefix + name, dtype, name)
            for name, dtype in entry.columns]


def save_state(obj: Stateful, prefix: str = ""
               ) -> tuple[dict[str, Any], dict[str, NDArray[Any]]]:
    """``obj``'s ``(document, arrays)``, array keys under ``prefix``."""
    obj._before_save()
    schema = type(obj).CHECKPOINT
    meta: dict[str, Any] = {}
    arrays: dict[str, NDArray[Any]] = {}
    for entry in schema.entries:
        if isinstance(entry, Scalar):  # a dotted key nests the value
            *outer, last = entry.key.split(".")
            document = meta
            for key in outer:
                document = document.setdefault(key, {})
            document[last] = _dump(entry.kind, _get(obj, entry.attr))
        elif isinstance(entry, Part):
            child = _get(obj, entry.attr)
            meta[entry.key], child_arrays = (
                (None, {}) if child is None else save_state(child))
            arrays.update((prefix + entry.prefix + key, value)
                          for key, value in child_arrays.items())
        elif (live := _get(obj, entry.attr)) is not None:
            if isinstance(live, Counter):  # keys, ascending; their counts
                keys = sorted(live)
                live = dict(zip((attr for _, _, attr in _columns(entry)),
                                (keys, [live[key] for key in keys]),
                                strict=True))
            for key, dtype, attr in _columns(entry):
                value = np.array(live[attr] if isinstance(entry, Table)
                                 else live, dtype=dtype)
                if schema.document:
                    meta[key] = value.tolist()
                else:
                    arrays[prefix + key] = value
    return meta, arrays


def restore_state(obj: Stateful, meta: Any,
                  arrays: Mapping[str, NDArray[Any]],
                  prefix: str = "") -> None:
    """Restore a freshly built ``obj`` from a document and arrays keyed
    under ``prefix``.  A target whose restore failed must be discarded.

    Raises
    ------
    CheckpointError
        If a key is missing or a value does not fit ``obj``'s schema.
    """
    schema = type(obj).CHECKPOINT
    name = schema.name
    values: dict[str, Any] = {}
    assign: list[tuple[str, Any]] = []
    derived: list[tuple[Scalar | Column, Any]] = []
    groups: dict[str, dict[str, int]] = {}

    def take(document: Any, key: str, kind: Any, group: str = "") -> Any:
        if not isinstance(document, Mapping) or key not in document:
            raise CheckpointError(
                f"checkpoint is missing {name} state: {key!r}")
        what = f"checkpoint {name} {key!r}"
        value = (_array(document[key], kind, what) if group
                 else _load(kind, document[key], what))
        if group:
            groups.setdefault(group, {})[key] = value.size
        return value

    def field(entry: Scalar | Column, value: Any) -> None:
        values[entry.key] = value
        if entry.role == DERIVED:
            derived.append((entry, value))
        elif entry.role == STATE:
            assign.append((entry.attr, value))

    source, head = (meta, "") if schema.document else (arrays, prefix)
    for entry in schema.entries:
        if isinstance(entry, Scalar):
            *outer, last = entry.key.split(".")
            document = meta
            for key in outer:
                document = take(document, key, dict)
            field(entry, take(document, last, entry.kind))
        elif isinstance(entry, Column):
            field(entry, take(source, head + entry.key, entry.dtype,
                              entry.group))
        elif isinstance(entry, Table) and (
                live := _get(obj, entry.attr)) is not None:
            table = {attr: take(source, head + key, dtype, entry.group)
                     for key, dtype, attr in _columns(entry)}
            values.update(table)
            if isinstance(live, Counter):  # lengths: checked with the group
                keys, counts = (column.tolist() for column in table.values())
                table = Counter(dict(zip(keys, counts, strict=False)))
            assign.append((entry.attr, table))
    try:
        sizes = obj._checkpoint_sizes(values)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint {name} state is inconsistent: {exc!r}") from exc
    for group, lengths in groups.items():
        size = sizes.get(group, values.get(group))
        if len(set(lengths.values()) | ({size} - {None})) > 1:
            raise CheckpointError(
                f"checkpoint {name} column lengths {lengths} do not match "
                + ("each other" if size is None else f"{group} {size}"))

    for part in (e for e in schema.entries if isinstance(e, Part)):
        child = _get(obj, part.attr)
        if part.make is not None:
            try:
                child = part.make(obj, values)
            except ReproError as exc:
                raise CheckpointError(
                    f"checkpoint {name} {part.key!r}: {exc}") from exc
            setattr(obj, part.attr, child)
        if child is not None:
            restore_state(child, meta.get(part.key), arrays,
                          prefix + part.prefix)
    for attr, value in assign:
        owner, _, last = attr.rpartition(".")
        setattr(_get(obj, owner) if owner else obj, last, value)
    for entry, value in derived:
        live = _get(obj, entry.attr)
        if not (np.array_equal(value, live) if isinstance(entry, Column)
                else value == live):
            raise CheckpointError(
                f"checkpoint {name} {entry.key} {value!r} does not match "
                f"this {name}'s {live!r}")
    obj._after_restore()
