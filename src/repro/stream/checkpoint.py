"""Atomic on-disk checkpoints for the streaming pipeline.

A checkpoint is a single ``.npz`` archive holding the numeric state
arrays of every pipeline stage (generation cursor, open-session table,
characterizer accumulators) plus one JSON document of scalar state,
stored as a zero-dimensional unicode array so the archive loads with
``allow_pickle=False``.

Each stage declares what it writes on its class; :func:`save_state` and
:func:`restore_state` (from :mod:`repro.state`, below the packages that
declare state) save it and refuse a damaged checkpoint.

Writes are atomic: the archive is written to a sibling temporary file
and moved into place with :func:`os.replace`, so a checkpoint file on
disk is always complete — a run killed mid-write leaves the previous
checkpoint intact, which is what makes kill-and-resume safe at any
point.
"""

from __future__ import annotations

import json
import os
import tempfile
import zipfile
from typing import Any, Mapping

import numpy as np
from numpy.typing import NDArray

from ..errors import CheckpointError
from ..state import restore_state, save_state

__all__ = ["FORMAT_VERSION", "load_checkpoint", "require_match",
           "restore_state", "save_checkpoint", "save_state"]

#: Archive member holding the JSON scalar state.
_META_KEY = "__meta__"

#: Bumped when the checkpoint layout changes incompatibly.
FORMAT_VERSION = 1


def save_checkpoint(path: str | os.PathLike[str], meta: Mapping[str, Any],
                    arrays: Mapping[str, NDArray[Any]]) -> None:
    """Atomically write ``meta`` + ``arrays`` to ``path``.

    Parameters
    ----------
    path:
        Destination file (conventionally ``*.npz``).
    meta:
        JSON-serializable scalar state.  The ``format_version`` key is
        added automatically.
    arrays:
        Named numeric arrays; names must not collide with the reserved
        meta member.
    """
    if _META_KEY in arrays:
        raise CheckpointError(
            f"array name {_META_KEY!r} is reserved for checkpoint metadata")
    document = dict(meta)
    document["format_version"] = FORMAT_VERSION
    payload: dict[str, NDArray[Any]] = {
        _META_KEY: np.asarray(json.dumps(document))}
    payload.update(arrays)
    path = os.fspath(path)
    # A unique temp name per call: concurrent writers targeting the same
    # checkpoint path must not share (or unlink) each other's in-flight
    # temp file — a fixed "<path>.tmp" sibling would let one run clobber
    # another's half-written archive and the cleanup below delete it.
    # mkstemp in the target directory keeps os.replace on one filesystem
    # (and therefore atomic).
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(
        prefix=f"{os.path.basename(path)}.", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "wb") as stream:
            np.savez(stream, **payload)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # pragma: no cover - only on failure
            os.unlink(tmp)


def load_checkpoint(path: str | os.PathLike[str]
                    ) -> tuple[dict[str, Any], dict[str, NDArray[Any]]]:
    """Load a checkpoint written by :func:`save_checkpoint`.

    Returns ``(meta, arrays)``.

    Raises
    ------
    CheckpointError
        If the file is missing, truncated, or not a checkpoint.
    """
    path = os.fspath(path)
    try:
        with np.load(path, allow_pickle=False) as archive:
            if _META_KEY not in archive.files:
                raise CheckpointError(
                    f"{path!r} is not a streaming checkpoint "
                    f"(no {_META_KEY} member)")
            meta: dict[str, Any] = json.loads(str(archive[_META_KEY][()]))
            arrays: dict[str, NDArray[Any]] = {
                name: archive[name] for name in archive.files
                if name != _META_KEY}
    except FileNotFoundError as exc:
        raise CheckpointError(f"checkpoint {path!r} does not exist") from exc
    except (zipfile.BadZipFile, ValueError, OSError,
            json.JSONDecodeError) as exc:
        raise CheckpointError(
            f"checkpoint {path!r} is corrupt: {exc}") from exc
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {path!r} has format version {version!r}, "
            f"this build reads version {FORMAT_VERSION}")
    return meta, arrays


def require_match(meta: Mapping[str, Any], expected: Mapping[str, object],
                  path: str | os.PathLike[str] = "<checkpoint>") -> None:
    """Check that a checkpoint's fingerprint matches the current request.

    ``expected`` maps fingerprint keys (model/seed/chunking identity) to
    the values the resuming run derived from its own arguments; any
    mismatch means the checkpoint belongs to a different workload and
    resuming would silently produce a hybrid — refuse instead.

    Raises
    ------
    CheckpointError
        On the first mismatching or missing key.
    """
    fingerprint = meta.get("fingerprint")
    if not isinstance(fingerprint, Mapping):
        raise CheckpointError(
            f"checkpoint {os.fspath(path)!r} has no workload fingerprint")
    for key, value in expected.items():
        if key not in fingerprint:
            raise CheckpointError(
                f"checkpoint {os.fspath(path)!r} fingerprint is missing "
                f"{key!r}")
        if fingerprint[key] != value:
            raise CheckpointError(
                f"checkpoint {os.fspath(path)!r} was written for "
                f"{key}={fingerprint[key]!r}, this run has {key}={value!r}")
