"""Incremental analysis cache keyed by file content hash.

The lint pass (decode → parse → visitor → suppression extraction) is
pure in the file's bytes and the applicable rule set, so its outputs —
raw violations and suppression directives — are cached per file under
the bytes' SHA-256.  ``RULES_VERSION`` is part of the envelope, so
changing rule logic invalidates everything at once.

Suppression application is *not* cached: staleness judgments depend on
the active rule set of the current run, which ``--select``/``--ignore``
can change without touching any file.  Applying suppressions is cheap;
extracting them (a tokenize pass) is what the cache skips.

The cache file is JSON, written atomically, and entirely disposable —
a corrupt or version-skewed file degrades to a cold run, never an
error.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .rules import RULES_VERSION, Violation
from .suppressions import Suppression

#: Envelope layout version (distinct from RULES_VERSION: this one tracks
#: the cache *format*, that one tracks rule *logic*).
CACHE_FORMAT = 2


def content_hash(data: bytes) -> str:
    """SHA-256 of the file's bytes (the per-file cache key)."""
    return hashlib.sha256(data).hexdigest()


@dataclass
class FileEntry:
    """Cached per-file pass output."""

    hash: str
    ids: tuple[str, ...]           #: applicable per-file rule IDs, sorted
    violations: list[Violation] = field(default_factory=list)
    suppressions: list[Suppression] = field(default_factory=list)


@dataclass
class LintCache:
    """In-memory cache state, loaded from / saved to one JSON file."""

    files: dict[str, FileEntry] = field(default_factory=dict)
    dirty: bool = False

    def lookup(self, path: str, file_hash: str,
               ids: tuple[str, ...]) -> FileEntry | None:
        """The cached entry for ``path``, if content and rules match."""
        entry = self.files.get(path)
        if entry is None or entry.hash != file_hash or entry.ids != ids:
            return None
        return entry

    def store(self, path: str, entry: FileEntry) -> None:
        """Record one file's per-file pass output."""
        self.files[path] = entry
        self.dirty = True


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------

def load_cache(path: Path) -> LintCache:
    """Load a cache file; any problem degrades to an empty (cold) cache."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return LintCache()
    if not isinstance(payload, dict) \
            or payload.get("format") != CACHE_FORMAT \
            or payload.get("rules_version") != RULES_VERSION:
        return LintCache()
    try:
        return _decode(payload)
    except (KeyError, TypeError, ValueError):
        return LintCache()


def save_cache(path: Path, cache: LintCache) -> None:
    """Atomically persist the cache (best effort: failures are ignored)."""
    payload = _encode(cache)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as stream:
            json.dump(payload, stream, separators=(",", ":"),
                      sort_keys=True)
        os.replace(tmp_name, path)
    except OSError:
        return


def _encode(cache: LintCache) -> dict[str, Any]:
    return {
        "format": CACHE_FORMAT,
        "rules_version": RULES_VERSION,
        "files": {
            path: {
                "hash": entry.hash,
                "ids": list(entry.ids),
                "violations": [_encode_violation(v)
                               for v in entry.violations],
                "suppressions": [_encode_suppression(s)
                                 for s in entry.suppressions],
            }
            for path, entry in sorted(cache.files.items())
        },
    }


def _decode(payload: dict[str, Any]) -> LintCache:
    cache = LintCache()
    for path, raw in payload.get("files", {}).items():
        cache.files[str(path)] = FileEntry(
            hash=str(raw["hash"]),
            ids=tuple(str(i) for i in raw["ids"]),
            violations=[_decode_violation(v) for v in raw["violations"]],
            suppressions=[_decode_suppression(str(path), s)
                          for s in raw["suppressions"]],
        )
    return cache


def _encode_violation(violation: Violation) -> list[Any]:
    return [violation.path, violation.line, violation.col,
            violation.rule_id, violation.message]


def _decode_violation(raw: list[Any]) -> Violation:
    path, line, col, rule_id, message = raw
    return Violation(str(path), int(line), int(col), str(rule_id),
                     str(message))


def _encode_suppression(sup: Suppression) -> list[Any]:
    return [sup.line, sup.col, list(sup.rule_ids), sup.reason,
            sup.malformed]


def _decode_suppression(path: str, raw: list[Any]) -> Suppression:
    line, col, rule_ids, reason, malformed = raw
    return Suppression(path=path, line=int(line), col=int(col),
                       rule_ids=tuple(str(r) for r in rule_ids),
                       reason=str(reason), malformed=bool(malformed))
