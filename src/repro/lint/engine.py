"""File discovery, rule applicability, caching, and orchestration.

The engine turns paths into a deterministic file list (sorted recursive
walk — the linter obeys its own ordering rules), classifies each file as
``library`` or ``test`` context, applies the per-rule package and
exemption filters, runs the single per-file AST pass, and folds its
output through suppression handling.

Per-file outputs are cached (:mod:`repro.lint.cache`) under the file's
content hash + applicable rules.  Suppression *application* always
reruns (it depends on the active rule set), but on a warm cache no file
is decoded, parsed or tokenized at all.
"""

from __future__ import annotations

import ast
import importlib.util
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from ..errors import LintError
from .cache import FileEntry, LintCache, content_hash, load_cache, save_cache
from .rules import (LIBRARY, RULES, TEST, Violation, active_rule_ids,
                    check_tree, rule)
from .suppressions import (Suppression, apply_suppressions,
                           extract_suppressions)

_KNOWN_IDS = frozenset(r.id for r in RULES)


@dataclass
class LintResult:
    """Outcome of a lint run."""

    violations: list[Violation] = field(default_factory=list)
    files_checked: int = 0
    #: Per-file cache statistics (both zero when no cache is in play).
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def clean(self) -> bool:
        return not self.violations


def discover_files(paths: Sequence[Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list.

    Raises
    ------
    LintError
        If a path does not exist or a file argument is not Python source.
    """
    seen: dict[str, Path] = {}
    for path in paths:
        if not path.exists():
            raise LintError(f"path does not exist: {path}")
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = (path,)
        else:
            raise LintError(f"not a Python file: {path}")
        for candidate in candidates:
            seen.setdefault(candidate.resolve().as_posix(), candidate)
    return [seen[key] for key in sorted(seen)]


def _last_index(parts: tuple[str, ...], name: str) -> int:
    return max((i for i, part in enumerate(parts) if part == name),
               default=-1)


def classify_context(path: Path) -> str:
    """``test`` when the deepest ``tests``/``repro`` component is ``tests``.

    Only the innermost of the two counts, so a checkout that itself sits
    under some ``tests`` directory still lints ``src/repro`` as library
    code.  A file under neither is ``library``.
    """
    parts = path.resolve().parts
    deeper = _last_index(parts, "tests") > _last_index(parts, "repro")
    return TEST if deeper else LIBRARY


def module_path(path: Path) -> str | None:
    """Dotted module path rooted at the ``repro`` package, when present."""
    parts = path.resolve().with_suffix("").parts
    try:
        anchor = len(parts) - 1 - tuple(reversed(parts)).index("repro")
    except ValueError:
        return None
    module = parts[anchor:]
    if module and module[-1] == "__init__":
        module = module[:-1]
    return ".".join(module)


def _applicable_ids(path: Path, context: str,
                    selected: frozenset[str]) -> frozenset[str]:
    posix = path.resolve().as_posix()
    module = module_path(path)
    applicable = set()
    for rule_id in selected:
        spec = rule(rule_id)
        if context not in spec.contexts:
            continue
        if any(posix.endswith(suffix) for suffix in spec.exempt):
            continue
        if spec.packages is not None and (
                module is None or not any(
                    module == pkg or module.startswith(pkg + ".")
                    for pkg in spec.packages)):
            continue
        applicable.add(rule_id)
    return frozenset(applicable)


# --------------------------------------------------------------------------
# The per-file pass
# --------------------------------------------------------------------------

def _check_source(source: str, path: str, applicable: frozenset[str]
                  ) -> tuple[list[Violation], list[Suppression]]:
    """Raw violations (sorted) and suppression directives of one file."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        if "RL000" not in applicable:
            return [], []
        return [Violation(path, exc.lineno or 1, (exc.offset or 0) + 1,
                          "RL000", f"syntax error: {exc.msg}")], []
    raw = [v for v in check_tree(tree, path) if v.rule_id in applicable]
    raw.sort(key=lambda v: (v.line, v.col, v.rule_id))
    return raw, extract_suppressions(source, path)


def _undecodable(data: bytes, path: str,
                 exc: SyntaxError | UnicodeDecodeError) -> Violation:
    """RL000 at the first byte that does not decode (line 1 for a bad
    encoding cookie)."""
    if isinstance(exc, SyntaxError):
        # Bad UTF-8 in the two lines searched for a cookie surfaces as a
        # position-less SyntaxError; decoding them again recovers where.
        head = b"\n".join(data.split(b"\n", 2)[:2])
        try:
            head.decode("utf-8")
        except UnicodeDecodeError as utf8_exc:
            exc = utf8_exc
    if isinstance(exc, SyntaxError):
        return Violation(path, 1, 1, "RL000",
                         f"source does not decode: {exc.msg}")
    line = data.count(b"\n", 0, exc.start) + 1
    col = exc.start - data.rfind(b"\n", 0, exc.start)
    return Violation(path, line, col, "RL000",
                     f"source does not decode as {exc.encoding}: "
                     f"{exc.reason}")


def _check_file(data: bytes, path: str, applicable: frozenset[str]
                ) -> tuple[list[Violation], list[Suppression]]:
    """:func:`_check_source` over bytes decoded the way Python imports
    them: the PEP 263 ``coding:`` cookie, else UTF-8."""
    try:
        source = importlib.util.decode_source(data)
    except (SyntaxError, UnicodeDecodeError) as exc:
        if "RL000" not in applicable:
            return [], []
        return [_undecodable(data, path, exc)], []
    return _check_source(source, path, applicable)


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------

def lint_paths(paths: Sequence[Path | str], *,
               select: Iterable[str] | None = None,
               ignore: Iterable[str] | None = None,
               cache_path: Path | None = None) -> LintResult:
    """Lint files and directories; the library/CLI entry point.

    ``cache_path`` enables the incremental cache (the CLI defaults it to
    ``.reprolint-cache.json``; the library default is off so test
    fixtures stay hermetic).
    """
    selected = active_rule_ids(select, ignore)
    files = discover_files([Path(p) for p in paths])
    cache = load_cache(cache_path) if cache_path is not None else LintCache()
    result = LintResult()

    for file_path in files:
        posix = file_path.as_posix()
        applicable = _applicable_ids(
            file_path, classify_context(file_path), selected)
        ids = tuple(sorted(applicable))
        data = file_path.read_bytes()
        file_hash = content_hash(data)
        entry = cache.lookup(posix, file_hash, ids)
        if entry is None:
            result.cache_misses += 1
            raw, suppressions = _check_file(data, posix, applicable)
            entry = FileEntry(hash=file_hash, ids=ids, violations=raw,
                              suppressions=suppressions)
            cache.store(posix, entry)
        else:
            result.cache_hits += 1
        outcome = apply_suppressions(entry.violations, entry.suppressions,
                                     active_ids=applicable,
                                     known_ids=_KNOWN_IDS)
        result.violations.extend(outcome.kept + outcome.hygiene)
        result.files_checked += 1

    result.violations.sort(
        key=lambda v: (v.path, v.line, v.col, v.rule_id))
    if cache_path is not None and cache.dirty:
        save_cache(cache_path, cache)
    return result


def lint_source(source: str, *, path: str = "<string>",
                context: str = LIBRARY,
                module: str | None = None,
                select: Iterable[str] | None = None,
                ignore: Iterable[str] | None = None) -> list[Violation]:
    """Lint one source string (unit-test and fixture entry point).

    ``context`` is ``library`` or ``test``; ``module`` is the dotted
    module path used for package-scoped rules (defaults to a guess from
    ``path`` when it contains a ``repro`` component).
    """
    selected = active_rule_ids(select, ignore)
    fake = Path(path if path != "<string>" else "string.py")
    if module is not None:
        # Honour an explicit module path by faking a file location for it.
        fake = Path("/".join(module.split("."))).with_suffix(".py")
    applicable = _applicable_ids(fake, context, selected)
    raw, suppressions = _check_source(source, path, applicable)
    outcome = apply_suppressions(raw, suppressions,
                                 active_ids=applicable,
                                 known_ids=_KNOWN_IDS)
    return outcome.kept + outcome.hygiene
