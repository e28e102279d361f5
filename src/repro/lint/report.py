"""Rendering lint results as terminal text or CI-consumable JSON."""

from __future__ import annotations

import json

from .engine import LintResult
from .rules import RULES

#: Bumped when the JSON schema changes shape.  v2 added the ``cache``
#: block alongside the incremental cache; v3 dropped its
#: ``flow_from_cache`` key with the retired whole-program pass.
JSON_SCHEMA_VERSION = 3


def render_text(result: LintResult) -> str:
    """Human-readable report: one ``path:line:col: RLxxx message`` per hit."""
    lines = [violation.render() for violation in result.violations]
    if result.violations:
        n_files = len({v.path for v in result.violations})
        lines.append(f"{len(result.violations)} violation"
                     f"{'s' if len(result.violations) != 1 else ''} "
                     f"in {n_files} file{'s' if n_files != 1 else ''} "
                     f"({result.files_checked} checked)")
    else:
        lines.append(f"clean: {result.files_checked} files checked")
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Machine-readable report for the CI artifact."""
    document = {
        "version": JSON_SCHEMA_VERSION,
        "files_checked": result.files_checked,
        "clean": result.clean,
        "cache": {
            "hits": result.cache_hits,
            "misses": result.cache_misses,
        },
        "rules": {rule.id: {"name": rule.name, "summary": rule.summary}
                  for rule in RULES},
        "violations": [
            {"path": v.path, "line": v.line, "col": v.col,
             "rule": v.rule_id, "message": v.message}
            for v in result.violations
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"
