"""AST-based determinism and numeric-discipline linter.

Every subsystem in this repository stakes its correctness on bit-identical
determinism: seeds are plumbed through :func:`repro.rng.make_rng` and
:func:`repro.rng.spawn`, iteration orders are stable, dtypes are explicit.
``repro.lint`` enforces those contracts *statically* — the same code
patterns that caused past regressions (global RNG construction, ``'<U1'``
dtype truncation, unstable tie-breaking) are flagged before they ship.

The linter is pure stdlib (``ast`` + ``tokenize``), so ``make lint`` works
from a clean checkout with no extra dependencies.  It runs alongside two
optional third-party gates (``mypy --strict`` and ``ruff``); see
``docs/LINTING.md`` for the division of labour.

Every rule runs in one AST walk per file, with no project-wide index: a
blocking call directly inside an ``async def`` (RL040) is as local a
pattern as a dtype-less constructor (RL008).  An incremental cache keyed
by file content hashes makes warm reruns parse nothing.

Public API
----------
:func:`lint_paths`
    Lint files and directories; returns a :class:`LintResult`.
:func:`lint_source`
    Lint a single source string (the unit-test entry point).
:data:`RULES`
    The rule registry, ordered by rule ID.

Suppressions
------------
A violation is silenced by an inline comment on the flagged line::

    if alpha == 1.0:  # reprolint: disable=RL007, exact mathematical branch

Suppression comments are themselves linted: an unknown rule ID or a
suppression that no longer matches any violation raises ``RL010``.
"""

from __future__ import annotations

from .engine import LintResult, lint_paths, lint_source
from .report import render_json, render_text
from .rules import RULES, Rule, Violation, active_rule_ids
from .sarif import render_sarif

__all__ = [
    "LintResult",
    "RULES",
    "Rule",
    "Violation",
    "active_rule_ids",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_sarif",
    "render_text",
]
