"""Rule registry and the AST visitor that emits violations.

Each rule has a stable ID (``RL000``…), a short name, a one-line summary,
and an applicability scope: the *contexts* it runs in (``library`` for
``src/``, ``test`` for ``tests/``) plus an optional package restriction
and per-file exemptions.  The IDs are part of the repository's public
contract — suppression comments and CI reports reference them — so they
are never renumbered; retired rules leave a gap.

The checks themselves live in :class:`LintVisitor`, a single-pass
``ast.NodeVisitor`` shared by every rule so a file is walked once.  Name
resolution is import-aware: ``np.random.default_rng`` is recognized through
any ``import numpy``/``import numpy as np``/``from numpy import random``
spelling, and *only* through an import — a local variable that happens to
be called ``random`` is not flagged.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterable

#: Applicability contexts.  ``library`` is everything under ``src/``;
#: ``test`` is everything under ``tests/``.
LIBRARY = "library"
TEST = "test"
_BOTH = frozenset((LIBRARY, TEST))


@dataclass(frozen=True)
class Rule:
    """Metadata for one lint rule (the check itself lives in the visitor)."""

    id: str
    name: str
    summary: str
    contexts: frozenset[str] = _BOTH
    #: When set, the rule only applies to modules whose dotted path starts
    #: with one of these prefixes (e.g. ``repro.trace``).
    packages: tuple[str, ...] | None = None
    #: POSIX path suffixes exempt from the rule (e.g. ``repro/rng.py``,
    #: the one module allowed to construct generators).
    exempt: tuple[str, ...] = ()


#: Bumped whenever rule *logic* changes in a way that alters findings on
#: unchanged source.  Part of the incremental-cache key, so a version
#: bump invalidates every cached entry.
RULES_VERSION = 3


@dataclass(frozen=True)
class Violation:
    """One rule hit at a precise location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def render(self) -> str:
        """``path:line:col: RLxxx message`` (the text-report line)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


RULES: tuple[Rule, ...] = (
    Rule("RL000", "syntax-error",
         "file does not parse; nothing else can be checked"),
    Rule("RL001", "stdlib-random",
         "stdlib `random` module is process-global and unseeded; use "
         "repro.rng.make_rng"),
    Rule("RL002", "global-numpy-rng",
         "np.random.default_rng / legacy global np.random.* bypass the "
         "seed plumbing; route through repro.rng.make_rng/spawn",
         exempt=("repro/rng.py",)),
    Rule("RL003", "rng-construction",
         "direct Generator/bit-generator construction outside repro.rng "
         "fragments the seed-derivation tree; use make_rng/spawn",
         exempt=("repro/rng.py",)),
    Rule("RL004", "wall-clock",
         "wall-clock reads make output depend on when the code ran; "
         "derive timestamps from the trace/seed instead"),
    Rule("RL005", "unsorted-fs-iteration",
         "os.listdir/glob/iterdir order is filesystem-dependent; wrap "
         "the call in sorted(...)"),
    Rule("RL006", "set-iteration-order",
         "iterating or materializing a set hits PYTHONHASHSEED ordering; "
         "sort it first"),
    Rule("RL007", "float-equality",
         "==/!= against a float is representation-sensitive; compare "
         "with a tolerance or restructure (exact asserts are exempt)"),
    Rule("RL008", "dtype-less-constructor",
         "dtype-less numpy constructor in a serialization-adjacent "
         "package; platform-dependent inference corrupts artifacts",
         contexts=frozenset((LIBRARY,)),
         packages=("repro.trace", "repro.conform", "repro.stream",
                   "repro.parallel")),
    Rule("RL009", "fixed-width-str-dtype",
         "explicit-width string dtype ('<U1'-style) silently truncates; "
         "let the data size the itemsize or justify via suppression"),
    Rule("RL010", "suppression-hygiene",
         "suppression comment is malformed, names an unknown rule, or no "
         "longer suppresses anything"),
    Rule("RL011", "builtin-hash",
         "builtin hash() is salted per process for str/bytes; use "
         "hashlib for anything persisted or compared across runs"),
    Rule("RL012", "unstable-argsort",
         "argsort without kind='stable' breaks ties in a platform- and "
         "version-dependent order"),
    # RL013–RL019 are reserved for future rules.  RL020–RL023,
    # RL030–RL032 and RL041–RL043 belonged to a retired whole-program
    # flow pass; those IDs are never reused.
    Rule("RL040", "blocking-in-async",
         "blocking call (sleep, sync file I/O, subprocess) directly "
         "inside an async def stalls the event loop",
         contexts=frozenset((LIBRARY,))),
)

_RULES_BY_ID = {rule.id: rule for rule in RULES}

_RULE_ID_RE = re.compile(r"^RL\d{3}$")


def active_rule_ids(select: Iterable[str] | None = None,
                    ignore: Iterable[str] | None = None) -> frozenset[str]:
    """Resolve ``--select``/``--ignore`` into the active rule-ID set.

    Raises
    ------
    repro.errors.LintError
        If an ID is not a registered rule.
    """
    from ..errors import LintError

    # The registry has deliberate gaps (RL013–RL039), so the error lists
    # every valid ID instead of rendering a misleading RLxxx..RLyyy range.
    valid = ", ".join(sorted(_RULES_BY_ID))
    chosen = set(_RULES_BY_ID)
    if select is not None:
        requested = set(select)
        unknown = requested - chosen
        if unknown:
            raise LintError(
                f"unknown rule id in --select: {', '.join(sorted(unknown))} "
                f"(valid ids: {valid})")
        chosen = requested
    if ignore is not None:
        dropped = set(ignore)
        unknown = dropped - set(_RULES_BY_ID)
        if unknown:
            raise LintError(
                f"unknown rule id in --ignore: {', '.join(sorted(unknown))} "
                f"(valid ids: {valid})")
        chosen -= dropped
    return frozenset(chosen)


def rule(rule_id: str) -> Rule:
    """Look up a rule by ID (raises ``KeyError`` for unknown IDs)."""
    return _RULES_BY_ID[rule_id]


def is_rule_id(token: str) -> bool:
    """True when ``token`` is *shaped* like a rule ID (RLnnn)."""
    return _RULE_ID_RE.match(token) is not None


# --------------------------------------------------------------------------
# Name-resolution sets
# --------------------------------------------------------------------------

#: Legacy global-state numpy.random functions plus default_rng: everything
#: that either mutates hidden state or mints a generator outside make_rng.
_NP_RANDOM_GLOBAL = frozenset((
    "default_rng", "seed", "random", "rand", "randn", "randint",
    "random_sample", "ranf", "sample", "choice", "shuffle", "permutation",
    "standard_normal", "normal", "uniform", "exponential", "lognormal",
    "poisson", "pareto", "zipf", "binomial", "beta", "gamma", "bytes",
    "get_state", "set_state", "RandomState",
))

#: Generator/bit-generator constructors (RL003).  SeedSequence is *not*
#: here: building an entropy-pinned SeedSequence is deterministic seed
#: derivation and explicitly allowed as a make_rng argument.
_RNG_CONSTRUCTORS = frozenset((
    "numpy.random.Generator", "numpy.random.PCG64", "numpy.random.PCG64DXSM",
    "numpy.random.MT19937", "numpy.random.Philox", "numpy.random.SFC64",
))

_WALL_CLOCK = frozenset((
    "time.time", "time.time_ns", "time.localtime", "time.gmtime",
    "time.ctime", "time.asctime", "time.strftime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
))

_FS_LISTING = frozenset((
    "os.listdir", "os.scandir", "glob.glob", "glob.iglob",
))

#: Method names that enumerate a directory on any receiver (pathlib-style).
_FS_METHODS = frozenset(("glob", "rglob", "iterdir"))

_DTYPE_LESS_CTORS = frozenset((
    "numpy.empty", "numpy.zeros", "numpy.ones", "numpy.full",
    "numpy.fromiter", "numpy.array",
))

_FLOAT_CASTS = frozenset((
    "float", "numpy.float64", "numpy.float32", "numpy.float16",
))

_FLOAT_CONSTANTS = frozenset((
    "numpy.nan", "numpy.inf", "numpy.NaN", "numpy.Inf", "numpy.NAN",
    "math.nan", "math.inf",
))

_STABLE_SORT_KINDS = frozenset(("stable", "mergesort"))

_FIXED_WIDTH_DTYPE_RE = re.compile(r"^[<>|=]?[US]\d+$")

#: Calls that synchronously block: I/O, sleeps, subprocesses (RL040).
_BLOCKING_CALLS = frozenset((
    "time.sleep",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
    "os.fdopen", "os.replace", "os.rename", "os.remove", "os.makedirs",
    "shutil.copy", "shutil.copyfile", "shutil.move", "shutil.rmtree",
    "numpy.save", "numpy.savez", "numpy.savez_compressed", "numpy.savetxt",
    "numpy.load", "numpy.loadtxt", "numpy.genfromtxt",
    "socket.create_connection",
))

#: Blocking builtins (flagged only when no import shadows them).
_BLOCKING_BUILTINS = frozenset(("open", "input"))

#: pathlib-style I/O method names on unresolved receivers (RL040).
_BLOCKING_METHODS = frozenset((
    "read_text", "write_text", "read_bytes", "write_bytes",
    "unlink", "mkdir", "touch",
))


# --------------------------------------------------------------------------
# The visitor
# --------------------------------------------------------------------------

class LintVisitor(ast.NodeVisitor):
    """Single-pass visitor emitting raw violations for every rule.

    Context/package/exemption filtering and suppression handling happen in
    :mod:`repro.lint.engine`; the visitor only knows syntax.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.violations: list[Violation] = []
        #: local alias -> absolute dotted module/name, built from imports.
        self._imports: dict[str, str] = {}
        #: nodes already consumed by an enclosing check (e.g. the Attribute
        #: inside an RL003 constructor call) so they are not double-flagged.
        self._claimed: set[int] = set()
        self._parents: dict[int, ast.AST] = {}
        #: CPython-style qualname prefix of the scope being walked.
        self._qualname = ""
        #: Qualname of the async def whose body is being walked directly
        #: (None inside sync defs, lambdas and class bodies).
        self._async_def: str | None = None

    # -- helpers ----------------------------------------------------------

    def _emit(self, node: ast.AST, rule_id: str, message: str) -> None:
        line = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        self.violations.append(
            Violation(self.path, int(line), int(col) + 1, rule_id, message))

    def _resolve(self, node: ast.expr) -> str | None:
        """Absolute dotted name of ``node``, or None.

        Only chains rooted at an *imported* alias resolve; bare local names
        (``random = ...``) stay unresolved, which keeps the rules from
        flagging coincidental identifiers.
        """
        parts: list[str] = []
        cursor: ast.expr = node
        while isinstance(cursor, ast.Attribute):
            parts.append(cursor.attr)
            cursor = cursor.value
        if not isinstance(cursor, ast.Name):
            return None
        root = self._imports.get(cursor.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))

    def _parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(id(node))

    def _has_assert_ancestor(self, node: ast.AST) -> bool:
        cursor: ast.AST | None = node
        while cursor is not None:
            if isinstance(cursor, ast.Assert):
                return True
            cursor = self._parent(cursor)
        return False

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset")
                and node.func.id not in self._imports)

    def _is_float_operand(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.UnaryOp) and isinstance(
                node.op, (ast.USub, ast.UAdd)):
            return self._is_float_operand(node.operand)
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                return (node.func.id in _FLOAT_CASTS
                        and node.func.id not in self._imports)
            resolved = self._resolve(node.func)
            return resolved in _FLOAT_CASTS
        resolved = self._resolve(node)
        return resolved in _FLOAT_CONSTANTS

    # -- entry point ------------------------------------------------------

    def run(self, tree: ast.Module) -> list[Violation]:
        """Walk ``tree`` once and return the raw violations."""
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent
        self.visit(tree)
        return self.violations

    # -- imports (alias tracking + RL001) ---------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        """Track aliases; flag stdlib ``random`` imports (RL001)."""
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            self._imports[local] = (alias.name if alias.asname
                                    else alias.name.split(".")[0])
            if alias.name == "random" or alias.name.startswith("random."):
                self._emit(node, "RL001",
                           f"import of stdlib '{alias.name}'")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        """Track from-imports; flag stdlib ``random`` (RL001)."""
        if node.level == 0 and node.module is not None:
            if node.module == "random" or node.module.startswith("random."):
                self._emit(node, "RL001",
                           f"import from stdlib '{node.module}'")
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                self._imports[local] = f"{node.module}.{alias.name}"
        self.generic_visit(node)

    # -- scopes (RL040 context) -------------------------------------------

    def _visit_scope(self, node: ast.FunctionDef | ast.AsyncFunctionDef
                     | ast.ClassDef, *, is_async: bool = False) -> None:
        # Decorators, defaults and bases run in the enclosing scope; only
        # the body belongs to the new one.
        body = {id(stmt) for stmt in node.body}
        for child in ast.iter_child_nodes(node):
            if id(child) not in body:
                self.visit(child)
        saved = self._qualname, self._async_def
        qualname = self._qualname + node.name
        is_class = isinstance(node, ast.ClassDef)
        self._qualname = qualname + ("." if is_class else ".<locals>.")
        self._async_def = qualname if is_async else None
        for stmt in node.body:
            self.visit(stmt)
        self._qualname, self._async_def = saved

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        """A sync def body may block; it is never RL040 context."""
        self._visit_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        """Calls directly in this body are checked for blocking (RL040)."""
        self._visit_scope(node, is_async=True)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        """Class bodies only extend the qualname of their methods."""
        self._visit_scope(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        """A lambda body runs whenever it is called, not where it is made."""
        saved = self._async_def
        self._async_def = None
        self.generic_visit(node)
        self._async_def = saved

    # -- calls ------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        """Call-site rules: RL003–RL006, RL008, RL011, RL012, RL040."""
        resolved = self._resolve(node.func)
        keywords = {kw.arg for kw in node.keywords if kw.arg is not None}

        if self._async_def is not None:
            blocking = self._blocking_call(node, resolved)
            if blocking is not None:
                self._emit(node, "RL040",
                           f"blocking call {blocking} inside async def "
                           f"{self._async_def}; it stalls the event loop")

        if resolved is not None:
            if resolved in _RNG_CONSTRUCTORS:
                self._claimed.add(id(node.func))
                self._emit(node, "RL003",
                           f"direct construction of {resolved.split('.')[-1]}; "
                           "use repro.rng.make_rng/spawn")
            elif resolved in _WALL_CLOCK:
                self._emit(node, "RL004", f"call to {resolved}")
            elif resolved in _FS_LISTING:
                self._check_sorted_wrapper(node, resolved)
            elif resolved in _DTYPE_LESS_CTORS and "dtype" not in keywords:
                self._emit(node, "RL008",
                           f"{resolved.replace('numpy.', 'np.')} without an "
                           "explicit dtype=")
            elif (resolved == "numpy.argsort"
                  and not self._stable_kind(node)):
                self._emit(node, "RL012",
                           "np.argsort without kind='stable'")

        if isinstance(node.func, ast.Attribute) and resolved is None:
            if node.func.attr in _FS_METHODS:
                self._check_sorted_wrapper(node, f".{node.func.attr}()")
            elif (node.func.attr == "argsort"
                  and not self._stable_kind(node)):
                self._emit(node, "RL012",
                           ".argsort() without kind='stable'")

        if (isinstance(node.func, ast.Name) and node.func.id == "hash"
                and node.func.id not in self._imports):
            self._emit(node, "RL011",
                       "builtin hash() is PYTHONHASHSEED-salted; use "
                       "hashlib or a stable key")

        if (isinstance(node.func, ast.Name)
                and node.func.id in ("list", "tuple", "enumerate", "iter")
                and node.func.id not in self._imports
                and node.args and self._is_set_expr(node.args[0])):
            self._emit(node.args[0], "RL006",
                       f"{node.func.id}() over a set materializes "
                       "hash order; sort first")

        self.generic_visit(node)

    def _blocking_call(self, node: ast.Call,
                       resolved: str | None) -> str | None:
        if resolved is not None and resolved in _BLOCKING_CALLS:
            return f"{resolved.replace('numpy.', 'np.')}()"
        func = node.func
        if (isinstance(func, ast.Name) and func.id in _BLOCKING_BUILTINS
                and func.id not in self._imports):
            return f"{func.id}()"
        if (resolved is None and isinstance(func, ast.Attribute)
                and func.attr in _BLOCKING_METHODS):
            return f".{func.attr}()"
        return None

    def _stable_kind(self, node: ast.Call) -> bool:
        for kw in node.keywords:
            if kw.arg == "kind":
                if isinstance(kw.value, ast.Constant):
                    return kw.value.value in _STABLE_SORT_KINDS
                return True  # dynamic kind: give the benefit of the doubt
        return False

    def _check_sorted_wrapper(self, node: ast.Call, what: str) -> None:
        parent = self._parent(node)
        if (isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Name)
                and parent.func.id == "sorted"):
            return
        self._emit(node, "RL005",
                   f"{what} result used without sorted(...)")

    # -- attribute references (RL002) -------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        """Flag global ``np.random.*`` attribute references (RL002)."""
        if id(node) not in self._claimed:
            resolved = self._resolve(node)
            if (resolved is not None
                    and resolved.startswith("numpy.random.")
                    and resolved.rsplit(".", 1)[1] in _NP_RANDOM_GLOBAL):
                self._emit(node, "RL002",
                           f"{resolved.replace('numpy.', 'np.')} bypasses "
                           "repro.rng seed plumbing")
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        """Flag from-imported global ``np.random`` names (RL002)."""
        if isinstance(node.ctx, ast.Load) and id(node) not in self._claimed:
            resolved = self._imports.get(node.id)
            if (resolved is not None
                    and resolved.startswith("numpy.random.")
                    and resolved.rsplit(".", 1)[1] in _NP_RANDOM_GLOBAL):
                self._emit(node, "RL002",
                           f"{resolved.replace('numpy.', 'np.')} bypasses "
                           "repro.rng seed plumbing")
        self.generic_visit(node)

    # -- iteration over sets (RL006) --------------------------------------

    def _check_iter_source(self, iter_node: ast.expr) -> None:
        if self._is_set_expr(iter_node):
            self._emit(iter_node, "RL006",
                       "iteration over a set follows hash order; sort first")

    def visit_For(self, node: ast.For) -> None:
        """Flag ``for`` loops over set expressions (RL006)."""
        self._check_iter_source(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        """Flag comprehension iteration over set expressions (RL006)."""
        self._check_iter_source(node.iter)
        self.generic_visit(node)

    # -- float equality (RL007) -------------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        """Flag ==/!= with a float operand outside asserts (RL007)."""
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            operands = [node.left, *node.comparators]
            if (any(self._is_float_operand(o) for o in operands)
                    and not self._has_assert_ancestor(node)):
                self._emit(node, "RL007",
                           "==/!= against a float outside an assert")
        self.generic_visit(node)

    # -- fixed-width string dtypes (RL009) --------------------------------

    def visit_Constant(self, node: ast.Constant) -> None:
        """Flag fixed-width string dtypes like ``'<U1'`` (RL009)."""
        if (isinstance(node.value, str)
                and _FIXED_WIDTH_DTYPE_RE.match(node.value)
                and not isinstance(self._parent(node), ast.Expr)):
            self._emit(node, "RL009",
                       f"fixed-width string dtype {node.value!r} "
                       "truncates silently")
        self.generic_visit(node)


def check_tree(tree: ast.Module, path: str) -> list[Violation]:
    """Run every rule over a parsed module; returns raw violations."""
    return LintVisitor(path).run(tree)
