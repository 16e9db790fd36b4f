"""AST infrastructure for the repo's static invariant checkers.

The correctness story of this reproduction rests on a handful of contracts
that runtime tests can only sample: seeded-RNG-only determinism, no wall
clock in deterministic paths, stats counters mutated only under their lock,
graph-free inference and atomic checkpoint writes.  The
checkers in :mod:`repro.analysis.rules` enforce them *statically*; this
module is their shared substrate:

- :class:`SourceModule` — one parsed file with its comments (via
  ``tokenize``, so ``#`` inside strings never confuses annotation parsing),
  an import table that resolves local names to qualified dotted names
  (``np.random.default_rng`` → ``numpy.random.default_rng``, including
  relative ``from ..utils import atomic_write``), and the file's dotted
  module path derived from its location under ``repro/``.
- :class:`ContextVisitor` — an ``ast.NodeVisitor`` that tracks the lexical
  context every checker needs: the enclosing class/function symbol (the
  stable key baseline entries match on), the stack of held locks
  (``with self._lock:`` / ``with shard.lock:``), and whether the position is
  inside a ``with atomic_write(...)`` block.
- :func:`guarded_attributes` — the per-module registry of lock-guarded
  attributes, fed by explicit ``# guarded-by: _lock`` annotations on
  ``__init__`` assignments and by a narrow heuristic for counter-named
  attributes in single-lock classes.
"""

from __future__ import annotations

import ast
import contextlib
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

__all__ = [
    "Finding",
    "SourceModule",
    "ContextVisitor",
    "guarded_attributes",
    "expr_chain",
]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source position.

    ``symbol`` is the dotted in-file scope (``Class.method``, nested
    functions included, ``<module>`` at top level).  Baseline entries match
    on ``(rule, path, symbol)`` — line numbers shift on every edit, symbols
    do not.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    symbol: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message} [{self.symbol}]"


GUARDED_BY_RE = re.compile(r"guarded-by:\s*([A-Za-z_]\w*)")

#: Attribute names eligible for the counter heuristic of
#: :func:`guarded_attributes` (only applied in classes owning exactly one
#: lock; explicit ``# guarded-by:`` annotations always win).
COUNTER_NAME_RE = re.compile(
    r"(^|_)(queries|batches|hits|misses|evictions|expirations|answered|shed|"
    r"in_?flight|count|counts|total|seen|largest|latency|admitted|stats)($|_)"
)

LOCK_FACTORIES = {"threading.Lock", "threading.RLock", "threading.Condition"}


def expr_chain(node: ast.AST) -> Optional[str]:
    """Dotted source form of a plain name/attribute chain, else ``None``.

    ``self._lock`` → ``"self._lock"``; ``request.shard.lock`` →
    ``"request.shard.lock"``.  Calls, subscripts and other expressions have
    no stable chain and return ``None`` (checkers stay conservative).
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class SourceModule:
    """One parsed source file plus the lookup tables the checkers share."""

    def __init__(self, path: Union[str, Path], text: Optional[str] = None) -> None:
        self.path = Path(path)
        if text is None:
            text = self.path.read_text(encoding="utf-8")
        self.text = text
        self.tree = ast.parse(text, filename=str(path))
        self.comments = self._collect_comments(text)
        self.module = self._module_name(self.path)
        #: Path components below the ``repro`` package (``("serve",
        #: "fleet", "worker")``); empty for files outside it.
        self.package_parts: Tuple[str, ...] = (
            tuple(self.module.split(".")[1:]) if self.module else ()
        )
        self.imports = self._collect_imports(self.tree)

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _collect_comments(text: str) -> Dict[int, str]:
        comments: Dict[int, str] = {}
        # TokenError on malformed tails is survivable: ast.parse catches worse.
        with contextlib.suppress(tokenize.TokenError):
            for token in tokenize.generate_tokens(io.StringIO(text).readline):
                if token.type == tokenize.COMMENT:
                    comments[token.start[0]] = token.string
        return comments

    @staticmethod
    def _module_name(path: Path) -> Optional[str]:
        parts = list(path.resolve().parts)
        if "repro" not in parts:
            return None
        index = len(parts) - 1 - parts[::-1].index("repro")
        dotted = parts[index:]
        dotted[-1] = dotted[-1][:-3] if dotted[-1].endswith(".py") else dotted[-1]
        if dotted[-1] == "__init__":
            dotted = dotted[:-1]
        return ".".join(dotted)

    def _collect_imports(self, tree: ast.AST) -> Dict[str, str]:
        imports: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        imports[alias.asname] = alias.name
                    else:
                        # ``import numpy.random`` binds the top name only.
                        top = alias.name.split(".")[0]
                        imports[top] = top
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from_base(node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    imports[alias.asname or alias.name] = f"{base}.{alias.name}"
        return imports

    def _resolve_from_base(self, node: ast.ImportFrom) -> Optional[str]:
        if node.level == 0:
            return node.module
        if self.module is None:
            return node.module  # best effort outside the repro tree
        # Relative import: walk ``level`` packages up from this module's
        # package (the module itself is not a package component).
        package = self.module.split(".")[:-1]
        if node.level - 1 > len(package):
            return node.module
        base = package[: len(package) - (node.level - 1)]
        if node.module:
            base = base + node.module.split(".")
        return ".".join(base) if base else node.module

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def resolve(self, node: ast.AST) -> Optional[str]:
        """Qualified dotted name of a name/attribute chain, else ``None``.

        Only chains rooted in an imported name resolve — a local variable
        that happens to shadow an import is (conservatively) resolved to the
        import, which is the right bias for a lint gate.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.imports.get(node.id)
        if base is None:
            return None
        parts.append(base)
        return ".".join(reversed(parts))

    def comment_in_range(self, first: int, last: Optional[int]) -> str:
        """Concatenated comments on the lines ``first..last`` (inclusive)."""
        last = last if last is not None else first
        return " ".join(
            self.comments[line] for line in range(first, last + 1) if line in self.comments
        )


@dataclass
class _WithEntry:
    locks: List[Tuple[str, str]] = field(default_factory=list)
    atomic: bool = False


class ContextVisitor(ast.NodeVisitor):
    """Base visitor tracking scope symbols, held locks and atomic blocks.

    Subclasses override ``visit_*`` hooks as usual but must call
    ``self.generic_visit(node)`` (or ``super()``'s visitor) so context
    bookkeeping keeps running.
    """

    rule = "RPR000"

    def __init__(self, mod: SourceModule) -> None:
        self.mod = mod
        self.findings: List[Finding] = []
        self._scope: List[str] = []
        self._functions: List[str] = []
        self._classes: List[str] = []
        self._frozen_depth = 0
        self._withs: List[_WithEntry] = []

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    @property
    def symbol(self) -> str:
        return ".".join(self._scope) if self._scope else "<module>"

    @property
    def current_function(self) -> Optional[str]:
        return self._functions[-1] if self._functions else None

    @property
    def current_class(self) -> Optional[str]:
        return self._classes[-1] if self._classes else None

    @property
    def in_frozen_dataclass(self) -> bool:
        """Whether the position sits inside a ``@dataclass(frozen=True)``
        body — immutable snapshot types may reuse guarded attribute names."""
        return self._frozen_depth > 0

    def emit(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                path=str(self.mod.path),
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                rule=self.rule,
                message=message,
                symbol=self.symbol,
            )
        )

    # ------------------------------------------------------------------ #
    # context bookkeeping
    # ------------------------------------------------------------------ #
    def holds_lock(self, base: str, lock: str) -> bool:
        """Whether a ``with <base>.<lock>:`` block encloses the position."""
        return any(
            (entry_base == base and entry_lock == lock)
            for entry in self._withs
            for entry_base, entry_lock in entry.locks
        )

    def in_atomic_write(self) -> bool:
        """Whether a ``with atomic_write(...):`` block encloses the position."""
        return any(entry.atomic for entry in self._withs)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        frozen = any(_is_frozen_dataclass(dec) for dec in node.decorator_list)
        self._scope.append(node.name)
        self._classes.append(node.name)
        self._frozen_depth += frozen
        self.generic_visit(node)
        self._frozen_depth -= frozen
        self._classes.pop()
        self._scope.pop()

    def _visit_function(self, node) -> None:
        self._scope.append(node.name)
        self._functions.append(node.name)
        self.generic_visit(node)
        self._functions.pop()
        self._scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _visit_with(self, node) -> None:
        entry = _WithEntry()
        for item in node.items:
            ctx = item.context_expr
            if isinstance(ctx, ast.Call):
                resolved = self.mod.resolve(ctx.func)
                name = resolved or (ctx.func.id if isinstance(ctx.func, ast.Name) else "")
                if name.rsplit(".", 1)[-1] == "atomic_write":
                    entry.atomic = True
                continue
            chain = expr_chain(ctx)
            if chain is None:
                continue
            base, _, attr = chain.rpartition(".")
            entry.locks.append((base, attr))
        self._withs.append(entry)
        self.generic_visit(node)
        self._withs.pop()

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)


def _is_frozen_dataclass(decorator: ast.AST) -> bool:
    if not isinstance(decorator, ast.Call):
        return False
    func = decorator.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name != "dataclass":
        return False
    return any(
        kw.arg == "frozen" and isinstance(kw.value, ast.Constant) and kw.value.value is True
        for kw in decorator.keywords
    )


def _is_counter_literal(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
    )


def guarded_attributes(mod: SourceModule) -> Dict[str, Dict[str, Set[str]]]:
    """Lock-guarded attribute registry: ``class -> attr -> {locks}``.

    Two sources, in priority order:

    1. **Annotations** — an ``__init__`` assignment carrying a
       ``# guarded-by: <lockattr>`` comment registers the attribute against
       that lock, e.g. ``self._queries = 0  # guarded-by: _cond``.
    2. **Heuristic** — in a class whose ``__init__`` creates exactly one
       ``threading.Lock/RLock/Condition``, numeric-literal attributes with
       counter-ish names (:data:`COUNTER_NAME_RE`) are auto-registered
       against that lock.  Classes with several locks get no heuristic —
       ambiguity demands the explicit annotation.

    ``self.X`` accesses are checked against the enclosing class's own
    registrations; accesses through any other base (``shard.answered``)
    match by attribute name module-wide — that is what lets the checker
    follow guarded objects into the methods that hold them.
    """
    registry: Dict[str, Dict[str, Set[str]]] = {}
    for klass in ast.walk(mod.tree):
        if not isinstance(klass, ast.ClassDef):
            continue
        explicit: Dict[str, str] = {}
        lock_attrs: List[str] = []
        counters: List[str] = []
        for func in klass.body:
            if not isinstance(func, ast.FunctionDef) or func.name != "__init__":
                continue
            for stmt in ast.walk(func):
                target, value = _self_assignment(stmt)
                if target is None:
                    continue
                comment = mod.comment_in_range(stmt.lineno, getattr(stmt, "end_lineno", None))
                match = GUARDED_BY_RE.search(comment)
                if match:
                    explicit[target] = match.group(1)
                    continue
                if isinstance(value, ast.Call) and mod.resolve(value.func) in LOCK_FACTORIES:
                    lock_attrs.append(target)
                elif _is_counter_literal(value) and COUNTER_NAME_RE.search(target):
                    counters.append(target)
        guarded: Dict[str, Set[str]] = {}
        for attr, lock in explicit.items():
            guarded.setdefault(attr, set()).add(lock)
        if len(lock_attrs) == 1:
            for attr in counters:
                if attr not in explicit:
                    guarded.setdefault(attr, set()).add(lock_attrs[0])
        if guarded:
            registry[klass.name] = guarded
    return registry


def _self_assignment(stmt: ast.AST) -> Tuple[Optional[str], Optional[ast.AST]]:
    """``("attr", value_node)`` for ``self.attr = value`` statements."""
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target, value = stmt.targets[0], stmt.value
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        target, value = stmt.target, stmt.value
    else:
        return None, None
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        return target.attr, value
    return None, None
