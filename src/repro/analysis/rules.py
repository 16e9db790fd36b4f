"""The five repo-specific invariant checkers.

Each checker is a :class:`~repro.analysis.core.ContextVisitor` with a stable
rule ID; :func:`run_rules` drives them over one parsed module.  Rules are
deliberately *scoped*: a rule only fires in the part of the tree whose
contract it encodes (``RPR002`` in serve/monitor/engine, ``RPR005`` in the
persistence layers, …), so running the analyzer over unrelated code —
``benchmarks/check_regression.py``, fixture trees in tests — is silent by
construction, not by baseline.

==========  ===============================================================
Rule        Contract
==========  ===============================================================
RPR001      rng-discipline: no legacy ``np.random.*`` global-state API
            anywhere; no argless ``default_rng()`` and no module-level RNG
            outside ``repro.data`` fixtures — seeded Generators must flow
            from parameters.
RPR002      wall-clock: ``time.time``/``datetime.now`` banned in
            serve/monitor/engine/slo and the estimator zoo
            (``core/learners``, ``core/api``) — the deterministic paths;
            ``perf_counter`` only in stats/bench modules.  ``time.monotonic`` is allowed —
            it feeds deadlines and TTLs through injectable clocks, never
            response values.
RPR003      lock-discipline: attributes registered via ``# guarded-by:``
            (or the single-lock counter heuristic) may only be touched
            inside a ``with <base>.<lock>:`` block, ``__init__``, or a
            ``*_locked`` caller-holds-lock method.
RPR004      infer-purity: no ``Tensor(...)`` construction and no
            ``_parents``/``_backward`` reachable from ``infer*`` kernels
            (same-module call closure through ``self.*`` and local calls).
RPR005      atomic-writes: ``open(..., "w")``/``np.save*``/``write_text``
            under serve/, core/persistence and utils/ must sit inside
            ``with atomic_write(...)``.
==========  ===============================================================
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Type

from .core import ContextVisitor, Finding, SourceModule, expr_chain, guarded_attributes

__all__ = ["RULES", "run_rules", "rule_ids"]


# --------------------------------------------------------------------------- #
# RPR001 — rng-discipline
# --------------------------------------------------------------------------- #
#: The module-level-state numpy.random API (one hidden global RandomState).
LEGACY_NP_RANDOM = {
    "seed", "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "normal", "uniform", "choice", "shuffle", "permutation",
    "binomial", "poisson", "beta", "gamma", "exponential", "standard_normal",
    "standard_cauchy", "lognormal", "laplace", "multivariate_normal",
    "get_state", "set_state", "RandomState",
}


class RngDiscipline(ContextVisitor):
    """RPR001: seeded ``np.random.Generator`` objects only, flowing from parameters."""

    rule = "RPR001"

    def _in_data_fixtures(self) -> bool:
        return bool(self.mod.package_parts) and self.mod.package_parts[0] == "data"

    def visit_Attribute(self, node: ast.Attribute) -> None:
        qual = self.mod.resolve(node)
        if qual and qual.startswith("numpy.random."):
            tail = qual[len("numpy.random."):]
            if tail in LEGACY_NP_RANDOM:
                self.emit(
                    node,
                    f"legacy global-state API numpy.random.{tail} — "
                    "use a seeded np.random.Generator flowing from a parameter",
                )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        qual = self.mod.resolve(node.func)
        if qual == "numpy.random.default_rng":
            if not node.args and not node.keywords and not self._in_data_fixtures():
                self.emit(
                    node,
                    "argless default_rng() draws OS entropy — outside repro.data "
                    "fixtures a seeded Generator must flow from a parameter",
                )
            elif not self._functions and not self._in_data_fixtures():
                self.emit(
                    node,
                    "module-level RNG is shared mutable state — construct "
                    "Generators inside the flow that owns the seed",
                )
        self.generic_visit(node)


# --------------------------------------------------------------------------- #
# RPR002 — wall-clock
# --------------------------------------------------------------------------- #
BANNED_CLOCKS = {
    "time.time", "time.time_ns", "time.localtime", "time.ctime",
    "time.strftime", "time.gmtime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}
#: Fine-grained timers: legitimate for measuring, never for behaviour, so
#: they are confined to modules that exist to measure.
RESTRICTED_CLOCKS = {"time.perf_counter", "time.perf_counter_ns", "time.process_time"}

#: ``slo`` is deliberately in scope: the load harness *measures* time, but
#: only through its injected monotonic-clock protocol — a direct
#: ``time.time``/``perf_counter`` there would make replayed tapes
#: unreproducible in exactly the runs that gate CI.
DETERMINISTIC_PACKAGES = {"serve", "monitor", "engine", "slo"}
#: Individual modules whose package head is shared with out-of-scope code:
#: the estimator zoo and registry promise bitwise retrain determinism, so
#: they are wall-clock-free even though most of ``core`` is unscoped.
DETERMINISTIC_MODULES = {("core", "learners"), ("core", "api")}


class WallClock(ContextVisitor):
    """RPR002: deterministic paths must not read the wall clock."""

    rule = "RPR002"

    @classmethod
    def in_scope(cls, mod: SourceModule) -> bool:
        parts = mod.package_parts
        if not parts:
            return False
        return parts[0] in DETERMINISTIC_PACKAGES or parts[:2] in DETERMINISTIC_MODULES

    def _is_stats_module(self) -> bool:
        stem = self.mod.path.stem
        return "bench" in stem or "stats" in stem

    def _check(self, node: ast.AST) -> None:
        qual = self.mod.resolve(node)
        if qual in BANNED_CLOCKS:
            self.emit(
                node,
                f"wall clock {qual} in a deterministic path — replay cannot "
                "reproduce it; inject a clock or derive time from the tape",
            )
        elif qual in RESTRICTED_CLOCKS and not self._is_stats_module():
            self.emit(
                node,
                f"{qual} outside a stats/bench module — fine-grained timers "
                "belong to measurement code, not serving/training logic",
            )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # No double-reporting risk from recursing: no banned name is a
        # prefix of another, so inner chain nodes resolve to unbanned names.
        self._check(node)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        self._check(node)


# --------------------------------------------------------------------------- #
# RPR003 — lock-discipline
# --------------------------------------------------------------------------- #
class LockDiscipline(ContextVisitor):
    """RPR003: guarded attributes only under their registered lock."""

    rule = "RPR003"

    def __init__(self, mod: SourceModule) -> None:
        super().__init__(mod)
        self.by_class: Dict[str, Dict[str, Set[str]]] = guarded_attributes(mod)
        self.module_wide: Dict[str, Set[str]] = {}
        for guarded in self.by_class.values():
            for attr, locks in guarded.items():
                self.module_wide.setdefault(attr, set()).update(locks)

    def _exempt(self) -> bool:
        if self.in_frozen_dataclass:
            # Immutable snapshot types (ShardStats & co.) legitimately reuse
            # guarded field names; there is no shared state to lock.
            return True
        fn = self.current_function
        # __init__ happens-before publication; *_locked names declare the
        # caller-holds-lock convention (see repro.serve.registry).
        return fn is not None and (fn == "__init__" or fn.endswith("_locked"))

    def visit_Attribute(self, node: ast.Attribute) -> None:
        base = expr_chain(node.value)
        if base == "self":
            # Only the enclosing class's own registrations apply to self.
            guarded = self.by_class.get(self.current_class or "", {})
            locks = guarded.get(node.attr)
        elif base is not None:
            locks = self.module_wide.get(node.attr)
        else:
            locks = None
        if (
            locks
            and not self._exempt()
            and not any(self.holds_lock(base, lock) for lock in locks)
        ):
            wanted = " or ".join(f"with {base}.{lock}:" for lock in sorted(locks))
            self.emit(
                node,
                f"guarded attribute .{node.attr} accessed outside its "
                f"lock (requires {wanted})",
            )
        self.generic_visit(node)


# --------------------------------------------------------------------------- #
# RPR004 — infer-purity
# --------------------------------------------------------------------------- #
GRAPH_ATTRS = {"_parents", "_backward"}


class InferPurity(ContextVisitor):
    """RPR004: no graph machinery reachable from ``infer*`` kernels."""

    rule = "RPR004"

    @classmethod
    def in_scope(cls, mod: SourceModule) -> bool:
        # The Tensor implementation itself owns _parents/_backward.
        return mod.module != "repro.nn.tensor"

    def __init__(self, mod: SourceModule) -> None:
        super().__init__(mod)
        self._reachable = _infer_closure(mod)
        self._active = 0

    def _is_target(self, node) -> bool:
        return id(node) in self._reachable

    def _visit_function(self, node) -> None:
        entered = self._is_target(node)
        if entered:
            self._active += 1
        super()._visit_function(node)
        if entered:
            self._active -= 1

    def visit_Call(self, node: ast.Call) -> None:
        if self._active:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else None
            qual = self.mod.resolve(func)
            if (qual or name or "").rsplit(".", 1)[-1] == "Tensor":
                self.emit(
                    node,
                    "Tensor construction inside an infer kernel — the "
                    "inference fast path must stay graph-free on raw ndarrays",
                )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self._active and node.attr in GRAPH_ATTRS:
            self.emit(
                node,
                f"autograd internals .{node.attr} touched inside an infer "
                "kernel — graph bookkeeping must be unreachable from infer",
            )
        self.generic_visit(node)


def _infer_closure(mod: SourceModule) -> Set[int]:
    """Node ids of functions reachable from infer entry points in-module.

    Entry points: every function in ``repro.nn.infer`` (the kernel module),
    plus any function named ``infer``/``infer_*``.  Reachability follows
    simple calls (``helper(...)``, ``self._helper(...)``) to functions
    defined in the same module, by name — conservative, but exactly the
    shape the hand-written kernels use.
    """
    functions: Dict[str, List[ast.AST]] = {}
    for node in ast.walk(mod.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.setdefault(node.name, []).append(node)

    def is_entry(name: str) -> bool:
        if mod.module == "repro.nn.infer":
            return True
        return name == "infer" or name.startswith("infer_")

    queue = [fn for name, fns in functions.items() if is_entry(name) for fn in fns]
    reachable: Set[int] = set()
    while queue:
        fn = queue.pop()
        if id(fn) in reachable:
            continue
        reachable.add(id(fn))
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            callee: Optional[str] = None
            if isinstance(node.func, ast.Name):
                callee = node.func.id
            elif isinstance(node.func, ast.Attribute) and expr_chain(node.func.value) == "self":
                callee = node.func.attr
            if callee in functions:
                queue.extend(functions[callee])
    return reachable


# --------------------------------------------------------------------------- #
# RPR005 — atomic-writes
# --------------------------------------------------------------------------- #
SAVE_CALLS = {"numpy.save", "numpy.savez", "numpy.savez_compressed", "numpy.savetxt"}
WRITE_METHODS = {"write_text", "write_bytes"}
WRITE_MODE_CHARS = set("wax+")


class AtomicWrites(ContextVisitor):
    """RPR005: persistence-layer writes must route through ``atomic_write``."""

    rule = "RPR005"

    @classmethod
    def in_scope(cls, mod: SourceModule) -> bool:
        parts = mod.package_parts
        if not parts:
            return False
        if mod.module == "repro.utils.files":
            return False  # the atomic_write implementation itself
        return parts[0] in {"serve", "utils"} or mod.module == "repro.core.persistence"

    @staticmethod
    def _open_mode(node: ast.Call) -> Optional[str]:
        if len(node.args) >= 2:
            mode = node.args[1]
        else:
            mode = next((kw.value for kw in node.keywords if kw.arg == "mode"), None)
        if mode is None:
            return "r"
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return mode.value
        return None  # dynamic mode: cannot tell, stay silent

    def visit_Call(self, node: ast.Call) -> None:
        if not self.in_atomic_write():
            message = None
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                mode = self._open_mode(node)
                if mode is not None and WRITE_MODE_CHARS & set(mode):
                    message = f"open(..., {mode!r})"
            elif self.mod.resolve(func) in SAVE_CALLS:
                message = self.mod.resolve(func)
            elif isinstance(func, ast.Attribute) and func.attr in WRITE_METHODS:
                message = f".{func.attr}()"
            if message is not None:
                self.emit(
                    node,
                    f"{message} outside a `with atomic_write(...)` block — a "
                    "crash mid-write must never leave a truncated artefact "
                    "(route through repro.utils.atomic_write)",
                )
        self.generic_visit(node)


# --------------------------------------------------------------------------- #
# driver
# --------------------------------------------------------------------------- #
RULES: Dict[str, Type[ContextVisitor]] = {
    "RPR001": RngDiscipline,
    "RPR002": WallClock,
    "RPR003": LockDiscipline,
    "RPR004": InferPurity,
    "RPR005": AtomicWrites,
}


def rule_ids() -> List[str]:
    return sorted(RULES)


def run_rules(mod: SourceModule, rules: Optional[List[str]] = None) -> List[Finding]:
    """Run the selected (default: all) checkers over one module."""
    findings: List[Finding] = []
    for rule_id in rules if rules is not None else rule_ids():
        checker_cls = RULES[rule_id]
        in_scope = getattr(checker_cls, "in_scope", None)
        if in_scope is not None and not in_scope(mod):
            continue
        checker = checker_cls(mod)
        checker.visit(mod.tree)
        findings.extend(checker.findings)
    return sorted(findings)
