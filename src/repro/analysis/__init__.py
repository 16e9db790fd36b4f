"""Static invariant checkers for the repro codebase.

``python -m repro.analysis src`` runs five AST-based rules (RPR001–RPR005)
that enforce the contracts the runtime tests can only sample: RNG
discipline, wall-clock bans, lock discipline, infer purity and atomic
writes.  See :mod:`repro.analysis.rules` for the
rule table and ``ARCHITECTURE.md`` for the annotate-vs-baseline workflow.
"""

from .baseline import Baseline, BaselineEntry, BaselineError
from .cli import analyze_paths, main
from .core import ContextVisitor, Finding, SourceModule, guarded_attributes
from .rules import RULES, rule_ids, run_rules

__all__ = [
    "Baseline",
    "BaselineEntry",
    "BaselineError",
    "ContextVisitor",
    "Finding",
    "RULES",
    "SourceModule",
    "analyze_paths",
    "guarded_attributes",
    "main",
    "rule_ids",
    "run_rules",
]
