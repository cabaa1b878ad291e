"""``repro.lint`` -- AST-based project-invariant analysis.

A project-specific linter enforcing the invariants PRs 1-4 built up
as conventions: toleranced float comparison on physical quantities
(REP001), the typed ``repro.check.errors`` taxonomy (REP002),
determinism (REP003), the observability name catalog (REP004), the
kernel/scalar parity contract (REP005), and two generic Python/NumPy
hazards (REP006 mutable defaults, REP007 array truthiness).  Every
rule inspects one module at a time; ``# repro: noqa[...]`` comments
are the one escape hatch.

See ``DESIGN.md`` section "Static analysis & code invariants" for the
full rule table and ``repro.lint.cli`` for the command-line gate.
"""

from repro.lint.engine import LintResult, StaleNoqa, run_lint
from repro.lint.model import Finding, ModuleSource, Rule
from repro.lint.report import render_json, render_text, report_dict
from repro.lint.rules import DEFAULT_RULES, default_rules, rule_catalog

__all__ = [
    "DEFAULT_RULES",
    "Finding",
    "LintResult",
    "ModuleSource",
    "Rule",
    "StaleNoqa",
    "default_rules",
    "render_json",
    "render_text",
    "report_dict",
    "rule_catalog",
    "run_lint",
]
