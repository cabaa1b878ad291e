"""The linter's command line: ``python -m repro.lint``.

Exit codes follow the auditor's convention: 0 clean, 1 findings,
2 error (unreadable path, syntax error, unknown rule code -- every
error is a typed :class:`~repro.check.errors.InputError`, rendered as
a one-line ``repro-lint:`` diagnostic on stderr).

Usage::

    python -m repro.lint                   # lint src/repro
    python -m repro.lint --format json     # machine-readable report
    python -m repro.lint src/repro/cts     # restrict the scan
    python -m repro.lint --select REP003 src/repro/bench benchmarks
                                           # only some rules, other roots
    python -m repro.lint --explain REP005  # what a rule means and why
    python -m repro.lint --check-noqa      # fail on stale suppressions
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from typing import List, Optional

from repro.check.errors import InputError
from repro.lint.engine import run_lint
from repro.lint.report import render_json, render_text
from repro.lint.rules import default_rules, rule_catalog

#: Default scan target, relative to the project root.
DEFAULT_TARGET = os.path.join("src", "repro")


def explain_rule(code: str) -> int:
    """Print the full documentation of one rule code."""
    catalog = rule_catalog()
    rule = catalog.get(code.strip().upper())
    if rule is None:
        raise InputError(
            "unknown rule code (known: %s)" % ", ".join(sorted(catalog)),
            source=code,
        )
    print("%s: %s" % (rule.code, rule.title))
    print()
    print("rationale: %s" % rule.rationale)
    doc = inspect.getdoc(type(rule))
    if doc:
        print()
        print(doc)
    return 0


def _selected_rules(select: str, root: str) -> List[object]:
    wanted = {c.strip().upper() for c in select.split(",") if c.strip()}
    if not wanted:
        raise InputError("empty --select", source=select)
    catalog = default_rules(root)
    known = {rule.code for rule in catalog}
    unknown = sorted(wanted - known)
    if unknown:
        raise InputError(
            "unknown rule code(s): %s (known: %s)"
            % (", ".join(unknown), ", ".join(sorted(known))),
            source="--select",
        )
    return [rule for rule in catalog if rule.code in wanted]


def run_lint_cli(args: argparse.Namespace) -> int:
    """Execute a lint run from parsed arguments; returns the exit code."""
    if args.explain is not None:
        return explain_rule(args.explain)
    if args.check_noqa and args.select:
        raise InputError(
            "--check-noqa needs the full rule set; drop --select",
            source="--check-noqa",
        )
    root = os.path.abspath(args.root or os.getcwd())
    paths = list(args.paths)
    if not paths:
        default = os.path.join(root, DEFAULT_TARGET)
        if not os.path.isdir(default):
            raise InputError(
                "no paths given and default target missing", source=default
            )
        paths = [default]
    rules = None
    if args.select:
        rules = _selected_rules(args.select, root)
    result = run_lint(paths, project_root=root, rules=rules)
    if args.format == "json":
        sys.stdout.write(render_json(result))
    else:
        print(render_text(result))
    if args.check_noqa and result.stale_noqa:
        for entry in result.stale_noqa:
            print(entry.diagnostic())
        return 1
    return 0 if result.clean else 1


def main(argv: Optional[List[str]] = None) -> int:
    """The entry point of ``python -m repro.lint``."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="project-invariant static analysis for the repro tree",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--root",
        default=None,
        metavar="DIR",
        help="project root for relative paths and the parity-test "
        "lookup (default: current directory)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run (default: all rules)",
    )
    parser.add_argument(
        "--explain",
        default=None,
        metavar="CODE",
        help="print what a rule checks and why, then exit",
    )
    parser.add_argument(
        "--check-noqa",
        action="store_true",
        help="also fail (exit 1) on '# repro: noqa' comments that "
        "suppress nothing; incompatible with --select, since a "
        "partial rule set cannot tell live suppressions from stale",
    )
    args = parser.parse_args(argv)
    try:
        return run_lint_cli(args)
    except InputError as exc:
        print("repro-lint: %s" % exc.diagnostic(), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
