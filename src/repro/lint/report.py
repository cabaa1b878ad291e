"""Text and JSON reporters for lint results.

The text reporter prints one :meth:`Finding.diagnostic` line per
finding -- the same ``source: line N: message`` shape as
``repro.check.errors`` -- followed by a per-rule summary.  The JSON
reporter emits a stable machine-readable document (schema below) for
CI annotation tooling.

JSON schema (``version`` 3; version 2 also carried the baseline
counts ``baselined`` and ``stale_baseline``, version 1 lacked
``stale_noqa``)::

    {"version": 3,
     "tool": "repro-lint",
     "clean": bool,
     "files_scanned": int,
     "suppressed": int,
     "stale_noqa": [{"path", "line", "codes", "snippet"}, ...],
     "counts": {"REP002": 3, ...},
     "findings": [{"rule", "path", "line", "col",
                   "message", "snippet", "fingerprint"}, ...]}

``stale_noqa[].codes`` is the sorted list of rule codes the comment
names, or ``null`` for a blanket ``# repro: noqa``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.lint.engine import LintResult
from repro.lint.rules import rule_catalog

REPORT_VERSION = 3


def render_text(result: LintResult) -> str:
    """Human-readable report: diagnostics then a summary block."""
    lines: List[str] = [f.diagnostic() for f in result.findings]
    if result.findings:
        lines.append("")
        catalog = rule_catalog()
        for code, count in result.counts().items():
            rule = catalog.get(code)
            title = rule.title if rule is not None else "unknown rule"
            lines.append("%s  %3d  %s" % (code, count, title))
        lines.append("")
    tail = "%d file(s) scanned, %d finding(s)" % (
        result.files_scanned,
        len(result.findings),
    )
    extras = []
    if result.suppressed:
        extras.append("%d suppressed" % result.suppressed)
    if result.stale_noqa:
        extras.append("%d stale noqa comment(s)" % len(result.stale_noqa))
    if extras:
        tail += " (%s)" % ", ".join(extras)
    lines.append(tail)
    return "\n".join(lines)


def report_dict(result: LintResult) -> Dict[str, Any]:
    """The JSON document as a plain dict (schema above)."""
    return {
        "version": REPORT_VERSION,
        "tool": "repro-lint",
        "clean": result.clean,
        "files_scanned": result.files_scanned,
        "suppressed": result.suppressed,
        "stale_noqa": [
            {
                "path": entry.path,
                "line": entry.line,
                "codes": list(entry.codes) if entry.codes is not None else None,
                "snippet": entry.snippet,
            }
            for entry in result.stale_noqa
        ],
        "counts": result.counts(),
        "findings": [f.as_dict() for f in result.findings],
    }


def render_json(result: LintResult) -> str:
    """The JSON report, sorted keys, newline-terminated."""
    return json.dumps(report_dict(result), indent=2, sort_keys=True) + "\n"
