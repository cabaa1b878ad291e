"""Data model of the project linter: findings, rules, the catalog.

A :class:`Finding` is one diagnosed violation, located by file and
line and rendered in the same one-line ``source: line N: message``
style as :meth:`repro.check.errors.ReproError.diagnostic`, so lint
output and runtime diagnostics read alike.  A :class:`Rule` inspects
one parsed module at a time and yields findings; the engine owns file
discovery and suppression comments.

Findings carry a *fingerprint* -- a hash of rule code, relative path
and the stripped source line -- so report consumers can match a
finding across runs when unrelated edits shift line numbers.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional


@dataclass(frozen=True)
class Finding:
    """One rule violation at a concrete source location."""

    rule: str  #: rule code, e.g. ``"REP002"``
    path: str  #: project-root-relative posix path
    line: int  #: 1-based line number
    col: int  #: 0-based column offset
    message: str
    snippet: str = ""  #: the stripped offending source line

    def diagnostic(self) -> str:
        """One-line diagnostic, ``repro.check.errors`` style."""
        return "%s: line %d: [%s] %s" % (self.path, self.line, self.rule, self.message)

    @property
    def fingerprint(self) -> str:
        """Line-number-independent identity of the finding."""
        digest = hashlib.sha1(
            ("%s|%s|%s" % (self.rule, self.path, self.snippet)).encode("utf-8")
        )
        return digest.hexdigest()[:16]

    def as_dict(self) -> Dict[str, Any]:
        """Stable-key dict for the JSON reporter."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
            "fingerprint": self.fingerprint,
        }


@dataclass
class ModuleSource:
    """One parsed module handed to every rule."""

    path: str  #: project-root-relative posix path
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)

    def line_at(self, lineno: int) -> str:
        """The stripped source text of a 1-based line ('' off the end)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


class Rule:
    """Base class of every lint rule.

    Subclasses set the class attributes and implement :meth:`check`.
    ``code`` must be unique (``REPnnn``); ``title`` is the short name
    shown in summaries; ``rationale`` documents *why* the invariant
    matters (rendered into ``DESIGN.md``'s rule table).
    """

    code: str = "REP000"
    title: str = "abstract rule"
    rationale: str = ""

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: ModuleSource, node: ast.AST, message: str
    ) -> Finding:
        """Build a :class:`Finding` located at an AST node."""
        line = getattr(node, "lineno", 1)
        return Finding(
            rule=self.code,
            path=module.path,
            line=line,
            col=getattr(node, "col_offset", 0),
            message=message,
            snippet=module.line_at(line),
        )


def qualified_name(node: ast.AST) -> Optional[str]:
    """Dotted name of a ``Name``/``Attribute`` chain, else ``None``.

    ``np.random.default_rng`` -> ``"np.random.default_rng"``; chains
    broken by calls or subscripts return ``None``.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def walk_scopes(tree: ast.Module) -> Iterator[List[ast.stmt]]:
    """Yield each scope's statement list: module body, then every
    function body (nested functions yield their own scope)."""
    yield list(tree.body)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield list(node.body)

