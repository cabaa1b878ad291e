"""File discovery, suppression handling and the lint run itself.

The engine walks the requested paths, parses every ``.py`` file once
and runs the rule catalog over each file.  Findings suppressed by
``# repro: noqa[...]`` comments are dropped -- and the engine tracks
which suppression comments actually matched something, so the CLI's
``--check-noqa`` mode can flag stale ones.  Nothing under analysis is
imported; a file that does not parse raises
:class:`repro.check.errors.InputError` carrying the offending path and
line, which the CLI maps to exit code 2.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.check.errors import InputError
from repro.lint.model import Finding, ModuleSource, Rule
from repro.lint.rules import default_rules

#: Matches a ``repro``-style noqa comment: bare (all rules) or with a
#: bracketed code list such as ``[REP001,REP003]``.
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[([A-Za-z0-9_,\s]*)\])?")


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Every ``.py`` file under ``paths`` (files pass through), sorted
    so runs are reproducible regardless of filesystem order."""
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        if not os.path.isdir(path):
            raise InputError("no such file or directory", source=path)
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames.sort()
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield os.path.join(dirpath, filename)


def parse_module(path: str, project_root: str) -> ModuleSource:
    """Read and parse one file into a :class:`ModuleSource`."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        raise InputError("unreadable file: %s" % exc, source=path)
    rel = os.path.relpath(path, project_root).replace(os.sep, "/")
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise InputError(
            "syntax error: %s" % (exc.msg or "invalid syntax"),
            source=rel,
            line=exc.lineno,
        )
    return ModuleSource(path=rel, source=source, tree=tree, lines=source.splitlines())


def _comment_lines(module: ModuleSource) -> Dict[int, str]:
    """1-based line -> comment text, for *real* comments only.

    Tokenizing keeps ``# repro: noqa`` mentions inside strings and
    docstrings (this module's own docs, rule rationales) from being
    read as live suppressions; if tokenization fails the raw lines are
    scanned instead, which can only over-approximate.
    """
    try:
        tokens = tokenize.generate_tokens(io.StringIO(module.source).readline)
        return {
            token.start[0]: token.string
            for token in tokens
            if token.type == tokenize.COMMENT
        }
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return dict(enumerate(module.lines, start=1))


def suppressions_for(module: ModuleSource) -> Dict[int, Optional[Set[str]]]:
    """Per-line suppression map: line -> codes (``None`` = all rules)."""
    table: Dict[int, Optional[Set[str]]] = {}
    for lineno, text in _comment_lines(module).items():
        match = _NOQA_RE.search(text)
        if match is None:
            continue
        codes = match.group(1)
        if codes is None or not codes.strip():
            table[lineno] = None
        else:
            table[lineno] = {c.strip().upper() for c in codes.split(",") if c.strip()}
    return table


def is_suppressed(
    finding: Finding, table: Dict[int, Optional[Set[str]]]
) -> bool:
    codes = table.get(finding.line, "missing")
    if codes == "missing":
        return False
    return codes is None or finding.rule in codes


@dataclass(frozen=True)
class StaleNoqa:
    """A ``# repro: noqa`` comment that suppressed nothing this run."""

    path: str
    line: int
    codes: Optional[Tuple[str, ...]]  #: ``None`` = blanket suppression
    snippet: str

    def diagnostic(self) -> str:
        scope = "all rules" if self.codes is None else ",".join(self.codes)
        return "%s: line %d: stale suppression [%s] matched no finding" % (
            self.path,
            self.line,
            scope,
        )


@dataclass
class LintResult:
    """Outcome of one lint run (post suppression)."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    suppressed: int = 0
    #: suppression comments that matched nothing (see ``--check-noqa``)
    stale_noqa: List[StaleNoqa] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    def counts(self) -> Dict[str, int]:
        """Finding count per rule code, sorted by code."""
        counter = Counter(f.rule for f in self.findings)
        return {code: counter[code] for code in sorted(counter)}


def run_lint(
    paths: Sequence[str],
    project_root: Optional[str] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> LintResult:
    """Lint ``paths`` and return the unsuppressed findings.

    ``project_root`` anchors relative paths (and the REP005 parity
    test lookup); it defaults to the current directory.
    """
    root = os.path.abspath(project_root or os.getcwd())
    active_rules = list(rules) if rules is not None else default_rules(root)
    result = LintResult()
    seen_paths: Set[str] = set()
    for path in iter_python_files(paths):
        module = parse_module(path, root)
        if module.path in seen_paths:
            continue
        seen_paths.add(module.path)
        result.files_scanned += 1
        table = suppressions_for(module)
        used_lines: Set[int] = set()
        for rule in active_rules:
            for finding in rule.check(module):
                if is_suppressed(finding, table):
                    used_lines.add(finding.line)
                    result.suppressed += 1
                else:
                    result.findings.append(finding)
        result.stale_noqa.extend(
            StaleNoqa(
                path=module.path,
                line=lineno,
                codes=tuple(sorted(codes)) if codes is not None else None,
                snippet=module.line_at(lineno),
            )
            for lineno, codes in sorted(table.items())
            if lineno not in used_lines
        )
    result.findings.sort(key=lambda f: (f.path, f.line, f.rule, f.col))
    result.stale_noqa.sort(key=lambda entry: (entry.path, entry.line))
    return result
