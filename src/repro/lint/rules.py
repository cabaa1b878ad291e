"""The project-invariant rule catalog (REP001..REP007).

Each rule encodes one convention PRs 1-4 established informally:
float comparisons must be toleranced, failures must use the typed
``repro.check.errors`` taxonomy, the flow must stay deterministic,
observability names must come from the checked-in catalog, vectorized
kernels must declare (and test against) their scalar counterparts,
and two classic Python/NumPy hazards (mutable defaults, array
truthiness) are banned outright.

Rules are pure AST inspection -- no module under analysis is ever
imported -- so the linter cannot be crashed or influenced by the code
it checks.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.model import (
    Finding,
    ModuleSource,
    Rule,
    qualified_name,
    walk_scopes,
)
from repro.obs import names as _obs_names

__all__ = ["DEFAULT_RULES", "default_rules", "rule_catalog"]


#: Identifier fragments that mark a value as a physical quantity
#: (delays, skews, costs, capacitances, distances ...) for REP001.
_QUANTITY_FRAGMENTS = (
    "delay",
    "skew",
    "cost",
    "cap",
    "dist",
    "length",
    "wirelength",
    "radius",
    "mst",
    "power",
    "slack",
)

#: Exception names REP002 rejects outside the taxonomy.
_BARE_EXCEPTIONS = {"ValueError", "RuntimeError", "TypeError"}

#: ``random``-module call names that draw from unseeded global state.
_GLOBAL_RANDOM_ATTRS = {
    "random",
    "randint",
    "randrange",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "uniform",
    "gauss",
    "getrandbits",
    "seed",
}


def _is_quantity(node: ast.AST) -> bool:
    """Does the expression name a physical quantity (by identifier)?"""
    if isinstance(node, ast.Call):
        node = node.func
    name = qualified_name(node)
    if name is None:
        return False
    tail = name.rsplit(".", 1)[-1].lower()
    return any(fragment in tail for fragment in _QUANTITY_FRAGMENTS)


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


class FloatEqualityRule(Rule):
    """REP001: ``==``/``!=`` on delay/cost/skew-like expressions.

    Scalar quantities accumulate rounding; exact comparison makes
    behaviour depend on evaluation order, which is exactly what the
    byte-identical-trace contract forbids.  Compare against a
    tolerance (``repro.check.tolerance``) instead.  Modules whose
    *contract* is bit-exactness (the kernel parity layer) are
    allowlisted.
    """

    code = "REP001"
    title = "float equality on physical quantities"
    rationale = (
        "exact float comparison of delays/costs/skews breaks under "
        "rounding; use repro.check.tolerance helpers"
    )

    #: Path suffixes where exact float comparison is the contract.
    allowed_suffixes: Tuple[str, ...] = ("cts/kernels.py",)

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if module.path.endswith(self.allowed_suffixes):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left] + list(node.comparators)
            quantities = [o for o in operands if _is_quantity(o)]
            if not quantities:
                continue
            others = [o for o in operands if not _is_quantity(o)]
            if len(quantities) >= 2 or any(_is_float_literal(o) for o in others):
                yield self.finding(
                    module,
                    node,
                    "float equality on %r; compare with a tolerance "
                    "(repro.check.tolerance)" % module.line_at(node.lineno),
                )


class BareExceptionRule(Rule):
    """REP002: bare ``ValueError``/``RuntimeError``/``TypeError`` raises.

    Library failures must use the ``repro.check.errors`` taxonomy so
    the CLI can render located one-line diagnostics and callers can
    catch by failure class.  The taxonomy module itself (``check/``)
    is exempt -- it defines the classes.
    """

    code = "REP002"
    title = "bare exception outside the ReproError taxonomy"
    rationale = (
        "raise repro.check.errors subclasses so failures carry "
        "location data and a stable class hierarchy"
    )

    #: Path fragments exempt from the rule (the taxonomy itself).
    exempt_fragments: Tuple[str, ...] = ("check/",)

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if any(fragment in module.path for fragment in self.exempt_fragments):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            name = qualified_name(exc)
            if name in _BARE_EXCEPTIONS:
                yield self.finding(
                    module,
                    node,
                    "bare %s; raise a repro.check.errors subclass "
                    "(InputError, ContractError, InternalInvariantError, ...)"
                    % name,
                )


class DeterminismRule(Rule):
    """REP003: constructs whose result depends on run-to-run state.

    Unseeded RNGs, the global ``random`` module, iteration over sets
    (hash order), and wall-clock / object identity in the routing
    packages all make two runs of the same input diverge -- the
    byte-identical ``merge_trace`` contract cannot survive any of
    them.
    """

    code = "REP003"
    title = "determinism hazard"
    rationale = (
        "unseeded RNGs, set iteration order, time.time() and id() "
        "break the byte-identical trace contract"
    )

    #: Path fragments where wall-clock / identity are also banned.
    strict_fragments: Tuple[str, ...] = ("cts/", "core/")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        strict = any(f in module.path for f in self.strict_fragments)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node, strict)
            elif isinstance(node, (ast.For, ast.comprehension)):
                iterable = node.iter
                target = node if isinstance(node, ast.For) else iterable
                if self._is_set_expr(iterable):
                    yield self.finding(
                        module,
                        target,
                        "iteration over a set is hash-order dependent; "
                        "sort it (sorted(...)) before iterating",
                    )

    def _check_call(
        self, module: ModuleSource, node: ast.Call, strict: bool
    ) -> Iterator[Finding]:
        name = qualified_name(node.func)
        if name is None:
            return
        if (
            name == "default_rng" or name.endswith(".default_rng")
        ) and self._unseeded(node):
            yield self.finding(
                module, node, "unseeded default_rng(); pass an explicit seed"
            )
        parts = name.split(".")
        if len(parts) == 2 and parts[0] == "random" and parts[1] in _GLOBAL_RANDOM_ATTRS:
            yield self.finding(
                module,
                node,
                "global random.%s() draws from shared unseeded state; "
                "use a seeded np.random.default_rng(seed)" % parts[1],
            )
        if strict and name == "time.time":
            yield self.finding(
                module,
                node,
                "time.time() in a routing package; results must not "
                "depend on the wall clock",
            )
        if strict and name == "id" and len(node.args) == 1:
            yield self.finding(
                module,
                node,
                "id() is allocation-order dependent; key on node ids "
                "or stable indices instead",
            )

    @staticmethod
    def _unseeded(node: ast.Call) -> bool:
        if node.keywords:
            return all(
                kw.arg == "seed"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is None
                for kw in node.keywords
            )
        if not node.args:
            return True
        first = node.args[0]
        return isinstance(first, ast.Constant) and first.value is None

    @staticmethod
    def _is_set_expr(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "set"
        )


class ObsNameRule(Rule):
    """REP004: span/metric name literals must be catalogued.

    Every literal first argument of ``span()`` / ``counter()`` /
    ``gauge()`` / ``histogram()`` must follow the dotted lowercase
    ``phase.subphase`` convention and appear in the checked-in
    catalog (``repro.obs.names``); dynamically composed names must
    start from a registered literal prefix.  Dashboards, the phase
    profiler and the exporter tests all key on these names -- an
    uncatalogued name is invisible to all of them.
    """

    code = "REP004"
    title = "span/metric name outside the obs catalog"
    rationale = (
        "observability names are a public contract; the checked-in "
        "catalog (repro.obs.names) is what dashboards and tests key on"
    )

    _SPAN_METHODS = {"span"}
    _METRIC_METHODS = {"counter", "gauge", "histogram"}

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not isinstance(
                node.func, ast.Attribute
            ):
                continue
            method = node.func.attr
            if method in self._SPAN_METHODS:
                kind = "span"
            elif method in self._METRIC_METHODS:
                kind = "metric"
            else:
                continue
            if not node.args:
                continue
            extracted = self._literal_or_prefix(node.args[0])
            if extracted is None:
                continue
            full, text = extracted
            yield from self._check_name(module, node, kind, full, text)

    def _check_name(
        self,
        module: ModuleSource,
        node: ast.Call,
        kind: str,
        full: bool,
        text: str,
    ) -> Iterator[Finding]:
        if full:
            if not _obs_names.is_valid_name(text):
                yield self.finding(
                    module,
                    node,
                    "%s name %r does not match the dotted lowercase "
                    "phase.subphase convention" % (kind, text),
                )
                return
            known = (
                _obs_names.span_name_known(text)
                if kind == "span"
                else _obs_names.metric_name_known(text)
            )
            if not known:
                yield self.finding(
                    module,
                    node,
                    "%s name %r is not in the repro.obs.names catalog; "
                    "register it there" % (kind, text),
                )
            return
        prefixes = (
            _obs_names.SPAN_PREFIXES
            if kind == "span"
            else _obs_names.METRIC_PREFIXES
        )
        if not text.startswith(tuple(prefixes)):
            yield self.finding(
                module,
                node,
                "dynamic %s name built from unregistered prefix %r; "
                "add the prefix to repro.obs.names" % (kind, text),
            )

    @staticmethod
    def _literal_or_prefix(arg: ast.AST) -> Optional[Tuple[bool, str]]:
        """``(is_full_literal, text)`` for a name argument, else None."""
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return True, arg.value
        if isinstance(arg, ast.BinOp) and isinstance(
            arg.left, ast.Constant
        ) and isinstance(arg.left.value, str):
            text = arg.left.value
            if isinstance(arg.op, ast.Mod):
                text = text.split("%", 1)[0]
            return False, text
        if (
            isinstance(arg, ast.JoinedStr)
            and arg.values
            and isinstance(arg.values[0], ast.Constant)
            and isinstance(arg.values[0].value, str)
        ):
            return False, arg.values[0].value
        return None


class KernelParityRule(Rule):
    """REP005: vectorized kernels must declare scalar counterparts.

    Every public function in ``cts/kernels.py`` must carry a
    ``Scalar counterpart: <dotted.name>`` docstring tag (or
    ``Scalar counterpart: none -- <reason>`` for pure plumbing) and,
    when a counterpart is declared, be exercised by the parity test
    file -- the bit-exactness contract is only as strong as the test
    that pins it.
    """

    code = "REP005"
    title = "kernel without declared scalar counterpart / parity test"
    rationale = (
        "every batched kernel mirrors a scalar function bit for bit; "
        "the docstring tag + parity test make that contract checkable"
    )

    #: The module the rule applies to and the test file pinning parity.
    kernel_suffix = "cts/kernels.py"
    parity_test = "tests/test_cts_kernels.py"
    tag = "Scalar counterpart:"

    def __init__(self, project_root: Optional[str] = None):
        self.project_root = project_root

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if not module.path.endswith(self.kernel_suffix):
            return
        parity_source = self._parity_source()
        for node in module.tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name.startswith("_"):
                continue
            doc = ast.get_docstring(node) or ""
            counterpart = self._declared_counterpart(doc)
            if counterpart is None:
                yield self.finding(
                    module,
                    node,
                    "public kernel %s() lacks a %r docstring tag"
                    % (node.name, self.tag),
                )
                continue
            if counterpart == "none":
                continue
            if parity_source is None:
                yield self.finding(
                    module,
                    node,
                    "kernel %s() declares counterpart %s but the parity "
                    "test file %s is missing"
                    % (node.name, counterpart, self.parity_test),
                )
            elif node.name not in parity_source:
                yield self.finding(
                    module,
                    node,
                    "kernel %s() declares counterpart %s but never "
                    "appears in %s" % (node.name, counterpart, self.parity_test),
                )

    def _declared_counterpart(self, doc: str) -> Optional[str]:
        for line in doc.splitlines():
            line = line.strip()
            if line.startswith(self.tag):
                value = line[len(self.tag) :].strip()
                head = value.split()[0] if value else ""
                if head.rstrip(".,;") == "none":
                    return "none"
                return head or None
        return None

    def _parity_source(self) -> Optional[str]:
        if self.project_root is None:
            return None
        import os

        path = os.path.join(self.project_root, *self.parity_test.split("/"))
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return handle.read()
        except OSError:
            return None


class MutableDefaultRule(Rule):
    """REP006: mutable default arguments."""

    code = "REP006"
    title = "mutable default argument"
    rationale = (
        "a mutable default is shared across calls; default to None "
        "and construct inside the function"
    )

    _MUTABLE_CALLS = {"list", "dict", "set", "bytearray"}

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        module,
                        default,
                        "mutable default argument %r; use None and build "
                        "inside the function" % module.line_at(default.lineno),
                    )

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(
            node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
        ):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self._MUTABLE_CALLS
            and not node.args
            and not node.keywords
        )


class ArrayTruthinessRule(Rule):
    """REP007: boolean tests of NumPy arrays.

    ``if arr:`` raises for arrays of length != 1 and silently reads
    the single element otherwise; both are bugs.  The rule tracks
    names assigned from ``np.*`` calls inside each scope and flags
    their use as a bare condition (use ``arr.size``, ``arr.any()`` or
    ``arr.all()``).
    """

    code = "REP007"
    title = "NumPy array used as a boolean"
    rationale = (
        "`if arr:` is a crash for len != 1 and a silent scalar read "
        "otherwise; test .size / .any() / .all() explicitly"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        aliases = self._numpy_aliases(module.tree)
        if not aliases:
            return
        for scope in walk_scopes(module.tree):
            array_names = self._array_names(scope, aliases)
            if not array_names:
                continue
            for node in self._walk_scope(scope):
                if isinstance(node, (ast.If, ast.While, ast.IfExp, ast.Assert)):
                    test = node.test
                else:
                    continue
                for name_node in self._truth_tested_names(test):
                    if name_node.id in array_names:
                        yield self.finding(
                            module,
                            name_node,
                            "array %r used as a boolean; test "
                            "%s.size / %s.any() / %s.all() instead"
                            % ((name_node.id,) * 4),
                        )

    @staticmethod
    def _walk_scope(scope: List[ast.stmt]) -> Iterator[ast.AST]:
        """Walk a scope's statements without descending into nested
        function/lambda bodies (those are their own scopes)."""
        stack: List[ast.AST] = list(scope)
        while stack:
            node = stack.pop()
            yield node
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def _numpy_aliases(tree: ast.Module) -> Set[str]:
        aliases: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "numpy":
                        aliases.add(alias.asname or "numpy")
        return aliases

    @classmethod
    def _array_names(cls, scope: List[ast.stmt], aliases: Set[str]) -> Set[str]:
        names: Set[str] = set()
        for node in cls._walk_scope(scope):
            if not isinstance(node, ast.Assign) or not isinstance(
                node.value, ast.Call
            ):
                continue
            func = qualified_name(node.value.func)
            if func is None or func.split(".", 1)[0] not in aliases:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        return names

    @staticmethod
    def _truth_tested_names(test: ast.AST) -> Iterator[ast.Name]:
        """Names whose truthiness the test directly evaluates."""
        if isinstance(test, ast.Name):
            yield test
        elif isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            yield from ArrayTruthinessRule._truth_tested_names(test.operand)
        elif isinstance(test, ast.BoolOp):
            for value in test.values:
                yield from ArrayTruthinessRule._truth_tested_names(value)


#: Rule classes in code order (instantiated per run by the engine).
DEFAULT_RULES = (
    FloatEqualityRule,
    BareExceptionRule,
    DeterminismRule,
    ObsNameRule,
    KernelParityRule,
    MutableDefaultRule,
    ArrayTruthinessRule,
)


def default_rules(project_root: Optional[str] = None) -> List[Rule]:
    """Instantiate the full catalog (root feeds path-aware rules)."""
    rules: List[Rule] = []
    for cls in DEFAULT_RULES:
        if cls is KernelParityRule:
            rules.append(cls(project_root))
        else:
            rules.append(cls())
    return rules


def rule_catalog() -> Dict[str, Rule]:
    """Code -> rule instance, for docs and the reporters."""
    return {rule.code: rule for rule in default_rules()}
