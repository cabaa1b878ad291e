"""Project invariants: six AST rules applied to the source tree.

Each rule encodes a convention the flow depends on: toleranced float
comparison (REP001), the typed ``repro.check.errors`` taxonomy
(REP002), determinism (REP003), the observability name catalog
(REP004), the kernel/scalar parity contract (REP005) and NumPy array
truthiness (REP007).  Mutable defaults (formerly REP006) are ruff's
``B006``.  A rule is a function ``(path, tree) -> (node, message)``
pairs; it only inspects the parsed module, never imports it.

:func:`test_tree_upholds_every_invariant` applies every rule to each
``.py`` under ``src/repro`` and REP003 also to ``benchmarks``, and
lists each hit as ``path:line: [REPnnn] message``.  A module that must
break a rule by contract goes into that rule's allowlist tuple below
(as ``cts/kernels.py`` does for REP001), never into a comment.  The
fixture table at the bottom pins what each rule fires on and what it
leaves alone.
"""

import ast
import functools
import pathlib
import textwrap

import pytest

from repro.obs import names as obs_names

ROOT = pathlib.Path(__file__).resolve().parents[1]


def qualified_name(node):
    """Dotted name of a ``Name``/``Attribute`` chain, else ``None``.

    ``np.random.default_rng`` -> ``"np.random.default_rng"``; chains
    broken by calls or subscripts return ``None``.
    """
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def walk_scopes(tree):
    """Each scope's statement list: the module body, then every
    function body (nested functions yield their own scope)."""
    yield list(tree.body)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield list(node.body)


# -- REP001: float equality on physical quantities ---------------------

#: Identifier fragments that mark a value as a physical quantity.
QUANTITY_FRAGMENTS = (
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

#: Path suffixes where exact float comparison is the contract (lane
#: masks compare exactly against sentinels).
REP001_ALLOWED = ("cts/kernels.py",)


def _is_quantity(node):
    if isinstance(node, ast.Call):
        node = node.func
    name = qualified_name(node)
    if name is None:
        return False
    tail = name.rsplit(".", 1)[-1].lower()
    return any(fragment in tail for fragment in QUANTITY_FRAGMENTS)


def _is_float_literal(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def rep001_float_equality(path, tree):
    """``==``/``!=`` between two quantities, or a quantity and a float
    literal: exact comparison makes behaviour depend on rounding order."""
    if path.endswith(REP001_ALLOWED):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare) or not any(
            isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
        ):
            continue
        operands = [node.left] + list(node.comparators)
        quantities = sum(1 for o in operands if _is_quantity(o))
        if quantities >= 2 or (
            quantities and any(_is_float_literal(o) for o in operands)
        ):
            yield node, (
                "float equality on a physical quantity; compare with a "
                "tolerance (repro.check.tolerance)"
            )


# -- REP002: bare exceptions outside the taxonomy ----------------------

BARE_EXCEPTIONS = {"ValueError", "RuntimeError", "TypeError"}

#: Path fragments exempt from REP002: the taxonomy defines the classes.
REP002_EXEMPT = ("check/",)


def rep002_bare_exception(path, tree):
    """``raise ValueError/RuntimeError/TypeError``: library failures must
    be typed so the CLI renders a located one-line diagnostic."""
    if any(fragment in path for fragment in REP002_EXEMPT):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = qualified_name(exc)
        if name in BARE_EXCEPTIONS:
            yield node, (
                "bare %s; raise a repro.check.errors subclass "
                "(InputError, ContractError, InternalInvariantError, ...)" % name
            )


# -- REP003: determinism hazards ---------------------------------------

#: ``random``-module functions that draw from unseeded global state.
GLOBAL_RANDOM_ATTRS = {
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

#: Path fragments where wall clock and object identity are also banned.
REP003_STRICT = ("cts/", "core/")


def _unseeded(call):
    if call.keywords:
        return all(
            kw.arg == "seed"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is None
            for kw in call.keywords
        )
    if not call.args:
        return True
    first = call.args[0]
    return isinstance(first, ast.Constant) and first.value is None


def _is_set_expr(node):
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "set"
    )


def rep003_determinism(path, tree):
    """Unseeded RNGs, the global ``random`` module, set iteration, and
    ``time.time()``/``id()`` in the routing packages: each makes two runs
    of one input diverge and breaks the byte-identical merge trace."""
    strict = any(fragment in path for fragment in REP003_STRICT)
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.comprehension)):
            if _is_set_expr(node.iter):
                yield (node if isinstance(node, ast.For) else node.iter), (
                    "iteration over a set is hash-order dependent; "
                    "sort it (sorted(...)) before iterating"
                )
            continue
        if not isinstance(node, ast.Call):
            continue
        name = qualified_name(node.func)
        if name is None:
            continue
        parts = name.split(".")
        if parts[-1] == "default_rng" and _unseeded(node):
            yield node, "unseeded default_rng(); pass an explicit seed"
        if len(parts) == 2 and parts[0] == "random" and parts[1] in GLOBAL_RANDOM_ATTRS:
            yield node, (
                "global random.%s() draws from shared unseeded state; "
                "use a seeded np.random.default_rng(seed)" % parts[1]
            )
        if strict and name == "time.time":
            yield node, (
                "time.time() in a routing package; results must not "
                "depend on the wall clock"
            )
        if strict and name == "id" and len(node.args) == 1:
            yield node, (
                "id() is allocation-order dependent; key on node ids "
                "or stable indices instead"
            )


# -- REP004: span/metric names outside the obs catalog -----------------


def _literal_or_prefix(arg):
    """``(is_full_literal, text)`` for a name argument, else ``None``."""
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return True, arg.value
    if (
        isinstance(arg, ast.BinOp)
        and isinstance(arg.left, ast.Constant)
        and isinstance(arg.left.value, str)
    ):
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


def rep004_obs_names(path, tree):
    """Literal names passed to ``span()``/``counter()``/``gauge()``/
    ``histogram()`` must follow ``phase.subphase`` and be registered in
    ``repro.obs.names``; dynamic names must start from a registered
    prefix.  ``tests/test_lint_obs_catalog.py`` checks the live half."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        if node.func.attr == "span":
            kind = "span"
        elif node.func.attr in ("counter", "gauge", "histogram"):
            kind = "metric"
        else:
            continue
        extracted = _literal_or_prefix(node.args[0]) if node.args else None
        if extracted is None:
            continue
        full, text = extracted
        if not full:
            prefixes = (
                obs_names.SPAN_PREFIXES if kind == "span" else obs_names.METRIC_PREFIXES
            )
            if not text.startswith(tuple(prefixes)):
                yield node, (
                    "dynamic %s name built from unregistered prefix %r; "
                    "add the prefix to repro.obs.names" % (kind, text)
                )
        elif not obs_names.is_valid_name(text):
            yield node, (
                "%s name %r does not match the dotted lowercase "
                "phase.subphase convention" % (kind, text)
            )
        elif not (
            obs_names.span_name_known(text)
            if kind == "span"
            else obs_names.metric_name_known(text)
        ):
            yield node, (
                "%s name %r is not in the repro.obs.names catalog; "
                "register it there" % (kind, text)
            )


# -- REP005: kernels without a declared scalar counterpart -------------

KERNEL_SUFFIX = "cts/kernels.py"
PARITY_TEST = "tests/test_cts_kernels.py"
COUNTERPART_TAG = "Scalar counterpart:"


def _declared_counterpart(doc):
    for line in doc.splitlines():
        line = line.strip()
        if line.startswith(COUNTERPART_TAG):
            value = line[len(COUNTERPART_TAG):].split()
            if not value:
                return None
            return "none" if value[0].rstrip(".,;") == "none" else value[0]
    return None


def rep005_kernel_parity(path, tree, parity_source=None):
    """Every public function of ``cts/kernels.py`` carries a
    ``Scalar counterpart: <dotted.name>`` docstring tag (or
    ``Scalar counterpart: none -- <reason>`` for plumbing) and, when it
    declares one, is named in the parity test file that pins the
    bit-exactness contract."""
    if not path.endswith(KERNEL_SUFFIX):
        return
    if parity_source is None:
        parity_source = (ROOT / PARITY_TEST).read_text(encoding="utf-8")
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
            continue
        counterpart = _declared_counterpart(ast.get_docstring(node) or "")
        if counterpart is None:
            yield node, "public kernel %s() lacks a %r docstring tag" % (
                node.name,
                COUNTERPART_TAG,
            )
        elif counterpart != "none" and node.name not in parity_source:
            yield node, "kernel %s() declares counterpart %s but never appears in %s" % (
                node.name,
                counterpart,
                PARITY_TEST,
            )


# -- REP007: NumPy arrays used as booleans -----------------------------


def _walk_scope(scope):
    """Walk a scope's statements without descending into nested
    function/lambda bodies (those are their own scopes)."""
    stack = list(scope)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _truth_tested_names(test):
    """Names whose truthiness the test directly evaluates."""
    if isinstance(test, ast.Name):
        yield test
    elif isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        yield from _truth_tested_names(test.operand)
    elif isinstance(test, ast.BoolOp):
        for value in test.values:
            yield from _truth_tested_names(value)


def rep007_array_truthiness(path, tree):
    """A name assigned from a ``numpy`` call used as a bare condition:
    ``if arr:`` raises for size != 1 and silently reads the element
    otherwise; test ``.size``/``.any()``/``.all()`` instead."""
    aliases = {
        alias.asname or "numpy"
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "numpy"
    }
    if not aliases:
        return
    for scope in walk_scopes(tree):
        arrays = set()
        for node in _walk_scope(scope):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                func = qualified_name(node.value.func)
                if func is not None and func.split(".", 1)[0] in aliases:
                    arrays.update(t.id for t in node.targets if isinstance(t, ast.Name))
        if not arrays:
            continue
        for node in _walk_scope(scope):
            if not isinstance(node, (ast.If, ast.While, ast.IfExp, ast.Assert)):
                continue
            for name in _truth_tested_names(node.test):
                if name.id in arrays:
                    yield name, (
                        "array %r used as a boolean; test "
                        "%s.size / %s.any() / %s.all() instead" % ((name.id,) * 4)
                    )


RULES = {
    "REP001": rep001_float_equality,
    "REP002": rep002_bare_exception,
    "REP003": rep003_determinism,
    "REP004": rep004_obs_names,
    "REP005": rep005_kernel_parity,
    "REP007": rep007_array_truthiness,
}

#: Directory (relative to the checkout) -> the rules applied to every
#: ``.py`` under it.  The bench harness and generators follow the
#: library's determinism rule, without the library-only catalog rules.
SCOPE = {"src/repro": tuple(RULES), "benchmarks": ("REP003",)}


def scan(root):
    """Every rule hit under ``root`` as ``path:line: [REPnnn] message``,
    sorted by file, then line, then rule."""
    hits = []
    for directory, codes in SCOPE.items():
        for path in (root / directory).rglob("*.py"):
            rel = path.relative_to(root).as_posix()
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=rel)
            for code in codes:
                hits.extend(
                    (rel, node.lineno, code, message)
                    for node, message in RULES[code](rel, tree)
                )
    return ["%s:%d: [%s] %s" % hit for hit in sorted(hits)]


def test_tree_upholds_every_invariant():
    hits = scan(ROOT)
    assert not hits, "\n" + "\n".join(hits)


def _write(root, rel, source):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)


def test_scan_applies_only_rep003_to_benchmarks(tmp_path):
    source = "import numpy as np\nrng = np.random.default_rng()\nraise TypeError\n"
    _write(tmp_path, "benchmarks/bench.py", source)
    _write(tmp_path, "src/repro/mod.py", source)
    # The bare raise is a library rule: reported under src/repro only.
    assert [hit.split(" ", 2)[:2] for hit in scan(tmp_path)] == [
        ["benchmarks/bench.py:2:", "[REP003]"],
        ["src/repro/mod.py:2:", "[REP003]"],
        ["src/repro/mod.py:3:", "[REP002]"],
    ]


def test_scan_reports_hits_in_file_order(tmp_path):
    # Files are written out of order and a.py's hits come from two rules;
    # the report is sorted by path, then line, and repeats exactly.
    _write(tmp_path, "src/repro/b.py", "def f():\n    raise ValueError('boom')\n")
    _write(
        tmp_path,
        "src/repro/a.py",
        "import random\n\nrandom.shuffle(items)\nraise ValueError\n",
    )
    _write(tmp_path, "benchmarks/bench.py", "import random\nrandom.random()\n")
    hits = scan(tmp_path)
    assert [hit.split(" ", 1)[0] for hit in hits] == [
        "benchmarks/bench.py:2:",
        "src/repro/a.py:3:",
        "src/repro/a.py:4:",
        "src/repro/b.py:2:",
    ]
    assert scan(tmp_path) == hits


def test_scan_reports_path_line_and_rule(tmp_path):
    _write(tmp_path, "src/repro/b.py", "def f():\n    raise ValueError('boom')\n")
    _write(tmp_path, "src/repro/a.py", "import random\n\nrandom.shuffle(items)\n")
    assert scan(tmp_path) == [
        "src/repro/a.py:3: [REP003] global random.shuffle() draws from "
        "shared unseeded state; use a seeded np.random.default_rng(seed)",
        "src/repro/b.py:2: [REP002] bare ValueError; raise a "
        "repro.check.errors subclass (InputError, ContractError, "
        "InternalInvariantError, ...)",
    ]


KERNEL_TEMPLATE = '''
def batched_thing(x):
    """Batched mirror.

    Scalar counterpart: %s
    """
    return x


def _private(x):
    return x
'''


def _kernel_rule(parity_source):
    return functools.partial(rep005_kernel_parity, parity_source=parity_source)


def _case(name, rule, source, hits=(), fragment="", path="src/repro/mod.py"):
    """One fixture: ``rule`` on ``source`` at ``path`` fires on exactly
    the lines ``hits``, each message containing ``fragment``."""
    return pytest.param(rule, path, source, list(hits), fragment, id=name)


FIXTURES = [
    _case(
        "REP001-fires_on_quantity_vs_float_literal",
        rep001_float_equality,
        """
        def f(mst):
            if mst == 0.0:
                return 1.0
        """,
        hits=[3],
    ),
    _case(
        "REP001-fires_on_two_quantities",
        rep001_float_equality,
        """
        def f(delay_a, delay_b):
            return delay_a != delay_b
        """,
        hits=[3],
    ),
    _case(
        "REP001-clean_on_integer_counts",
        rep001_float_equality,
        """
        def f(count, n):
            return count == 0 or n != 3
        """,
    ),
    _case(
        "REP001-clean_on_ordering_comparisons",
        rep001_float_equality,
        """
        def f(cost, best_cost):
            return cost < best_cost
        """,
    ),
    _case(
        "REP001-allowlisted_kernel_module_is_exempt",
        rep001_float_equality,
        """
        def f(delay, batch_delay):
            return delay == batch_delay
        """,
        path="src/repro/cts/kernels.py",
    ),
    *(
        _case(
            "REP002-fires_on_bare_raise-%s" % exc,
            rep002_bare_exception,
            """
            def f():
                raise %s("boom")
            """
            % exc,
            hits=[3],
            fragment=exc,
        )
        for exc in ("RuntimeError", "TypeError", "ValueError")
    ),
    _case(
        "REP002-clean_on_taxonomy_raise",
        rep002_bare_exception,
        """
        from repro.check.errors import InputError

        def f():
            raise InputError("bad row", source="x.sinks", line=3)
        """,
    ),
    _case(
        "REP002-clean_on_bare_reraise",
        rep002_bare_exception,
        """
        def f():
            try:
                g()
            except ValueError:
                raise
        """,
    ),
    _case(
        "REP002-taxonomy_package_is_exempt",
        rep002_bare_exception,
        """
        def f():
            raise ValueError("the taxonomy defines compat branches")
        """,
        path="src/repro/check/validate.py",
    ),
    _case(
        "REP003-fires_on_unseeded_default_rng",
        rep003_determinism,
        """
        import numpy as np
        rng = np.random.default_rng()
        """,
        hits=[3],
    ),
    _case(
        "REP003-fires_on_seed_none",
        rep003_determinism,
        "import numpy as np\nrng = np.random.default_rng(None)\n",
        hits=[2],
    ),
    _case(
        "REP003-clean_on_seeded_rng",
        rep003_determinism,
        "import numpy as np\nrng = np.random.default_rng(1234)\n",
    ),
    _case(
        "REP003-fires_on_global_random_module",
        rep003_determinism,
        "import random\nrandom.shuffle(items)\n",
        hits=[2],
        fragment="random.shuffle",
    ),
    _case(
        "REP003-fires_on_set_iteration",
        rep003_determinism,
        """
        for x in {1, 2, 3}:
            consume(x)
        out = [y for y in set(items)]
        """,
        hits=[2, 4],
    ),
    _case(
        "REP003-clean_on_sorted_set_iteration",
        rep003_determinism,
        """
        for x in sorted(set(items)):
            consume(x)
        """,
    ),
    _case(
        "REP003-wall_clock_and_identity_in_routing_packages",
        rep003_determinism,
        """
        import time
        stamp = time.time()
        key = id(node)
        """,
        hits=[3, 4],
        path="src/repro/cts/x.py",
    ),
    _case(
        "REP003-wall_clock_and_identity_allowed_elsewhere",
        rep003_determinism,
        """
        import time
        stamp = time.time()
        key = id(node)
        """,
        path="src/repro/io/x.py",
    ),
    _case(
        "REP004-fires_on_convention_violation",
        rep004_obs_names,
        'with tracer.span("MergeLoop"):\n    pass\n',
        hits=[1],
        fragment="convention",
    ),
    _case(
        "REP004-fires_on_uncatalogued_span",
        rep004_obs_names,
        'with tracer.span("zzz.unknown"):\n    pass\n',
        hits=[1],
        fragment="catalog",
    ),
    _case(
        "REP004-clean_on_catalogued_names",
        rep004_obs_names,
        """
        with tracer.span("dme.merge_loop"):
            registry.counter("dme.init_best.runs").inc()
            registry.histogram("controller.star_edge_length").observe(1.0)
        """,
    ),
    _case(
        "REP004-fires_on_unregistered_dynamic_prefix",
        rep004_obs_names,
        'registry.counter("zzz." + key).inc(v)\n',
        hits=[1],
        fragment="prefix",
    ),
    _case(
        "REP004-clean_on_registered_dynamic_prefix",
        rep004_obs_names,
        'registry.counter("dme." + key).inc(v)\n',
    ),
    _case(
        "REP004-non_literal_names_are_skipped",
        rep004_obs_names,
        "registry.gauge(base + 'hits').set(1)\n",
    ),
    _case(
        "REP005-fires_without_tag",
        _kernel_rule(""),
        "def batched_thing(x):\n    return x\n",
        hits=[1],
        fragment="docstring tag",
        path="cts/kernels.py",
    ),
    _case(
        "REP005-fires_without_parity_test",
        _kernel_rule("def test_unrelated():\n    pass\n"),
        KERNEL_TEMPLATE % "repro.cts.merge.scalar_thing",
        hits=[2],
        fragment="never appears",
        path="cts/kernels.py",
    ),
    _case(
        "REP005-clean_with_tag_and_parity_test",
        _kernel_rule("from kernels import batched_thing\n"),
        KERNEL_TEMPLATE % "repro.cts.merge.scalar_thing",
        path="cts/kernels.py",
    ),
    _case(
        "REP005-none_tag_waives_parity_test",
        _kernel_rule(""),
        KERNEL_TEMPLATE % "none -- plumbing only",
        path="cts/kernels.py",
    ),
    _case(
        "REP005-rule_only_applies_to_kernels_module",
        _kernel_rule(""),
        "def anything(x):\n    return x\n",
        path="src/repro/cts/merge.py",
    ),
    _case(
        "REP007-fires_on_if_array",
        rep007_array_truthiness,
        """
        import numpy as np

        def f(n):
            arr = np.zeros(n)
            if arr:
                return 1
        """,
        hits=[6],
        fragment="'arr'",
    ),
    _case(
        "REP007-fires_inside_boolops_and_not",
        rep007_array_truthiness,
        """
        import numpy as np

        def f(n, flag):
            mask = np.asarray(n)
            if flag and not mask:
                return 1
        """,
        hits=[6],
    ),
    _case(
        "REP007-clean_on_explicit_predicates",
        rep007_array_truthiness,
        """
        import numpy as np

        def f(n):
            arr = np.zeros(n)
            if arr.size and arr.any():
                return arr.all()
        """,
    ),
    _case(
        "REP007-clean_on_non_array_names",
        rep007_array_truthiness,
        """
        import numpy as np

        def f(items):
            arr = np.zeros(3)
            if items:
                return arr
        """,
    ),
    _case(
        "REP007-requires_numpy_import",
        rep007_array_truthiness,
        """
        def f(np):
            arr = np.zeros(3)
            if arr:
                return 1
        """,
    ),
]


@pytest.mark.parametrize("rule, path, source, hits, fragment", FIXTURES)
def test_rule_fixture(rule, path, source, hits, fragment):
    found = list(rule(path, ast.parse(textwrap.dedent(source))))
    assert [node.lineno for node, _ in found] == hits
    assert all(fragment in message for _, message in found)
