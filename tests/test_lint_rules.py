"""Per-rule fixtures for the repro.lint catalog: fire and clean."""

import ast
import textwrap

import pytest

from repro.lint.model import ModuleSource
from repro.lint.rules import (
    ArrayTruthinessRule,
    BareExceptionRule,
    DeterminismRule,
    FloatEqualityRule,
    KernelParityRule,
    MutableDefaultRule,
    ObsNameRule,
    default_rules,
    rule_catalog,
)


def run_rule(rule, source, path="src/repro/mod.py"):
    src = textwrap.dedent(source)
    module = ModuleSource(
        path=path, source=src, tree=ast.parse(src), lines=src.splitlines()
    )
    return list(rule.check(module))


class TestCatalogShape:
    def test_seven_rules_with_unique_codes(self):
        rules = default_rules()
        codes = [r.code for r in rules]
        assert codes == sorted(codes)
        assert len(set(codes)) == len(codes) == 7
        assert codes == ["REP%03d" % i for i in range(1, 8)]

    def test_every_rule_documents_rationale(self):
        for code, rule in rule_catalog().items():
            assert rule.title, code
            assert rule.rationale, code


class TestFloatEqualityREP001:
    def test_fires_on_quantity_vs_float_literal(self):
        findings = run_rule(
            FloatEqualityRule(),
            """
            def f(mst):
                if mst == 0.0:
                    return 1.0
            """,
        )
        assert [f.rule for f in findings] == ["REP001"]
        assert findings[0].line == 3

    def test_fires_on_two_quantities(self):
        findings = run_rule(
            FloatEqualityRule(),
            """
            def f(delay_a, delay_b):
                return delay_a != delay_b
            """,
        )
        assert len(findings) == 1

    def test_clean_on_integer_counts(self):
        findings = run_rule(
            FloatEqualityRule(),
            """
            def f(count, n):
                return count == 0 or n != 3
            """,
        )
        assert findings == []

    def test_clean_on_ordering_comparisons(self):
        findings = run_rule(
            FloatEqualityRule(),
            """
            def f(cost, best_cost):
                return cost < best_cost
            """,
        )
        assert findings == []

    def test_allowlisted_kernel_module_is_exempt(self):
        findings = run_rule(
            FloatEqualityRule(),
            """
            def f(delay, batch_delay):
                return delay == batch_delay
            """,
            path="src/repro/cts/kernels.py",
        )
        assert findings == []


class TestBareExceptionREP002:
    @pytest.mark.parametrize("exc", ["ValueError", "RuntimeError", "TypeError"])
    def test_fires_on_bare_raise(self, exc):
        findings = run_rule(
            BareExceptionRule(),
            """
            def f():
                raise %s("boom")
            """
            % exc,
        )
        assert [f.rule for f in findings] == ["REP002"]
        assert exc in findings[0].message

    def test_clean_on_taxonomy_raise(self):
        findings = run_rule(
            BareExceptionRule(),
            """
            from repro.check.errors import InputError

            def f():
                raise InputError("bad row", source="x.sinks", line=3)
            """,
        )
        assert findings == []

    def test_clean_on_bare_reraise(self):
        findings = run_rule(
            BareExceptionRule(),
            """
            def f():
                try:
                    g()
                except ValueError:
                    raise
            """,
        )
        assert findings == []

    def test_taxonomy_package_is_exempt(self):
        findings = run_rule(
            BareExceptionRule(),
            """
            def f():
                raise ValueError("the taxonomy defines compat branches")
            """,
            path="src/repro/check/validate.py",
        )
        assert findings == []


class TestDeterminismREP003:
    def test_fires_on_unseeded_default_rng(self):
        findings = run_rule(
            DeterminismRule(),
            """
            import numpy as np
            rng = np.random.default_rng()
            """,
        )
        assert [f.rule for f in findings] == ["REP003"]

    def test_fires_on_seed_none(self):
        findings = run_rule(
            DeterminismRule(),
            "import numpy as np\nrng = np.random.default_rng(None)\n",
        )
        assert len(findings) == 1

    def test_clean_on_seeded_rng(self):
        findings = run_rule(
            DeterminismRule(),
            "import numpy as np\nrng = np.random.default_rng(1234)\n",
        )
        assert findings == []

    def test_fires_on_global_random_module(self):
        findings = run_rule(
            DeterminismRule(),
            "import random\nrandom.shuffle(items)\n",
        )
        assert len(findings) == 1
        assert "random.shuffle" in findings[0].message

    def test_fires_on_set_iteration(self):
        findings = run_rule(
            DeterminismRule(),
            """
            for x in {1, 2, 3}:
                consume(x)
            out = [y for y in set(items)]
            """,
        )
        assert len(findings) == 2

    def test_clean_on_sorted_set_iteration(self):
        findings = run_rule(
            DeterminismRule(),
            """
            for x in sorted(set(items)):
                consume(x)
            """,
        )
        assert findings == []

    def test_wall_clock_and_identity_only_in_routing_packages(self):
        source = """
        import time
        stamp = time.time()
        key = id(node)
        """
        strict = run_rule(DeterminismRule(), source, path="src/repro/cts/x.py")
        assert len(strict) == 2
        relaxed = run_rule(DeterminismRule(), source, path="src/repro/io/x.py")
        assert relaxed == []


class TestObsNamesREP004:
    def test_fires_on_convention_violation(self):
        findings = run_rule(
            ObsNameRule(),
            'with tracer.span("MergeLoop"):\n    pass\n',
        )
        assert len(findings) == 1
        assert "convention" in findings[0].message

    def test_fires_on_uncatalogued_span(self):
        findings = run_rule(
            ObsNameRule(),
            'with tracer.span("zzz.unknown"):\n    pass\n',
        )
        assert len(findings) == 1
        assert "catalog" in findings[0].message

    def test_clean_on_catalogued_names(self):
        findings = run_rule(
            ObsNameRule(),
            """
            with tracer.span("dme.merge_loop"):
                registry.counter("dme.init_best.runs").inc()
                registry.histogram("controller.star_edge_length").observe(1.0)
            """,
        )
        assert findings == []

    def test_dynamic_prefix_must_be_registered(self):
        fired = run_rule(
            ObsNameRule(),
            'registry.counter("zzz." + key).inc(v)\n',
        )
        assert len(fired) == 1
        clean = run_rule(
            ObsNameRule(),
            'registry.counter("dme." + key).inc(v)\n',
        )
        assert clean == []

    def test_non_literal_names_are_skipped(self):
        findings = run_rule(
            ObsNameRule(),
            "registry.gauge(base + 'hits').set(1)\n",
        )
        assert findings == []


KERNEL_TEMPLATE = '''
def batched_thing(x):
    """Batched mirror.

    Scalar counterpart: %s
    """
    return x


def _private(x):
    return x
'''


class TestKernelParityREP005:
    def make_project(self, tmp_path, kernel_source, parity_source=None):
        kernels = tmp_path / "cts" / "kernels.py"
        kernels.parent.mkdir(parents=True)
        kernels.write_text(textwrap.dedent(kernel_source))
        if parity_source is not None:
            tests = tmp_path / "tests"
            tests.mkdir()
            (tests / "test_cts_kernels.py").write_text(parity_source)
        rule = KernelParityRule(str(tmp_path))
        src = kernels.read_text()
        module = ModuleSource(
            path="cts/kernels.py",
            source=src,
            tree=ast.parse(src),
            lines=src.splitlines(),
        )
        return list(rule.check(module))

    def test_fires_without_tag(self, tmp_path):
        findings = self.make_project(
            tmp_path, "def batched_thing(x):\n    return x\n", parity_source=""
        )
        assert [f.rule for f in findings] == ["REP005"]
        assert "docstring tag" in findings[0].message

    def test_fires_without_parity_test(self, tmp_path):
        findings = self.make_project(
            tmp_path,
            KERNEL_TEMPLATE % "repro.cts.merge.scalar_thing",
            parity_source="def test_unrelated():\n    pass\n",
        )
        assert len(findings) == 1
        assert "never appears" in findings[0].message

    def test_clean_with_tag_and_parity_test(self, tmp_path):
        findings = self.make_project(
            tmp_path,
            KERNEL_TEMPLATE % "repro.cts.merge.scalar_thing",
            parity_source="from kernels import batched_thing\n",
        )
        assert findings == []

    def test_none_tag_waives_parity_test(self, tmp_path):
        findings = self.make_project(
            tmp_path,
            KERNEL_TEMPLATE % "none -- plumbing only",
            parity_source="",
        )
        assert findings == []

    def test_rule_only_applies_to_kernels_module(self):
        findings = run_rule(
            KernelParityRule(None),
            "def anything(x):\n    return x\n",
            path="src/repro/cts/merge.py",
        )
        assert findings == []


class TestMutableDefaultREP006:
    @pytest.mark.parametrize(
        "default", ["[]", "{}", "set()", "dict()", "list()", "[x for x in y]"]
    )
    def test_fires(self, default):
        findings = run_rule(
            MutableDefaultRule(), "def f(a, b=%s):\n    return b\n" % default
        )
        assert [f.rule for f in findings] == ["REP006"]

    def test_fires_on_kwonly_and_lambda(self):
        findings = run_rule(
            MutableDefaultRule(),
            "def f(*, b={}):\n    return b\ng = lambda x=[]: x\n",
        )
        assert len(findings) == 2

    def test_clean_on_none_and_immutables(self):
        findings = run_rule(
            MutableDefaultRule(),
            "def f(a=None, b=(), c=1.5, d='x', e=frozenset()):\n    return a\n",
        )
        assert findings == []


class TestArrayTruthinessREP007:
    def test_fires_on_if_array(self):
        findings = run_rule(
            ArrayTruthinessRule(),
            """
            import numpy as np

            def f(n):
                arr = np.zeros(n)
                if arr:
                    return 1
            """,
        )
        assert [f.rule for f in findings] == ["REP007"]
        assert "arr" in findings[0].message

    def test_fires_inside_boolops_and_not(self):
        findings = run_rule(
            ArrayTruthinessRule(),
            """
            import numpy as np

            def f(n, flag):
                mask = np.asarray(n)
                if flag and not mask:
                    return 1
            """,
        )
        assert len(findings) == 1

    def test_clean_on_explicit_predicates(self):
        findings = run_rule(
            ArrayTruthinessRule(),
            """
            import numpy as np

            def f(n):
                arr = np.zeros(n)
                if arr.size and arr.any():
                    return arr.all()
            """,
        )
        assert findings == []

    def test_clean_on_non_array_names(self):
        findings = run_rule(
            ArrayTruthinessRule(),
            """
            import numpy as np

            def f(items):
                arr = np.zeros(3)
                if items:
                    return arr
            """,
        )
        assert findings == []

    def test_requires_numpy_import(self):
        findings = run_rule(
            ArrayTruthinessRule(),
            """
            def f(np):
                arr = np.zeros(3)
                if arr:
                    return 1
            """,
        )
        assert findings == []
