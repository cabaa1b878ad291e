"""Unit tests for auditing and reporting."""

import pytest

from repro.analysis.report import (
    ComparisonRow,
    format_characteristics,
    format_comparison,
    format_table,
)
from repro.bench.suite import load_benchmark
from repro.check.auditor import audit_network
from repro.core.flow import route_buffered, route_gated
from repro.core.gate_reduction import GateReductionPolicy
from repro.tech import date98_technology


@pytest.fixture(scope="module")
def results():
    case = load_benchmark("r1", scale=0.08)
    tech = date98_technology()
    return case, [
        route_buffered(case.sinks, tech),
        route_gated(case.sinks, tech, case.oracle, die=case.die),
        route_gated(
            case.sinks,
            tech,
            case.oracle,
            die=case.die,
            reduction=GateReductionPolicy.from_knob(0.5, tech),
        ),
    ]


class TestAudit:
    def test_routed_trees_pass(self, results):
        _, routed = results
        for result in routed:
            report = audit_network(result.tree)
            assert report.ok, report.problems

    def test_detects_broken_bookkeeping(self, results):
        _, routed = results
        tree = routed[0].tree
        node = tree.sinks()[0]
        original = node.subtree_cap
        node.subtree_cap = original + 5.0
        report = audit_network(tree)
        assert not report.ok
        assert any("cap drift" in p for p in report.problems)
        node.subtree_cap = original

    def test_detects_skew_violation(self, results):
        _, routed = results
        tree = routed[1].tree
        node = tree.sinks()[0]
        original = node.edge_length
        node.edge_length = original + 1000.0
        report = audit_network(tree)
        assert not report.ok
        node.edge_length = original


class TestReport:
    def test_comparison_rows(self, results):
        case, routed = results
        rows = [ComparisonRow.from_result("r1", r) for r in routed]
        assert [r.method for r in rows] == ["buffered", "gated", "gate-red"]
        assert all(r.benchmark == "r1" for r in rows)

    def test_format_comparison_contains_values(self, results):
        _, routed = results
        rows = [ComparisonRow.from_result("r1", r) for r in routed]
        text = format_comparison(rows, title="Fig. 3")
        assert "Fig. 3" in text
        assert "buffered" in text
        assert "%0.4g" % rows[0].switched_cap in text or (
            "%.4g" % rows[0].switched_cap
        ) in text

    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.34567], [100, 5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_characteristics(self):
        rows = {
            "r1": {
                "sinks": 267,
                "instructions": 16,
                "stream_cycles": 10000,
                "ave_modules_per_instruction": 0.41,
                "average_module_activity": 0.41,
            }
        }
        text = format_characteristics(rows)
        assert "Table 4" in text
        assert "267" in text

    def test_comparison_row_from_result(self, results):
        _, routed = results
        row = ComparisonRow.from_result("r1", routed[2])
        assert row.gate_count == routed[2].gate_count
        assert row.area_total == routed[2].area.total
