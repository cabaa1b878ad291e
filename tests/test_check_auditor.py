"""Auditor unit tests: plant each violation, assert it is named."""

import math

import numpy as np
import pytest

from repro.activity import ActivityOracle, ActivityTables, InstructionStream
from repro.activity.isa import InstructionSet
from repro.check import (
    CapAuditError,
    EmbeddingAuditError,
    EnableAuditError,
)
from repro.check.auditor import audit_network
from repro.core.flow import route_gated
from repro.cts import BottomUpMerger, Sink
from repro.geometry import Point, Trr
from repro.tech import unit_technology
from repro.tech.presets import date98_technology


def oracle_for(num_modules, seed=0):
    rng = np.random.default_rng(seed)
    lists = []
    for _ in range(6):
        row = set(np.nonzero(rng.random(num_modules) < 0.4)[0].tolist())
        lists.append(row or {0})
    isa = InstructionSet.from_usage_lists(lists, num_modules=num_modules)
    ids = rng.integers(0, 6, 300)
    return ActivityOracle(ActivityTables.from_stream(isa, InstructionStream(ids=ids)))


@pytest.fixture(scope="module")
def routed():
    sinks = [
        Sink("s%d" % i, Point(37.0 * i % 110, 23.0 * i % 90), 1.0, i)
        for i in range(8)
    ]
    return route_gated(sinks, date98_technology(), oracle_for(8))


@pytest.fixture()
def tree():
    sinks = [
        Sink("s%d" % i, Point(37.0 * i % 110, 23.0 * i % 90), 1.0, i)
        for i in range(8)
    ]
    return BottomUpMerger(sinks, unit_technology(), oracle=oracle_for(8)).run()


class TestCleanNetwork:
    def test_routed_network_audits_clean(self, routed):
        report = audit_network(routed.tree, routing=routed.routing)
        assert report.ok, report.summary()
        assert "controller" in report.checks

    def test_raise_if_failed_is_noop_when_clean(self, routed):
        audit_network(routed.tree, routing=routed.routing).raise_if_failed()


class TestCapInvariant:
    def test_cap_drift_names_node(self, tree):
        victim = tree.internal_nodes()[0]
        victim.subtree_cap += 3.0
        report = audit_network(tree)
        drifted = report.findings_of("cap")
        assert any(f.node == victim.id for f in drifted)
        with pytest.raises(CapAuditError, match="cap drift"):
            report.raise_if_failed()

    def test_nan_cap_names_node(self, tree):
        victim = tree.sinks()[0]
        victim.subtree_cap = math.nan
        report = audit_network(tree)
        assert any(
            f.node == victim.id and "finite" in f.message
            for f in report.findings_of("cap")
        )


class TestSkewInvariant:
    def test_lengthened_edge_detected(self, tree):
        victim = tree.sinks()[0]
        victim.edge_length += 1000.0
        report = audit_network(tree)
        assert not report.ok
        # A longer edge breaks skew; the sink is named somewhere.
        assert report.findings_of("skew") or report.findings_of("cap")

    def test_root_delay_drift_detected(self, tree):
        tree.root.sink_delay *= 2.0
        tree.root.sink_delay += 10.0
        report = audit_network(tree)
        assert any(
            "root delay drift" in f.message for f in report.findings_of("skew")
        )

    def test_interval_violation_detected(self, tree):
        # The router's root sink delay may never exceed the earliest
        # recomputed arrival.
        tree.root.sink_delay = 1.01 * tree.phase_delay() + 1.0
        report = audit_network(tree)
        assert any(
            f.node == tree.root_id and "above earliest" in f.message
            for f in report.findings_of("skew")
        )


class TestEnableInvariant:
    def test_probability_outside_unit_interval(self, tree):
        victim = tree.internal_nodes()[0]
        victim.enable_probability = -0.25
        report = audit_network(tree)
        assert any(
            f.node == victim.id and "outside" in f.message
            for f in report.findings_of("enable")
        )
        with pytest.raises(EnableAuditError):
            report.raise_if_failed()

    def test_monotonicity_violation_names_parent(self, tree):
        # Make a parent's enable rarer than its child's.
        parent = tree.root
        parent.enable_probability = 0.0
        for child_id in parent.children:
            tree.node(child_id).enable_probability = 0.9
        report = audit_network(tree)
        assert any(
            f.node == parent.id and "below child" in f.message
            for f in report.findings_of("enable")
        )

    def test_mask_union_violation(self, tree):
        victim = tree.internal_nodes()[0]
        victim.module_mask = 0
        report = audit_network(tree)
        assert any(
            f.node == victim.id and "union" in f.message
            for f in report.findings_of("enable")
        )


class TestEmbeddingInvariant:
    def test_off_segment_placement(self, tree):
        victim = tree.root
        victim.location = Point(victim.location.x + 1e6, victim.location.y)
        report = audit_network(tree)
        assert any(
            f.node == victim.id and "off its merging segment" in f.message
            for f in report.findings_of("embedding")
        )
        with pytest.raises(EmbeddingAuditError):
            report.raise_if_failed()

    def test_short_edge(self, tree):
        victim = tree.sinks()[0]
        victim.edge_length = 0.0
        # Move the parent so a zero edge cannot possibly cover it.
        parent = tree.node(victim.parent)
        parent.location = Point(parent.location.x + 500.0, parent.location.y)
        report = audit_network(tree)
        assert any(
            f.node == victim.id and "shorter" in f.message
            for f in report.findings_of("embedding")
        )

    def test_two_dimensional_merging_segment(self, tree):
        victim = tree.internal_nodes()[0]
        seg = victim.merging_segment
        victim.merging_segment = Trr(
            seg.ulo, seg.uhi + 50.0, seg.vlo, seg.vhi + 70.0
        )
        report = audit_network(tree)
        assert any(
            f.node == victim.id and "Manhattan arc" in f.message
            for f in report.findings_of("embedding")
        )

    def test_containment_violation(self, tree):
        # Teleport an internal node's segment away from its children.
        victim = tree.internal_nodes()[0]
        victim.merging_segment = Trr.from_point(Point(1e5, 1e5))
        victim.location = Point(1e5, 1e5)
        report = audit_network(tree)
        assert any(
            "not contained" in f.message or "shorter" in f.message
            for f in report.findings_of("embedding")
        )


class TestControllerInvariant:
    def test_missing_route_detected(self, routed):
        routing = routed.routing
        pruned = type(routing)(
            layout=routing.layout,
            routes=routing.routes[1:],
            switched_cap=routing.switched_cap,
            wirelength=routing.wirelength,
        )
        report = audit_network(routed.tree, routing=pruned)
        missing = routing.routes[0].node_id
        assert any(
            f.node == missing and "no enable route" in f.message
            for f in report.findings_of("controller")
        )

    def test_wirelength_drift_detected(self, routed):
        routing = routed.routing
        skewed = type(routing)(
            layout=routing.layout,
            routes=routing.routes,
            switched_cap=routing.switched_cap,
            wirelength=routing.wirelength * 2.0 + 1.0,
        )
        report = audit_network(routed.tree, routing=skewed)
        assert any(
            "wirelength drift" in f.message
            for f in report.findings_of("controller")
        )

    def test_transition_probability_drift(self, routed):
        routing = routed.routing
        r0 = routing.routes[0]
        tweaked_route = type(r0)(
            node_id=r0.node_id,
            controller_index=r0.controller_index,
            length=r0.length,
            transition_probability=r0.transition_probability + 0.5,
        )
        tweaked = type(routing)(
            layout=routing.layout,
            routes=[tweaked_route] + list(routing.routes[1:]),
            switched_cap=routing.switched_cap,
            wirelength=routing.wirelength,
        )
        report = audit_network(routed.tree, routing=tweaked)
        assert any(
            f.node == r0.node_id and "transition probability drift" in f.message
            for f in report.findings_of("controller")
        )


class TestReportShape:
    def test_summary_mentions_findings(self, tree):
        tree.root.subtree_cap += 5.0
        report = audit_network(tree)
        text = report.summary()
        assert "finding" in text
        assert "cap drift" in text

    def test_problems_mirror_findings(self, tree):
        tree.root.subtree_cap += 5.0
        report = audit_network(tree)
        assert report.problems == [f.message for f in report.findings]
