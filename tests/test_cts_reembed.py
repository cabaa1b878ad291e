"""Unit tests for fixed-topology re-embedding."""

import numpy as np
import pytest

from repro.check.auditor import audit_network
from repro.cts import BottomUpMerger, Sink
from repro.cts.dme import GateEveryEdgePolicy
from repro.cts.reembed import reembed
from repro.geometry import Point
from repro.tech import unit_technology


def rng_sinks(n, seed=0, span=100.0):
    rng = np.random.default_rng(seed)
    return [
        Sink(name="s%d" % i, location=Point(x, y), load_cap=1.0, module=i)
        for i, (x, y) in enumerate(
            zip(rng.uniform(0, span, n), rng.uniform(0, span, n))
        )
    ]


def build(n=15, seed=1, policy=None):
    return BottomUpMerger(
        rng_sinks(n, seed=seed), unit_technology(), cell_policy=policy
    ).run()


class TestNoOpReembed:
    def test_untouched_tree_keeps_lengths(self):
        tree = build(policy=GateEveryEdgePolicy())
        before = {n.id: n.edge_length for n in tree.edges()}
        reembed(tree)
        after = {n.id: n.edge_length for n in tree.edges()}
        for node_id, length in before.items():
            assert after[node_id] == pytest.approx(length, abs=1e-9)

    def test_untouched_tree_keeps_skew(self):
        tree = build()
        reembed(tree)
        assert tree.skew() <= 1e-9 * max(tree.phase_delay(), 1.0)


class TestReembedAfterEdits:
    def test_gate_removal_restores_zero_skew(self):
        tree = build(policy=GateEveryEdgePolicy())
        # Strip gates from every other edge, unbalancing siblings.
        for i, node in enumerate(tree.edges()):
            if i % 2 == 0:
                node.edge_cell = None
                node.edge_maskable = False
        reembed(tree)
        assert tree.skew() <= 1e-9 * max(tree.phase_delay(), 1.0)
        tree.validate_embedding()

    def test_gate_removal_without_reembed_breaks_skew(self):
        tree = build(policy=GateEveryEdgePolicy())
        stripped = 0
        for i, node in enumerate(tree.edges()):
            if i % 2 == 0:
                node.edge_cell = None
                node.edge_maskable = False
                stripped += 1
        assert stripped > 0
        assert tree.skew() > 1e-6  # the audit would catch this state

    def test_reembed_updates_caps(self):
        tree = build(policy=GateEveryEdgePolicy())
        for node in tree.edges():
            node.edge_cell = None
            node.edge_maskable = False
        reembed(tree)
        ev = tree.elmore_evaluator()
        for node in tree.nodes():
            assert node.subtree_cap == pytest.approx(ev.subtree_cap(node.id))

    def test_load_change_rebalances(self):
        tree = build()
        # Double a sink load by rebuilding that leaf's sink.
        leaf = tree.sinks()[0]
        leaf.sink = Sink(
            name=leaf.sink.name,
            location=leaf.sink.location,
            load_cap=leaf.sink.load_cap * 5,
            module=leaf.sink.module,
        )
        reembed(tree)
        assert tree.skew() <= 1e-9 * max(tree.phase_delay(), 1.0)

    def test_reembed_refreshes_root_interval(self):
        tree = build(policy=GateEveryEdgePolicy())
        for i, node in enumerate(tree.edges()):
            if i % 3 == 0:
                node.edge_cell = None
                node.edge_maskable = False
        reembed(tree)
        # reembed restores exact zero skew; a stale root sink delay
        # would trip the auditor's interval check.
        assert tree.root.sink_delay == pytest.approx(tree.phase_delay())
        report = audit_network(tree)
        assert report.ok, report.problems


class TestUnaryPassThrough:
    """Regression: unary nodes (gate reduction / refine edits) used to
    crash the two-child unpack in ``reembed``."""

    def _make_unary(self, tree):
        """Detach one leaf of the deepest merge, leaving its parent
        with a single child (a full binary tree always has an internal
        node whose children are both leaves)."""
        deepest = max(tree.internal_nodes(), key=lambda n: (tree.depth(n.id), n.id))
        kept, dropped = deepest.children
        assert tree.node(kept).is_sink and tree.node(dropped).is_sink
        tree.node(dropped).parent = None
        deepest.children = (kept,)
        return deepest, kept

    def test_unary_node_passes_through(self):
        tree = build(n=12, seed=3, policy=GateEveryEdgePolicy())
        unary, kept = self._make_unary(tree)
        reembed(tree)
        child = tree.node(kept)
        assert child.edge_length == 0.0
        assert not child.snaked
        assert unary.merging_segment == child.merging_segment
        assert tree.skew() <= 1e-9 * max(tree.phase_delay(), 1.0)
        tree.validate_embedding()

    def test_unary_node_caps_match_elmore(self):
        tree = build(n=12, seed=3, policy=GateEveryEdgePolicy())
        self._make_unary(tree)
        reembed(tree)
        ev = tree.elmore_evaluator()
        for node in tree.preorder():
            assert node.subtree_cap == pytest.approx(ev.subtree_cap(node.id))

    def test_unary_node_without_cell(self):
        tree = build(n=9, seed=5)  # plain wires everywhere
        unary, kept = self._make_unary(tree)
        reembed(tree)
        child = tree.node(kept)
        # A bare zero-length edge is electrically transparent: the
        # unary node presents exactly the child's own capacitance.
        assert unary.subtree_cap == pytest.approx(child.subtree_cap)
        assert unary.sink_delay == pytest.approx(child.sink_delay)
        assert tree.skew() <= 1e-9 * max(tree.phase_delay(), 1.0)
