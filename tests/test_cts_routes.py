"""Unit/property tests for physical route geometry."""

import numpy as np
import pytest

from repro.cts import BottomUpMerger, Sink
from repro.cts.dme import GateEveryEdgePolicy
from repro.cts.routes import edge_route, tree_routes
from repro.geometry import Point
from repro.tech import unit_technology


def rng_sinks(n, seed=0, span=200.0, cap_spread=True, max_cap=4.0):
    rng = np.random.default_rng(seed)
    caps = rng.uniform(0.5, max_cap, n) if cap_spread else np.ones(n)
    return [
        Sink(name="s%d" % i, location=Point(x, y), load_cap=float(caps[i]), module=i)
        for i, (x, y) in enumerate(
            zip(rng.uniform(0, span, n), rng.uniform(0, span, n))
        )
    ]


def snaky_tree(n=20, seed=2):
    """A tree with real snaking: sink loads spread over 0.5-400 leave
    some merges too unbalanced for a zero-skew split on the segment."""
    return BottomUpMerger(
        rng_sinks(n, seed=seed, max_cap=400.0),
        unit_technology(),
        cell_policy=GateEveryEdgePolicy(),
    ).run()


class TestRouteLengths:
    def test_plain_tree_routes_match_edge_lengths(self):
        tree = BottomUpMerger(rng_sinks(15, seed=1), unit_technology()).run()
        for route in tree_routes(tree):
            node = tree.node(route.node_id)
            assert route.length == pytest.approx(node.edge_length, abs=1e-6)

    def test_total_route_length_equals_wirelength(self):
        tree = BottomUpMerger(rng_sinks(25, seed=3), unit_technology()).run()
        total = sum(r.length for r in tree_routes(tree))
        assert total == pytest.approx(tree.total_wirelength(), rel=1e-9)

    def test_snaked_routes_carry_detours(self):
        tree = snaky_tree()
        routes = tree_routes(tree)
        snaked = [r for r in routes if r.snaked]
        assert snaked, "expected snaking in this construction"
        for route in routes:
            node = tree.node(route.node_id)
            assert route.length == pytest.approx(node.edge_length, rel=1e-9, abs=1e-6)

    def test_endpoints_are_parent_and_child(self):
        tree = BottomUpMerger(rng_sinks(12, seed=4), unit_technology()).run()
        for route in tree_routes(tree):
            node = tree.node(route.node_id)
            parent = tree.node(node.parent)
            assert route.points[0].is_close(parent.location, tol=1e-6)
            assert route.points[-1].is_close(node.location, tol=1e-6)

    def test_routes_are_rectilinear(self):
        tree = snaky_tree(n=16, seed=5)
        routes = tree_routes(tree)
        assert any(r.snaked for r in routes)
        for route in routes:
            assert route.is_rectilinear(tol=1e-6)


class TestEdgeCases:
    def test_coincident_endpoints_pure_detour(self):
        sinks = [
            Sink("a", Point(5, 5), 1.0, 0),
            Sink("b", Point(5, 5), 20.0, 1),
        ]
        tree = BottomUpMerger(sinks, unit_technology()).run()
        # Different loads at the same point: one edge may be all snake.
        for route in tree_routes(tree):
            node = tree.node(route.node_id)
            assert route.length == pytest.approx(node.edge_length, abs=1e-9)

    def test_root_edge_rejected(self):
        tree = BottomUpMerger(rng_sinks(4, seed=6), unit_technology()).run()
        with pytest.raises(ValueError):
            edge_route(tree, tree.root)

    def test_unplaced_tree_rejected(self):
        from repro.cts import ClockTree
        from repro.geometry import Trr

        tree = ClockTree(unit_technology())
        a = tree.add_leaf(Sink("a", Point(0, 0), 1.0, 0))
        b = tree.add_leaf(Sink("b", Point(4, 0), 1.0, 1))
        root = tree.add_internal(a.id, b.id, Trr.from_point(Point(2, 0)))
        tree.set_root(root.id)
        with pytest.raises(ValueError):
            edge_route(tree, a)

    def test_axis_aligned_edges(self):
        sinks = [
            Sink("a", Point(0, 0), 1.0, 0),
            Sink("b", Point(10, 0), 1.0, 1),  # horizontal pair
            Sink("c", Point(0, 40), 1.0, 2),  # vertical-ish merge next
        ]
        tree = BottomUpMerger(sinks, unit_technology()).run()
        for route in tree_routes(tree):
            node = tree.node(route.node_id)
            assert route.length == pytest.approx(node.edge_length, abs=1e-6)
            assert route.is_rectilinear(tol=1e-6)
