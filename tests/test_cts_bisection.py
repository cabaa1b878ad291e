"""Unit tests for the recursive-bisection topology baseline."""

import numpy as np
import pytest

from repro.bench.suite import load_benchmark
from repro.check.auditor import audit_network
from repro.cts.bisection import build_bisection_tree
from repro.cts.dme import BottomUpMerger, BufferEveryEdgePolicy, GateEveryEdgePolicy
from repro.cts.topology import Sink
from repro.core.gate_reduction import GateReductionPolicy
from repro.geometry import Point
from repro.tech import date98_technology, unit_technology


def rng_sinks(n, seed=0, span=100.0):
    rng = np.random.default_rng(seed)
    return [
        Sink(name="s%d" % i, location=Point(x, y), load_cap=1.0, module=i)
        for i, (x, y) in enumerate(
            zip(rng.uniform(0, span, n), rng.uniform(0, span, n))
        )
    ]


class TestTopology:
    def test_full_binary(self):
        tree = build_bisection_tree(rng_sinks(13), unit_technology())
        assert len(tree) == 25
        for node in tree.internal_nodes():
            assert len(node.children) == 2

    def test_balanced_depth_for_power_of_two(self):
        tree = build_bisection_tree(rng_sinks(16, seed=1), unit_technology())
        depths = {tree.depth(n.id) for n in tree.sinks()}
        assert depths == {4}

    def test_zero_skew(self):
        tree = build_bisection_tree(rng_sinks(21, seed=2), unit_technology())
        assert tree.skew() <= 1e-6 * max(tree.phase_delay(), 1.0)
        tree.validate_embedding()

    def test_single_sink(self):
        tree = build_bisection_tree(rng_sinks(1), unit_technology())
        assert len(tree) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_bisection_tree([], unit_technology())

    def test_cut_separates_halves(self):
        # The root's first cut is vertical: the two subtrees' sinks are
        # separated by the median x coordinate.
        sinks = rng_sinks(16, seed=3)
        tree = build_bisection_tree(sinks, unit_technology())
        left_id, right_id = tree.root.children

        def sink_xs(node_id):
            return [
                n.sink.location.x
                for n in tree.sinks()
                if _under(tree, n.id, node_id)
            ]

        def _under(tree, nid, ancestor):
            while nid is not None:
                if nid == ancestor:
                    return True
                nid = tree.node(nid).parent
            return False

        assert max(sink_xs(left_id)) <= min(sink_xs(right_id)) + 1e-9


class TestWithCellsAndActivity:
    def test_buffered_bisection_audits_clean(self):
        tree = build_bisection_tree(
            rng_sinks(18, seed=4), unit_technology(), cell_policy=BufferEveryEdgePolicy()
        )
        assert tree.cell_count() == 2 * 18 - 2
        assert audit_network(tree).ok

    def test_gated_bisection_with_oracle(self):
        case = load_benchmark("r1", scale=0.1)
        tech = date98_technology()
        tree = build_bisection_tree(
            case.sinks, tech, cell_policy=GateEveryEdgePolicy(), oracle=case.oracle
        )
        assert tree.gate_count() == 2 * case.num_sinks - 2
        assert audit_network(tree).ok
        # Root enable covers every module.
        assert tree.root.module_mask == (1 << case.num_sinks) - 1

    def test_reduction_policy_applies(self):
        case = load_benchmark("r1", scale=0.1)
        tech = date98_technology()
        tree = build_bisection_tree(
            case.sinks,
            tech,
            cell_policy=GateReductionPolicy.from_knob(0.5, tech),
            oracle=case.oracle,
        )
        assert 0 < tree.gate_count() < 2 * case.num_sinks - 2
        assert audit_network(tree).ok

    def test_wirelength_competitive_with_greedy(self):
        # Bisection is balanced, not wire-optimal; it should land
        # within a moderate factor of the NN greedy.
        sinks = rng_sinks(40, seed=5)
        tech = unit_technology()
        bisect = build_bisection_tree(sinks, tech)
        greedy = BottomUpMerger(sinks, tech).run()
        assert bisect.total_wirelength() <= 2.5 * greedy.total_wirelength()
